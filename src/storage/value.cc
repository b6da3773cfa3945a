#include "storage/value.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace rodin {

Value Value::MakeCollection(Collection::Kind kind, std::vector<Value> elems) {
  auto coll = std::make_shared<Collection>();
  coll->kind = kind;
  coll->elems = std::move(elems);
  if (kind == Collection::Kind::kSet) {
    std::sort(coll->elems.begin(), coll->elems.end());
    coll->elems.erase(std::unique(coll->elems.begin(), coll->elems.end()),
                      coll->elems.end());
  }
  return Value(Rep(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::MakeSet(std::vector<Value> elems) {
  return MakeCollection(Collection::Kind::kSet, std::move(elems));
}
Value Value::MakeList(std::vector<Value> elems) {
  return MakeCollection(Collection::Kind::kList, std::move(elems));
}
Value Value::MakeTuple(std::vector<Value> elems) {
  return MakeCollection(Collection::Kind::kTuple, std::move(elems));
}

bool Value::AsBool() const {
  RODIN_CHECK(is_bool(), "value is not a bool");
  return std::get<bool>(rep_);
}

int64_t Value::AsInt() const {
  RODIN_CHECK(is_int(), "value is not an int");
  return std::get<int64_t>(rep_);
}

double Value::AsReal() const {
  RODIN_CHECK(is_real(), "value is not a real");
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  RODIN_CHECK(is_string(), "value is not a string");
  return std::get<std::string>(rep_);
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(AsInt());
  return AsReal();
}

int Value::Compare(const Value& other) const {
  const size_t ka = rep_.index();
  const size_t kb = other.rep_.index();
  // Numeric cross-kind comparison (int vs real) compares by value.
  const bool a_num = is_int() || is_real();
  const bool b_num = other.is_int() || other.is_real();
  if (a_num && b_num) {
    const double x = AsNumber();
    const double y = other.AsNumber();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (ka != kb) return ka < kb ? -1 : 1;
  switch (ka) {
    case 0:  // null
      return 0;
    case 1: {
      const bool a = std::get<bool>(rep_);
      const bool b = std::get<bool>(other.rep_);
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case 4: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case 5: {
      const Oid a = AsRef();
      const Oid b = other.AsRef();
      if (a == b) return 0;
      return a < b ? -1 : 1;
    }
    case 6: {
      const Collection& a = AsCollection();
      const Collection& b = other.AsCollection();
      if (a.kind != b.kind) return a.kind < b.kind ? -1 : 1;
      const size_t n = std::min(a.elems.size(), b.elems.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a.elems[i].Compare(b.elems[i]);
        if (c != 0) return c;
      }
      if (a.elems.size() == b.elems.size()) return 0;
      return a.elems.size() < b.elems.size() ? -1 : 1;
    }
    default:
      return 0;  // unreachable: numeric kinds handled above
  }
}

size_t Value::Hash() const {
  auto mix = [](size_t h, size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  switch (rep_.index()) {
    case 0:
      return 0x9e3779b9;
    case 1:
      return std::get<bool>(rep_) ? 3 : 7;
    case 2:
      // Hash ints through double so that Int(3) and Real(3.0), which compare
      // equal, also hash equal.
      return std::hash<double>()(static_cast<double>(std::get<int64_t>(rep_)));
    case 3:
      return std::hash<double>()(std::get<double>(rep_));
    case 4:
      return std::hash<std::string>()(std::get<std::string>(rep_));
    case 5: {
      const Oid o = std::get<Oid>(rep_);
      return OidHash()(o);
    }
    case 6: {
      const Collection& c = AsCollection();
      size_t h = static_cast<size_t>(c.kind) + 0x51ed2701;
      for (const Value& e : c.elems) h = mix(h, e.Hash());
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (rep_.index()) {
    case 0:
      return "null";
    case 1:
      return std::get<bool>(rep_) ? "true" : "false";
    case 2:
      return std::to_string(std::get<int64_t>(rep_));
    case 3:
      return StrFormat("%g", std::get<double>(rep_));
    case 4:
      return "\"" + std::get<std::string>(rep_) + "\"";
    case 5: {
      const Oid o = std::get<Oid>(rep_);
      return StrFormat("@%u:%u", o.class_id, o.slot);
    }
    case 6: {
      const Collection& c = AsCollection();
      const char* open = c.kind == Collection::Kind::kSet
                             ? "{"
                             : (c.kind == Collection::Kind::kList ? "<" : "[");
      const char* close = c.kind == Collection::Kind::kSet
                              ? "}"
                              : (c.kind == Collection::Kind::kList ? ">" : "]");
      std::string out = open;
      for (size_t i = 0; i < c.elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += c.elems[i].ToString();
      }
      return out + close;
    }
  }
  return "?";
}

}  // namespace rodin
