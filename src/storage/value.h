#ifndef RODIN_STORAGE_VALUE_H_
#define RODIN_STORAGE_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/check.h"

namespace rodin {

/// Object identifier: class id + slot within the class extent. The physical
/// model follows the *direct storage* approach [VKC86]: owner objects store
/// the Oids of their sub-objects.
struct Oid {
  uint32_t class_id = UINT32_MAX;
  uint32_t slot = UINT32_MAX;

  static Oid Invalid() { return Oid{}; }
  bool valid() const { return class_id != UINT32_MAX; }

  friend bool operator==(const Oid& a, const Oid& b) {
    return a.class_id == b.class_id && a.slot == b.slot;
  }
  friend bool operator<(const Oid& a, const Oid& b) {
    if (a.class_id != b.class_id) return a.class_id < b.class_id;
    return a.slot < b.slot;
  }
};

class Value;

/// Backing store for collection-valued and tuple-valued Values. Immutable
/// once built; shared between copies of a Value.
struct Collection {
  enum class Kind { kSet, kList, kTuple };
  Kind kind;
  std::vector<Value> elems;
};

/// A runtime value: atomic, object reference, or (shared, immutable)
/// collection. Values are cheap to copy.
class Value {
 public:
  /// The null value (unset attribute).
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Real(double d) { return Value(Rep(d)); }
  static Value Str(std::string s) { return Value(Rep(std::move(s))); }
  static Value Ref(Oid oid) { return Value(Rep(oid)); }
  static Value MakeSet(std::vector<Value> elems);
  static Value MakeList(std::vector<Value> elems);
  static Value MakeTuple(std::vector<Value> elems);

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_bool() const { return std::holds_alternative<bool>(rep_); }
  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_real() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  bool is_ref() const { return std::holds_alternative<Oid>(rep_); }
  bool is_collection() const {
    return std::holds_alternative<std::shared_ptr<const Collection>>(rep_);
  }

  /// Accessors abort via CHECK on kind mismatch.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  const std::string& AsString() const;
  Oid AsRef() const {
    RODIN_CHECK(is_ref(), "value is not an object reference");
    return std::get<Oid>(rep_);
  }
  const Collection& AsCollection() const {
    RODIN_CHECK(is_collection(), "value is not a collection");
    return *std::get<std::shared_ptr<const Collection>>(rep_);
  }

  /// Numeric view: int or real as double. Aborts otherwise.
  double AsNumber() const;

  /// Total order across all values (kind rank first, then content).
  /// Used for set semantics (dedup) and index keys.
  int Compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

  size_t Hash() const;

  /// Rendering for debugging and report tables.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           Oid, std::shared_ptr<const Collection>>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  static Value MakeCollection(Collection::Kind kind, std::vector<Value> elems);

  Rep rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct OidHash {
  size_t operator()(const Oid& o) const {
    return (static_cast<size_t>(o.class_id) << 32) ^ o.slot;
  }
};

}  // namespace rodin

#endif  // RODIN_STORAGE_VALUE_H_
