#include "catalog/schema.h"

#include "common/check.h"
#include "common/string_util.h"

namespace rodin {

const Attribute* ClassDef::FindAttribute(const std::string& name) const {
  for (const Attribute& a : own_attrs_) {
    if (a.name == name) return &a;
  }
  if (super_ != nullptr) return super_->FindAttribute(name);
  return nullptr;
}

int ClassDef::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < all_attrs_.size(); ++i) {
    if (all_attrs_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const Attribute* RelationDef::FindAttribute(const std::string& name) const {
  for (const Attribute& a : attrs_) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

int RelationDef::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

ClassDef* Schema::AddClass(const std::string& name,
                           const std::string& super_name) {
  RODIN_CHECK(FindClass(name) == nullptr, "duplicate class name");
  RODIN_CHECK(FindRelation(name) == nullptr, "class name collides with relation");
  const ClassDef* super = nullptr;
  if (!super_name.empty()) {
    super = FindClass(super_name);
    RODIN_CHECK(super != nullptr, "superclass does not exist");
  }
  const uint32_t id = static_cast<uint32_t>(classes_.size());
  classes_.push_back(
      std::unique_ptr<ClassDef>(new ClassDef(name, id, super)));
  if (super != nullptr) classes_.back()->all_attrs_ = super->all_attrs_;
  return classes_.back().get();
}

void Schema::AddAttribute(ClassDef* cls, Attribute attr) {
  RODIN_CHECK(cls != nullptr, "null class");
  RODIN_CHECK(attr.type != nullptr, "attribute needs a type");
  RODIN_CHECK(cls->FindAttribute(attr.name) == nullptr,
              "attribute name collides with own or inherited attribute");
  cls->own_attrs_.push_back(std::move(attr));
  // Refresh the flattened lists of `cls` and its subclasses. Superclasses
  // are declared before their subclasses, so one pass in declaration order
  // sees every super's list already refreshed.
  for (const auto& c : classes_) {
    if (!IsSubclassOf(c.get(), cls)) continue;
    c->all_attrs_ =
        c->super_ == nullptr ? std::vector<Attribute>{} : c->super_->all_attrs_;
    c->all_attrs_.insert(c->all_attrs_.end(), c->own_attrs_.begin(),
                         c->own_attrs_.end());
  }
}

RelationDef* Schema::AddRelation(const std::string& name,
                                 std::vector<Type::Field> fields) {
  RODIN_CHECK(FindRelation(name) == nullptr, "duplicate relation name");
  RODIN_CHECK(FindClass(name) == nullptr, "relation name collides with class");
  std::vector<Attribute> attrs;
  attrs.reserve(fields.size());
  for (const Type::Field& f : fields) {
    Attribute a;
    a.name = f.name;
    a.type = f.type;
    attrs.push_back(std::move(a));
  }
  const Type* tuple = types_.Tuple(std::move(fields));
  const uint32_t id = static_cast<uint32_t>(relations_.size());
  relations_.push_back(std::unique_ptr<RelationDef>(
      new RelationDef(name, id, tuple, std::move(attrs))));
  return relations_.back().get();
}

const ClassDef* Schema::FindClass(const std::string& name) const {
  for (const auto& c : classes_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

ClassDef* Schema::FindClass(const std::string& name) {
  for (const auto& c : classes_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

const RelationDef* Schema::FindRelation(const std::string& name) const {
  for (const auto& r : relations_) {
    if (r->name() == name) return r.get();
  }
  return nullptr;
}

bool Schema::IsSubclassOf(const ClassDef* sub, const ClassDef* ancestor) const {
  for (const ClassDef* c = sub; c != nullptr; c = c->super()) {
    if (c == ancestor) return true;
  }
  return false;
}

std::vector<const ClassDef*> Schema::ConcreteClassesOf(
    const ClassDef* cls) const {
  std::vector<const ClassDef*> out;
  for (const auto& c : classes_) {
    if (IsSubclassOf(c.get(), cls)) out.push_back(c.get());
  }
  return out;
}

bool Schema::FindInverse(const ClassDef* cls, const std::string& attr,
                         const ClassDef** inverse_cls,
                         std::string* inverse_attr) const {
  const Attribute* a = cls->FindAttribute(attr);
  if (a == nullptr) return false;
  // Declared on this side.
  if (!a->inverse_class.empty()) {
    const ClassDef* other = FindClass(a->inverse_class);
    if (other != nullptr && other->FindAttribute(a->inverse_attr) != nullptr) {
      *inverse_cls = other;
      *inverse_attr = a->inverse_attr;
      return true;
    }
  }
  // Declared on the other side: some class's attribute names (cls, attr)
  // as its inverse.
  for (const auto& other : classes_) {
    for (const Attribute& oa : other->own_attributes()) {
      if (oa.inverse_attr != attr) continue;
      const ClassDef* named = FindClass(oa.inverse_class);
      if (named == nullptr || !IsSubclassOf(cls, named)) continue;
      *inverse_cls = other.get();
      *inverse_attr = oa.name;
      return true;
    }
  }
  return false;
}

const ClassDef* Schema::ClassById(uint32_t id) const {
  RODIN_CHECK(id < classes_.size(), "class id out of range");
  return classes_[id].get();
}

std::vector<std::string> Schema::ValidateInverses() const {
  std::vector<std::string> errors;
  for (const auto& c : classes_) {
    for (const Attribute& a : c->own_attributes()) {
      if (a.inverse_class.empty()) continue;
      const ClassDef* other = FindClass(a.inverse_class);
      if (other == nullptr) {
        errors.push_back(StrFormat("%s.%s: inverse class %s does not exist",
                                   c->name().c_str(), a.name.c_str(),
                                   a.inverse_class.c_str()));
        continue;
      }
      const Attribute* back = other->FindAttribute(a.inverse_attr);
      if (back == nullptr) {
        errors.push_back(StrFormat(
            "%s.%s: inverse attribute %s.%s does not exist", c->name().c_str(),
            a.name.c_str(), a.inverse_class.c_str(), a.inverse_attr.c_str()));
        continue;
      }
      // The inverse must be declared symmetrically when present on the other
      // side, and must reference (a collection of) this class.
      if (!back->inverse_class.empty() &&
          (back->inverse_class != c->name() || back->inverse_attr != a.name)) {
        errors.push_back(StrFormat(
            "%s.%s and %s.%s declare mismatched inverses", c->name().c_str(),
            a.name.c_str(), a.inverse_class.c_str(), a.inverse_attr.c_str()));
      }
      const Type* bt = back->type;
      if (bt->IsCollection()) bt = bt->elem();
      if (bt->kind() != TypeKind::kObject ||
          FindClass(bt->class_name()) == nullptr ||
          !IsSubclassOf(c.get(), FindClass(bt->class_name()))) {
        errors.push_back(StrFormat(
            "%s.%s: inverse %s.%s does not reference back to %s",
            c->name().c_str(), a.name.c_str(), a.inverse_class.c_str(),
            a.inverse_attr.c_str(), c->name().c_str()));
      }
    }
  }
  return errors;
}

}  // namespace rodin
