#ifndef RODIN_CATALOG_SCHEMA_H_
#define RODIN_CATALOG_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/type.h"

namespace rodin {

/// An attribute of a class or relation (paper §2.1). Methods are modelled as
/// *computed* attributes: `computed == true`, with `method_cost` giving the
/// CPU weight of one invocation relative to one stored-predicate evaluation
/// (the reason pushing method-calling selections through recursion is risky).
struct Attribute {
  std::string name;
  const Type* type = nullptr;
  bool computed = false;
  double method_cost = 0.0;
  /// Optional inverse declaration, e.g. Composition.author is the inverse of
  /// Composer.works. Both sides may declare it; consistency is validated.
  std::string inverse_class;
  std::string inverse_attr;
};

/// A class of the conceptual schema. Supports single inheritance (`isa`).
class ClassDef {
 public:
  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }
  const ClassDef* super() const { return super_; }

  /// Attributes declared on this class only.
  const std::vector<Attribute>& own_attributes() const { return own_attrs_; }

  /// Attributes including inherited ones, superclass attributes first.
  /// Kept up to date by Schema::AddAttribute, so reading it allocates
  /// nothing.
  const std::vector<Attribute>& AllAttributes() const { return all_attrs_; }

  /// Finds an attribute by name, searching up the inheritance chain.
  const Attribute* FindAttribute(const std::string& name) const;

  /// Index of `name` in AllAttributes() order; -1 if absent. This is the
  /// storage field position of the attribute in an object record.
  int AttributeIndex(const std::string& name) const;

 private:
  friend class Schema;
  ClassDef(std::string name, uint32_t id, const ClassDef* super)
      : name_(std::move(name)), id_(id), super_(super) {}

  std::string name_;
  uint32_t id_;
  const ClassDef* super_;
  std::vector<Attribute> own_attrs_;
  std::vector<Attribute> all_attrs_;  // super's all_attrs_ + own_attrs_
};

/// A relation of the conceptual schema: a named set of tuples.
class RelationDef {
 public:
  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }
  const Type* tuple_type() const { return tuple_type_; }

  const Attribute* FindAttribute(const std::string& name) const;
  int AttributeIndex(const std::string& name) const;
  const std::vector<Attribute>& AllAttributes() const { return attrs_; }

 private:
  friend class Schema;
  RelationDef(std::string name, uint32_t id, const Type* tuple_type,
              std::vector<Attribute> attrs)
      : name_(std::move(name)),
        id_(id),
        tuple_type_(tuple_type),
        attrs_(std::move(attrs)) {}

  std::string name_;
  uint32_t id_;
  const Type* tuple_type_;
  std::vector<Attribute> attrs_;
};

/// The conceptual schema: classes (with inheritance and inverse attributes)
/// and relations. Owns its TypePool; all types used by the schema must be
/// created through `types()`.
class Schema {
 public:
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  TypePool& types() { return types_; }
  const TypePool& types() const { return types_; }

  /// Adds a class; `super_name` empty for a root class. The superclass must
  /// already exist. Returns the new class. Aborts on duplicate names.
  ClassDef* AddClass(const std::string& name, const std::string& super_name = "");

  /// Adds an attribute to an existing class. Aborts if the name collides
  /// with an own or inherited attribute.
  void AddAttribute(ClassDef* cls, Attribute attr);

  /// Adds a relation with the given tuple fields.
  RelationDef* AddRelation(const std::string& name,
                           std::vector<Type::Field> fields);

  const ClassDef* FindClass(const std::string& name) const;
  ClassDef* FindClass(const std::string& name);
  const RelationDef* FindRelation(const std::string& name) const;

  /// True if `sub` equals `ancestor` or derives from it.
  bool IsSubclassOf(const ClassDef* sub, const ClassDef* ancestor) const;

  /// `cls` and all its transitive subclasses (the concrete extents a
  /// polymorphic scan of `cls` must cover), in declaration order.
  std::vector<const ClassDef*> ConcreteClassesOf(const ClassDef* cls) const;

  /// The inverse of `cls`.`attr` (§2.1), whether declared on this side or
  /// on the other: fills (inverse_class, inverse_attr) and returns true.
  /// E.g. the inverse of Composer.works is Composition.author.
  bool FindInverse(const ClassDef* cls, const std::string& attr,
                   const ClassDef** inverse_cls,
                   std::string* inverse_attr) const;

  const std::vector<std::unique_ptr<ClassDef>>& classes() const {
    return classes_;
  }
  const std::vector<std::unique_ptr<RelationDef>>& relations() const {
    return relations_;
  }

  /// Class lookup by numeric id (used by Oids). Aborts on bad id.
  const ClassDef* ClassById(uint32_t id) const;

  /// Checks inverse-attribute declarations for consistency: the named
  /// inverse class/attribute must exist and point back. Returns a list of
  /// violation messages (empty when consistent).
  std::vector<std::string> ValidateInverses() const;

 private:
  TypePool types_;
  std::vector<std::unique_ptr<ClassDef>> classes_;
  std::vector<std::unique_ptr<RelationDef>> relations_;
};

}  // namespace rodin

#endif  // RODIN_CATALOG_SCHEMA_H_
