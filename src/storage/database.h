// A database is a named collection of relations.
//
// Most entries are owned: AddRelation creates or moves a relation into the
// database. Borrow adds a non-owning entry instead, which reads another
// database's relation in place; ShardedDatabase uses it so that every shard
// sees a broadcast relation without copying its rows. A borrowed relation
// must outlive the database that borrows it, and it is read-only here:
// GetMutable and AddRelation on a borrowed name CHECK-fail.

#ifndef ANYK_STORAGE_DATABASE_H_
#define ANYK_STORAGE_DATABASE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/relation.h"
#include "util/logging.h"

namespace anyk {

/// Container mapping relation names to relations, owned or borrowed.
///
/// Several query atoms may reference the same physical relation (self-joins);
/// lookup is by name, so that sharing is free.
class Database {
 public:
  /// Create (or replace) a relation and return a reference to it.
  Relation& AddRelation(const std::string& name, size_t arity) {
    ANYK_CHECK(borrowed_.count(name) == 0)
        << "relation " << name << " is borrowed";
    auto [it, _] = relations_.insert_or_assign(name, Relation(name, arity));
    return it->second;
  }

  /// Move an existing relation into the database under its own name.
  Relation& AddRelation(Relation rel) {
    std::string name = rel.name();
    ANYK_CHECK(borrowed_.count(name) == 0)
        << "relation " << name << " is borrowed";
    auto [it, _] = relations_.insert_or_assign(name, std::move(rel));
    return it->second;
  }

  /// Read `rel` in place under its own name, without copying it. `rel`
  /// must outlive this database (and every copy of it).
  void Borrow(const Relation& rel) {
    ANYK_CHECK(relations_.count(rel.name()) == 0)
        << "relation " << rel.name() << " is already owned";
    borrowed_.insert_or_assign(rel.name(), &rel);
  }

  bool Has(const std::string& name) const {
    return relations_.count(name) > 0 || borrowed_.count(name) > 0;
  }

  const Relation& Get(const std::string& name) const {
    auto it = relations_.find(name);
    if (it != relations_.end()) return it->second;
    auto borrowed = borrowed_.find(name);
    ANYK_CHECK(borrowed != borrowed_.end()) << "unknown relation: " << name;
    return *borrowed->second;
  }

  Relation& GetMutable(const std::string& name) {
    auto it = relations_.find(name);
    ANYK_CHECK(it != relations_.end())
        << (borrowed_.count(name) > 0 ? "borrowed" : "unknown")
        << " relation: " << name;
    return it->second;
  }

  /// Largest relation cardinality (the paper's n).
  size_t MaxCardinality() const {
    size_t n = 0;
    for (const auto& [_, rel] : relations_) n = std::max(n, rel.NumRows());
    for (const auto& [_, rel] : borrowed_) n = std::max(n, rel->NumRows());
    return n;
  }

  size_t NumRelations() const { return relations_.size() + borrowed_.size(); }

 private:
  // anyk-lint: allow(unordered-map): catalog lookup by relation name —
  // a handful of entries, hit once per query during planning, never during
  // enumeration (hot-path joins go through FlatKeyIndex).
  std::unordered_map<std::string, Relation> relations_;
  // anyk-lint: allow(unordered-map): the borrowed half of the same catalog.
  std::unordered_map<std::string, const Relation*> borrowed_;
};

}  // namespace anyk

#endif  // ANYK_STORAGE_DATABASE_H_
