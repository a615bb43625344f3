// Materialized join-tree instances: the input to the T-DP stage-graph
// builder (paper Section 5.1).
//
// A TDPInstance is a rooted tree of nodes ("bags"). Each node carries
//  * a schema (variable ids) and a table of rows over that schema,
//  * the equi-join key with its parent (column positions on both sides),
//  * weight *pins*: which original atoms contribute their tuple weight at
//    this node, with the per-row contributing weight and original row id
//    (Section 5.3: "track the lineage for bags at the schema level ... so
//    that relation weights are only accounted for once").
//
// For a plain acyclic CQ every node is one atom and pins exactly itself:
// its table is the atom's relation, read in place, and so are its pins —
// such a node stores no pin arrays at all. Atoms with repeated variables,
// and the multi-atom bags the cycle decomposition materializes, have tables
// whose rows are not the atoms' rows, so they store their pins.

#ifndef ANYK_QUERY_JOIN_TREE_H_
#define ANYK_QUERY_JOIN_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "query/cq.h"
#include "query/gyo.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace anyk {

/// One bag of a join-tree instance.
struct TDPNode {
  std::vector<uint32_t> vars;  // variable ids, in table column order
  const Relation* table = nullptr;
  std::shared_ptr<Relation> owned;  // set when the table is materialized

  int parent = -1;
  std::vector<int> children;
  std::vector<uint32_t> key_cols;         // join columns in this node
  std::vector<uint32_t> parent_key_cols;  // matching columns in the parent

  // Weight pins: pinned_atoms.size() == P original atoms are charged here.
  // For row r and pin p, PinWeights()[r*P+p] is the contributed weight and
  // PinRows()[r*P+p] the original row id in that atom's relation. A node
  // whose table is its one pinned atom's own relation leaves pin_weights and
  // pin_rows empty: its weights are the table's weight column, and its pin
  // of row r is row r itself (PinRows() is null).
  std::vector<uint32_t> pinned_atoms;
  std::vector<double> pin_weights;
  std::vector<uint32_t> pin_rows;

  size_t NumRows() const { return table->NumRows(); }
  size_t NumPins() const { return pinned_atoms.size(); }
  /// Row-major pin weights (see above).
  const double* PinWeights() const {
    return SelfPinned() ? table->Weights().data() : pin_weights.data();
  }
  /// Row-major pin rows, or null when pin 0 of row r is row r.
  const uint32_t* PinRows() const {
    return SelfPinned() ? nullptr : pin_rows.data();
  }

 private:
  bool SelfPinned() const {
    return pinned_atoms.size() == 1 && pin_rows.empty();
  }
};

/// A fully materialized T-DP input: one join tree with per-node tables.
struct TDPInstance {
  size_t num_vars = 0;   // variables of the original query
  size_t num_atoms = 0;  // atoms of the original query (the paper's l)
  std::vector<TDPNode> nodes;
  std::vector<uint32_t> order;  // preorder serialization; order[0] = root
  // Planner stage-order hint (JoinTreeTopology::child_priority): when sized
  // like `nodes`, FinalizeTopology visits children ascending by priority.
  std::vector<double> child_priority;

  const TDPNode& Root() const { return nodes[order[0]]; }
};

/// Compute the preorder serialization (parents before children) and the
/// children lists from the parent pointers already set on `nodes`.
void FinalizeTopology(TDPInstance* inst);

/// Derive the join key columns between every node and its parent (shared
/// variables, paper's running-intersection property guarantees correctness).
void ComputeJoinKeys(TDPInstance* inst);

/// Build an instance for an acyclic full CQ: GYO join tree, one node per
/// atom, each atom pinning its own relation's weights. Atoms with repeated
/// variables (e.g. R(x,x)) are filtered and deduplicated into an owned table.
TDPInstance BuildAcyclicInstance(const Database& db, const ConjunctiveQuery& q);

/// If the join tree is a path (undirected degrees <= 2), re-root it at an
/// endpoint so the DP serialization is *serial* (single child slot per
/// stage), matching the paper's Section 3 treatment of path queries.
JoinTreeTopology RerootChains(const JoinTreeTopology& topo);

/// Re-chain Cartesian links (tree edges whose endpoints share no variables,
/// which may legally attach anywhere): pure products then serialize as the
/// paper's serial DP instead of a degenerate star.
JoinTreeTopology NormalizeTopology(const JoinTreeTopology& topo,
                                   const ConjunctiveQuery& q);

/// Same, but with a caller-provided join-tree topology over the atoms.
TDPInstance BuildInstanceFromTopology(const Database& db,
                                      const ConjunctiveQuery& q,
                                      const JoinTreeTopology& topo);

}  // namespace anyk

#endif  // ANYK_QUERY_JOIN_TREE_H_
