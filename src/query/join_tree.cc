#include "query/join_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace anyk {

void FinalizeTopology(TDPInstance* inst) {
  auto& nodes = inst->nodes;
  int root = -1;
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].children.clear();
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0) {
      ANYK_CHECK_EQ(root, -1) << "multiple roots in join tree";
      root = static_cast<int>(i);
    } else {
      nodes[nodes[i].parent].children.push_back(static_cast<int>(i));
    }
  }
  ANYK_CHECK_GE(root, 0) << "join tree has no root";

  // Planner stage-order hint: visit children in ascending priority (stable,
  // so equal priorities keep index order — identical to the legacy order
  // when the hint is absent or uniform).
  if (inst->child_priority.size() == nodes.size()) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      std::stable_sort(nodes[i].children.begin(), nodes[i].children.end(),
                       [&](int a, int b) {
                         return inst->child_priority[a] <
                                inst->child_priority[b];
                       });
    }
  }

  // Iterative preorder DFS.
  inst->order.clear();
  inst->order.reserve(nodes.size());
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    inst->order.push_back(static_cast<uint32_t>(u));
    // Push children in reverse so they are visited in index order.
    for (auto it = nodes[u].children.rbegin(); it != nodes[u].children.rend();
         ++it) {
      stack.push_back(*it);
    }
  }
  ANYK_CHECK_EQ(inst->order.size(), nodes.size())
      << "join tree is not connected";
}

void ComputeJoinKeys(TDPInstance* inst) {
  for (auto& node : inst->nodes) {
    node.key_cols.clear();
    node.parent_key_cols.clear();
    if (node.parent < 0) continue;
    const auto& pvars = inst->nodes[node.parent].vars;
    for (size_t c = 0; c < node.vars.size(); ++c) {
      auto it = std::find(pvars.begin(), pvars.end(), node.vars[c]);
      if (it != pvars.end()) {
        node.key_cols.push_back(static_cast<uint32_t>(c));
        node.parent_key_cols.push_back(
            static_cast<uint32_t>(it - pvars.begin()));
      }
    }
  }
}

namespace {

// Build the node for a single atom. If the atom repeats a variable, the
// table is filtered (rows must match on repeated columns) and projected onto
// the distinct variables.
TDPNode MakeAtomNode(const Database& db, const ConjunctiveQuery& q,
                     size_t atom_idx) {
  const Relation& rel = db.Get(q.atom(atom_idx).relation);
  const auto& var_ids = q.AtomVarIds(atom_idx);
  ANYK_CHECK_EQ(rel.arity(), var_ids.size())
      << "atom " << q.atom(atom_idx).relation << " arity mismatch";

  TDPNode node;
  node.pinned_atoms = {static_cast<uint32_t>(atom_idx)};

  // Distinct variables in first-occurrence order.
  std::vector<uint32_t> distinct_cols;
  bool repeated = false;
  for (size_t c = 0; c < var_ids.size(); ++c) {
    bool seen = false;
    for (uint32_t d : distinct_cols) {
      if (var_ids[d] == var_ids[c]) seen = true;
    }
    if (seen) {
      repeated = true;
    } else {
      distinct_cols.push_back(static_cast<uint32_t>(c));
    }
  }
  for (uint32_t c : distinct_cols) node.vars.push_back(var_ids[c]);

  if (!repeated) {
    node.table = &rel;  // pins read the relation in place (TDPNode)
    return node;
  }

  // Filter rows where repeated variables disagree; project onto distinct.
  auto owned = std::make_shared<Relation>(rel.name() + "#dedup",
                                          distinct_cols.size());
  std::vector<Value> buf(distinct_cols.size());
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    bool ok = true;
    for (size_t c = 0; c < var_ids.size() && ok; ++c) {
      for (size_t d = c + 1; d < var_ids.size() && ok; ++d) {
        if (var_ids[c] == var_ids[d] && rel.At(r, c) != rel.At(r, d)) {
          ok = false;
        }
      }
    }
    if (!ok) continue;
    for (size_t i = 0; i < distinct_cols.size(); ++i) {
      buf[i] = rel.At(r, distinct_cols[i]);
    }
    owned->AddRow(buf, rel.Weight(r));
    node.pin_weights.push_back(rel.Weight(r));
    node.pin_rows.push_back(static_cast<uint32_t>(r));
  }
  node.table = owned.get();
  node.owned = std::move(owned);
  return node;
}

}  // namespace

TDPInstance BuildInstanceFromTopology(const Database& db,
                                      const ConjunctiveQuery& q,
                                      const JoinTreeTopology& topo) {
  ANYK_CHECK_EQ(topo.parent.size(), q.NumAtoms());
  TDPInstance inst;
  inst.num_vars = q.NumVars();
  inst.num_atoms = q.NumAtoms();
  inst.child_priority = topo.child_priority;
  inst.nodes.reserve(q.NumAtoms());
  for (size_t i = 0; i < q.NumAtoms(); ++i) {
    TDPNode node = MakeAtomNode(db, q, i);
    node.parent = topo.parent[i];
    inst.nodes.push_back(std::move(node));
  }
  FinalizeTopology(&inst);
  ComputeJoinKeys(&inst);
  return inst;
}

// If the join tree is a path (every node has undirected degree <= 2),
// re-root it at an endpoint so the serialized DP is *serial*: chains keep
// every stage at a single child slot, which is both what the paper's
// Section 3 formulation does for path queries and what lets ANYK-REC reuse
// suffix rankings without the Cartesian-combination machinery.
JoinTreeTopology RerootChains(const JoinTreeTopology& topo) {
  const size_t n = topo.parent.size();
  if (n <= 1) return topo;
  std::vector<std::vector<int>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    if (topo.parent[i] >= 0) {
      adj[i].push_back(topo.parent[i]);
      adj[topo.parent[i]].push_back(static_cast<int>(i));
    }
  }
  int endpoint = -1;
  for (size_t i = 0; i < n; ++i) {
    if (adj[i].size() > 2) return topo;  // genuinely branching: keep as is
    if (adj[i].size() <= 1) endpoint = static_cast<int>(i);
  }
  ANYK_CHECK_GE(endpoint, 0);
  JoinTreeTopology chain;
  chain.parent.assign(n, -1);
  chain.root = endpoint;
  std::vector<bool> seen(n, false);
  seen[endpoint] = true;
  std::vector<int> stack = {endpoint};
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        chain.parent[v] = u;
        stack.push_back(v);
      }
    }
  }
  return chain;
}

JoinTreeTopology NormalizeTopology(const JoinTreeTopology& topo,
                                   const ConjunctiveQuery& q) {
  // Tree links whose endpoints share no variables are Cartesian links: the
  // child subtree can legally attach anywhere. GYO may hang several such
  // subtrees off one node (a star); we re-chain them — each unit attaches
  // under the *deepest* node of the previous one — so that pure products
  // serialize as the paper's serial DP (Example 6) instead of a shallow
  // tree that forces the product-combination machinery.
  const size_t n = topo.parent.size();
  if (n <= 1) return topo;
  auto shares_var = [&](size_t a, size_t b) {
    for (uint32_t v : q.AtomVarIds(a)) {
      const auto& bv = q.AtomVarIds(b);
      if (std::find(bv.begin(), bv.end(), v) != bv.end()) return true;
    }
    return false;
  };
  JoinTreeTopology cut = topo;
  std::vector<int> unit_roots;
  for (size_t i = 0; i < n; ++i) {
    if (cut.parent[i] >= 0 &&
        !shares_var(i, static_cast<size_t>(cut.parent[i]))) {
      cut.parent[i] = -1;  // sever the Cartesian link
    }
    if (cut.parent[i] < 0) unit_roots.push_back(static_cast<int>(i));
  }
  if (unit_roots.size() <= 1) return topo;  // no Cartesian links

  // Depth-first depth computation per unit to find its deepest node.
  std::vector<std::vector<int>> children(n);
  for (size_t i = 0; i < n; ++i) {
    if (cut.parent[i] >= 0) children[cut.parent[i]].push_back(static_cast<int>(i));
  }
  auto deepest = [&](int root) {
    int best = root, best_depth = 0;
    std::vector<std::pair<int, int>> stack = {{root, 0}};
    while (!stack.empty()) {
      auto [u, d] = stack.back();
      stack.pop_back();
      if (d > best_depth) {
        best = u;
        best_depth = d;
      }
      for (int c : children[u]) stack.push_back({c, d + 1});
    }
    return best;
  };
  for (size_t k = 1; k < unit_roots.size(); ++k) {
    cut.parent[unit_roots[k]] = deepest(unit_roots[k - 1]);
    // Rebuild child lists incrementally for subsequent depth queries.
    children[cut.parent[unit_roots[k]]].push_back(unit_roots[k]);
  }
  cut.root = unit_roots[0];
  return cut;
}

TDPInstance BuildAcyclicInstance(const Database& db,
                                 const ConjunctiveQuery& q) {
  GyoResult gyo = GyoReduce(Hypergraph::FromQuery(q));
  ANYK_CHECK(gyo.acyclic) << "query is not acyclic: " << q.ToString();
  return BuildInstanceFromTopology(
      db, q, RerootChains(NormalizeTopology(gyo.tree, q)));
}

}  // namespace anyk
