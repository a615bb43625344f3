#include "dp/projection_tree.h"

// anyk-lint: allow-file(heap-hot-path): plan construction — validates the
// running-intersection property and materializes projected relations once
// per Prepare(); nothing here runs during enumeration, so node-based sets
// and shared_ptr ownership are fine (and the dedup sets are query-sized).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "query/gyo.h"
#include "storage/group_index.h"
#include "storage/value.h"
#include "util/logging.h"

namespace anyk {

bool HasRunningIntersection(const TDPInstance& inst) {
  // For every variable: nodes containing it must form a connected subtree.
  std::unordered_set<uint32_t> vars;
  for (const auto& n : inst.nodes) vars.insert(n.vars.begin(), n.vars.end());
  for (uint32_t w : vars) {
    std::vector<int> with;  // node indices containing w
    for (size_t i = 0; i < inst.nodes.size(); ++i) {
      if (std::find(inst.nodes[i].vars.begin(), inst.nodes[i].vars.end(), w) !=
          inst.nodes[i].vars.end()) {
        with.push_back(static_cast<int>(i));
      }
    }
    if (with.size() <= 1) continue;
    // BFS within the induced subgraph.
    std::unordered_set<int> member(with.begin(), with.end());
    std::unordered_set<int> seen = {with[0]};
    std::vector<int> stack = {with[0]};
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      std::vector<int> nbrs;
      if (inst.nodes[u].parent >= 0) nbrs.push_back(inst.nodes[u].parent);
      for (int c : inst.nodes[u].children) nbrs.push_back(c);
      for (int v : nbrs) {
        if (member.count(v) && !seen.count(v)) {
          seen.insert(v);
          stack.push_back(v);
        }
      }
    }
    if (seen.size() != with.size()) return false;
  }
  return true;
}

namespace {

// Re-root the (undirected view of the) topology at `root`.
std::vector<int> Reroot(const JoinTreeTopology& topo, int root) {
  const size_t n = topo.parent.size();
  std::vector<std::vector<int>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    if (topo.parent[i] >= 0) {
      adj[i].push_back(topo.parent[i]);
      adj[topo.parent[i]].push_back(static_cast<int>(i));
    }
  }
  std::vector<int> parent(n, -2);  // -2 = unvisited
  parent[root] = -1;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int v : adj[u]) {
      if (parent[v] == -2) {
        parent[v] = u;
        stack.push_back(v);
      }
    }
  }
  for (int p : parent) ANYK_CHECK_NE(p, -2) << "join tree disconnected";
  return parent;
}

std::vector<uint32_t> SortedVars(const ConjunctiveQuery& q, size_t atom) {
  std::vector<uint32_t> v = q.AtomVarIds(atom);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

LayeredInstance BuildLayeredInstance(const Database& db,
                                     const ConjunctiveQuery& q) {
  ANYK_CHECK(!q.IsFull()) << "projection requested for a full query";
  ANYK_CHECK(IsFreeConnexAcyclic(q))
      << "not free-connex acyclic: " << q.ToString()
      << " (no constant/log-delay projection enumeration exists unless "
         "sparseBMM-style hypotheses fail, Corollary 22)";

  const size_t na = q.NumAtoms();
  const std::vector<uint32_t>& y = q.FreeVarIds();
  std::unordered_set<uint32_t> yset(y.begin(), y.end());

  // Join tree of the extended query, re-rooted at the virtual head edge
  // (index na).
  GyoResult gyo = GyoReduce(Hypergraph::FromQueryWithHeadEdge(q));
  ANYK_CHECK(gyo.acyclic);
  std::vector<int> parent = Reroot(gyo.tree, static_cast<int>(na));

  std::vector<int> head_children;
  for (size_t i = 0; i < na; ++i) {
    if (parent[i] == static_cast<int>(na)) {
      head_children.push_back(static_cast<int>(i));
    }
  }
  ANYK_CHECK(!head_children.empty());

  // Free variables per atom.
  std::vector<std::vector<uint32_t>> free_of(na);
  for (size_t i = 0; i < na; ++i) {
    for (uint32_t v : SortedVars(q, i)) {
      if (yset.count(v)) free_of[i].push_back(v);
    }
  }

  // Try each head child as the primary root; accept the first arrangement
  // whose layered tree satisfies running intersection.
  for (int primary : head_children) {
    // Atom-level tree: primary is the root, other head children re-attach
    // under it.
    std::vector<int> tparent(na);
    for (size_t i = 0; i < na; ++i) {
      tparent[i] = (parent[i] == static_cast<int>(na))
                       ? ((static_cast<int>(i) == primary) ? -1 : primary)
                       : parent[i];
    }

    // Node plan: U node per atom with free vars (the atom itself when all
    // its variables are free), lower node per atom with existential vars.
    std::vector<int> unode(na, -1), lnode(na, -1);
    LayeredInstance out;
    out.free_vars = y;
    TDPInstance& inst = out.full;
    inst.num_vars = q.NumVars();
    inst.num_atoms = na;

    // Pass 1: U layer — a weightless *distinct* projection of every atom
    // with free variables (the paper's auxiliary R' atoms). Keeping the
    // weights on the lower layer makes duplicate input rows and every
    // selective dioid's ⊕ fold out correctly through the branch minima.
    for (size_t i = 0; i < na; ++i) {
      if (free_of[i].empty()) continue;
      const Relation& rel = db.Get(q.atom(i).relation);
      const auto& vars = q.AtomVarIds(i);
      std::vector<uint32_t> cols;
      for (uint32_t fv : free_of[i]) {
        for (size_t c = 0; c < vars.size(); ++c) {
          if (vars[c] == fv) {
            cols.push_back(static_cast<uint32_t>(c));
            break;
          }
        }
      }
      auto owned =
          std::make_shared<Relation>(rel.name() + "#proj", cols.size());
      std::unordered_set<Key, KeyHash> seen;
      for (size_t r = 0; r < rel.NumRows(); ++r) {
        Key key = rel.ProjectRow(r, cols);
        if (seen.insert(key).second) owned->AddRow(key, 0.0);
      }
      TDPNode node;
      node.vars = free_of[i];
      node.table = owned.get();
      node.owned = std::move(owned);
      unode[i] = static_cast<int>(inst.nodes.size());
      inst.nodes.push_back(std::move(node));
    }

    // Pass 2: lower layer — every original atom with its weights.
    for (size_t i = 0; i < na; ++i) {
      const Relation& rel = db.Get(q.atom(i).relation);
      TDPNode node;
      node.vars = q.AtomVarIds(i);
      node.table = &rel;
      node.pinned_atoms = {static_cast<uint32_t>(i)};
      lnode[i] = static_cast<int>(inst.nodes.size());
      inst.nodes.push_back(std::move(node));
    }

    // Pass 3: parents.
    auto nearest_free_ancestor = [&](size_t i) -> int {
      int p = tparent[i];
      while (p >= 0 && free_of[p].empty()) p = tparent[p];
      return p;  // -1 if none
    };
    bool ok = true;
    for (size_t i = 0; i < na && ok; ++i) {
      // U node parent: U node of the nearest free-bearing ancestor.
      if (unode[i] >= 0) {
        const int anc = nearest_free_ancestor(i);
        inst.nodes[unode[i]].parent = (anc < 0) ? -1 : unode[anc];
        if (static_cast<int>(i) == primary) {
          inst.nodes[unode[i]].parent = -1;
        }
      }
      // Lower node parent.
      if (lnode[i] >= 0) {
        const int p = tparent[i];
        int lparent;
        if (p < 0) {
          // Primary atom's lower node hangs under its own U node (or is the
          // root if the primary has no free vars — rejected below).
          lparent = unode[i];
        } else {
          // Shared existential variables with the tree parent force us to
          // stay in the lower layer; otherwise attach under our own U node.
          bool shared_existential = false;
          for (uint32_t v : SortedVars(q, i)) {
            if (yset.count(v)) continue;
            const auto pv = SortedVars(q, p);
            if (std::binary_search(pv.begin(), pv.end(), v)) {
              shared_existential = true;
            }
          }
          if (shared_existential || unode[i] < 0) {
            lparent = (lnode[p] >= 0) ? lnode[p] : unode[p];
          } else {
            lparent = unode[i];
          }
        }
        if (lparent < 0) {
          ok = false;
          break;
        }
        inst.nodes[lnode[i]].parent = lparent;
      }
    }
    if (!ok) continue;

    // Exactly one root, and it must be a U node.
    int root = -1;
    for (size_t i = 0; i < inst.nodes.size(); ++i) {
      if (inst.nodes[i].parent < 0) {
        if (root >= 0) {
          ok = false;
          break;
        }
        root = static_cast<int>(i);
      }
    }
    if (!ok || root < 0 || unode[primary] != root) continue;

    FinalizeTopology(&inst);
    ComputeJoinKeys(&inst);
    if (!HasRunningIntersection(inst)) continue;

    // Record the U layer and the pruned (lower-layer) children per U node.
    std::vector<bool> is_u(inst.nodes.size(), false);
    for (size_t i = 0; i < na; ++i) {
      if (unode[i] >= 0) is_u[unode[i]] = true;
    }
    out.u_nodes.clear();
    for (uint32_t idx : inst.order) {
      if (is_u[idx]) out.u_nodes.push_back(idx);
    }
    out.pruned_children.assign(inst.nodes.size(), {});
    for (size_t i = 0; i < inst.nodes.size(); ++i) {
      if (is_u[i]) continue;
      const int p = inst.nodes[i].parent;
      if (p >= 0 && is_u[p]) {
        out.pruned_children[p].push_back(static_cast<uint32_t>(i));
      }
    }
    // All U-node parents must themselves be U nodes (connex subset).
    bool connex = true;
    for (uint32_t u : out.u_nodes) {
      const int p = inst.nodes[u].parent;
      if (p >= 0 && !is_u[p]) connex = false;
    }
    if (!connex) continue;
    return out;
  }

  ANYK_CHECK(false) << "free-connex query " << q.ToString()
                    << " requires a join-tree rearrangement outside the "
                       "supported class";
  __builtin_unreachable();
}

}  // namespace anyk
