// Query-layer tests: CQ construction/parsing, hypergraphs, GYO acyclicity,
// join-tree topologies and keys, storage primitives, and the prepared
// state's one copy of the input (borrowed relations, pins read in place, key
// tables sized by their keys).

#include <array>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/cq.h"
#include "query/gyo.h"
#include "query/join_tree.h"
#include "storage/database.h"
#include "storage/group_index.h"
#include "util/logging.h"

namespace anyk {
namespace {

TEST(CqTest, FactoriesProduceExpectedShapes) {
  auto p = ConjunctiveQuery::Path(3);
  EXPECT_EQ(p.NumAtoms(), 3u);
  EXPECT_EQ(p.NumVars(), 4u);
  EXPECT_EQ(p.ToString(), "Q(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)");

  auto s = ConjunctiveQuery::Star(3);
  EXPECT_EQ(s.NumVars(), 4u);
  EXPECT_EQ(s.AtomVarIds(0)[0], s.AtomVarIds(2)[0]);  // shared center

  auto c = ConjunctiveQuery::Cycle(4);
  EXPECT_EQ(c.NumVars(), 4u);
  EXPECT_EQ(c.AtomVarIds(3)[1], c.AtomVarIds(0)[0]);  // closes

  auto x = ConjunctiveQuery::Product(2);
  EXPECT_EQ(x.NumVars(), 4u);
}

TEST(CqTest, ParseRoundTrip) {
  auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,z), S(z,y)");
  EXPECT_EQ(q.NumAtoms(), 2u);
  EXPECT_EQ(q.NumVars(), 3u);
  ASSERT_EQ(q.FreeVarIds().size(), 2u);
  EXPECT_EQ(q.VarName(q.FreeVarIds()[0]), "x");
  EXPECT_EQ(q.VarName(q.FreeVarIds()[1]), "y");

  auto full = ConjunctiveQuery::Parse("Q(*) :- R(a,b), S(b,c)");
  EXPECT_TRUE(full.IsFull());

  auto full2 = ConjunctiveQuery::Parse("Q(a,b,c) :- R(a,b), S(b,c)");
  EXPECT_TRUE(full2.IsFull());  // head covers all variables
}

TEST(GyoTest, PathsStarsAcyclic) {
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Path(2)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Path(6)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Star(5)));
  EXPECT_TRUE(IsAcyclic(ConjunctiveQuery::Product(3)));
}

TEST(GyoTest, CyclesCyclic) {
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(3)));
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(4)));
  EXPECT_FALSE(IsAcyclic(ConjunctiveQuery::Cycle(6)));
}

TEST(GyoTest, AlphaAcyclicityOfCoveredCycle) {
  // A triangle plus a big atom covering all three variables IS
  // alpha-acyclic (the classic example distinguishing alpha from gamma).
  ConjunctiveQuery q;
  q.AddAtom("R1", {"a", "b"});
  q.AddAtom("R2", {"b", "c"});
  q.AddAtom("R3", {"c", "a"});
  q.AddAtom("Big", {"a", "b", "c"});
  EXPECT_TRUE(IsAcyclic(q));
}

TEST(GyoTest, JoinTreeParentsAreValid) {
  auto q = ConjunctiveQuery::Path(5);
  auto gyo = GyoReduce(Hypergraph::FromQuery(q));
  ASSERT_TRUE(gyo.acyclic);
  // Exactly one root; every parent index in range; no cycles.
  int roots = 0;
  for (size_t i = 0; i < q.NumAtoms(); ++i) {
    if (gyo.tree.parent[i] < 0) {
      ++roots;
    } else {
      EXPECT_LT(gyo.tree.parent[i], static_cast<int>(q.NumAtoms()));
    }
  }
  EXPECT_EQ(roots, 1);
}

TEST(GyoTest, FreeConnexClassification) {
  // QP2 with head {x1}: free-connex.
  auto q1 = ConjunctiveQuery::Parse("Q(x1) :- R1(x1,x2), R2(x2,x3)");
  EXPECT_TRUE(IsFreeConnexAcyclic(q1));
  // QP2 with head {x1, x3}: acyclic but NOT free-connex (the classic
  // matrix-multiplication-hard projection).
  auto q2 = ConjunctiveQuery::Parse("Q(x1,x3) :- R1(x1,x2), R2(x2,x3)");
  EXPECT_FALSE(IsFreeConnexAcyclic(q2));
  // Example 19 of the paper is free-connex.
  auto q3 = ConjunctiveQuery::Parse(
      "Q(y1,y2,y3,y4) :- R1(y1,y2), R2(y2,y3), R3(z1,y1,y4), R4(z2,y3)");
  EXPECT_TRUE(IsFreeConnexAcyclic(q3));
}

TEST(JoinTreeTest, KeysAreSharedVariables) {
  auto q = ConjunctiveQuery::Path(3);
  Database db;
  for (int i = 1; i <= 3; ++i) {
    db.AddRelation("R" + std::to_string(i), 2).Add({1, 1}, 0.0);
  }
  TDPInstance inst = BuildAcyclicInstance(db, q);
  ASSERT_EQ(inst.nodes.size(), 3u);
  for (const auto& node : inst.nodes) {
    if (node.parent < 0) continue;
    ASSERT_EQ(node.key_cols.size(), node.parent_key_cols.size());
    for (size_t i = 0; i < node.key_cols.size(); ++i) {
      EXPECT_EQ(node.vars[node.key_cols[i]],
                inst.nodes[node.parent].vars[node.parent_key_cols[i]]);
    }
  }
  // Preorder starts at the root and visits parents before children.
  std::vector<bool> seen(inst.nodes.size(), false);
  for (uint32_t u : inst.order) {
    if (inst.nodes[u].parent >= 0) {
      EXPECT_TRUE(seen[inst.nodes[u].parent]);
    }
    seen[u] = true;
  }
}

TEST(StorageTest, RelationBasics) {
  Relation rel("R", 3);
  rel.Add({1, 2, 3}, 0.5);
  rel.Add({4, 5, 6}, 1.5);
  EXPECT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.At(1, 2), 6);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 0.5);
  auto row = rel.Row(1);
  EXPECT_EQ(std::vector<Value>(row.begin(), row.end()),
            (std::vector<Value>{4, 5, 6}));
}

TEST(StorageTest, GroupIndexGroupsByKey) {
  Relation rel("R", 2);
  rel.Add({1, 10}, 0);
  rel.Add({2, 20}, 0);
  rel.Add({1, 30}, 0);
  rel.Add({1, 10}, 0);  // duplicate row
  const uint32_t col0 = 0;
  GroupIndex idx(rel, std::span<const uint32_t>(&col0, 1));
  EXPECT_EQ(idx.NumGroups(), 2u);
  EXPECT_EQ(idx.Lookup({1}).size(), 3u);
  EXPECT_EQ(idx.Lookup({2}).size(), 1u);
  EXPECT_TRUE(idx.Lookup({99}).empty());
}

TEST(StorageTest, GroupIndexCompositeAndEmptyKey) {
  Relation rel("R", 2);
  rel.Add({1, 10}, 0);
  rel.Add({1, 20}, 0);
  rel.Add({2, 10}, 0);
  GroupIndex both(rel, std::array<uint32_t, 2>{0, 1});
  EXPECT_EQ(both.NumGroups(), 3u);
  GroupIndex none(rel, std::span<const uint32_t>{});
  EXPECT_EQ(none.NumGroups(), 1u);
  EXPECT_EQ(none.Lookup(Key{}).size(), 3u);
}

TEST(DatabaseTest, SelfJoinAliasing) {
  Database db;
  db.AddRelation("E", 2).Add({1, 2}, 1.0);
  EXPECT_TRUE(db.Has("E"));
  EXPECT_EQ(db.Get("E").NumRows(), 1u);
  EXPECT_EQ(db.MaxCardinality(), 1u);
}

TEST(DatabaseTest, BorrowReadsTheSourceRelationInPlace) {
  Database source;
  Relation& big = source.AddRelation("B", 2);
  for (Value i = 0; i < 5; ++i) big.Add({i, i}, 1.0);
  Database db;
  db.AddRelation("E", 2).Add({1, 2}, 1.0);
  db.Borrow(big);
  EXPECT_TRUE(db.Has("B"));
  EXPECT_EQ(&db.Get("B"), &big);
  EXPECT_EQ(db.NumRelations(), 2u);
  EXPECT_EQ(db.MaxCardinality(), 5u);
  // A copy of the catalog borrows the same relation.
  const Database copy = db;
  EXPECT_EQ(&copy.Get("B"), &big);

  // A borrowed relation is read-only: it can be neither written through
  // nor replaced under its name.
  auto prev = SetCheckFailureHandler(&ThrowingCheckHandler);
  EXPECT_THROW(db.GetMutable("B"), CheckError);
  EXPECT_THROW(db.AddRelation("B", 2), CheckError);
  EXPECT_THROW(db.Borrow(db.Get("E")), CheckError);
  SetCheckFailureHandler(prev);
  EXPECT_EQ(big.NumRows(), 5u);
}

TEST(JoinTreeTest, PlainAtomNodesReadTheirRelationInPlace) {
  // R1(x1,x2), R2(x2,x3): each node's table is its atom's relation, and it
  // keeps no pin arrays — its pin of row r is (R.Weight(r), r).
  auto q = ConjunctiveQuery::Path(2);
  Database db;
  for (int i = 1; i <= 2; ++i) {
    Relation& rel = db.AddRelation("R" + std::to_string(i), 2);
    for (Value v = 0; v < 4; ++v) rel.Add({v, v}, 0.5 * static_cast<double>(v));
  }
  TDPInstance inst = BuildAcyclicInstance(db, q);
  ASSERT_EQ(inst.nodes.size(), 2u);
  for (const TDPNode& node : inst.nodes) {
    ASSERT_EQ(node.NumPins(), 1u);
    const Relation& rel =
        db.Get(q.atom(node.pinned_atoms[0]).relation);
    EXPECT_EQ(node.table, &rel);
    EXPECT_TRUE(node.pin_weights.empty());
    EXPECT_TRUE(node.pin_rows.empty());
    EXPECT_EQ(node.PinWeights(), rel.Weights().data());
    EXPECT_EQ(node.PinRows(), nullptr);
  }
}

TEST(JoinTreeTest, RepeatedVariableAtomKeepsMaterializedPins) {
  // R(x,x): rows 1 and 3 survive the filter into an owned table, so their
  // pins must name the source rows, not the table's.
  ConjunctiveQuery q;
  q.AddAtom("R", {"x", "x"});
  Database db;
  Relation& rel = db.AddRelation("R", 2);
  rel.Add({1, 2}, 1.0);
  rel.Add({3, 3}, 2.0);
  rel.Add({4, 5}, 3.0);
  rel.Add({6, 6}, 4.0);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  ASSERT_EQ(inst.nodes.size(), 1u);
  const TDPNode& node = inst.nodes[0];
  EXPECT_NE(node.table, &rel);
  ASSERT_EQ(node.NumRows(), 2u);
  EXPECT_EQ(node.pin_rows, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(node.pin_weights, (std::vector<double>{2.0, 4.0}));
  ASSERT_NE(node.PinRows(), nullptr);
  EXPECT_EQ(node.PinRows()[1], 3u);
  EXPECT_EQ(node.PinWeights()[1], 4.0);
}

TEST(StorageTest, KeyTablesAreSizedByTheirKeys) {
  // A 100k-row child relation whose join column takes 1000 values in
  // [0, 1000): its connector map holds 1000 keys, so a table sized by the
  // 100k states (2^18 slots plus a 100k-key pool, about 1.8 MiB) would be
  // about 100 times too large.
  constexpr Value kKeys = 1000;
  constexpr size_t kRows = 100000;
  Database db;
  Relation& parent = db.AddRelation("R1", 2);
  Relation& child = db.AddRelation("R2", 2);
  for (Value v = 0; v < kKeys; ++v) parent.Add({v, v}, 1.0);
  for (size_t r = 0; r < kRows; ++r) {
    const Value v = static_cast<Value>(r);
    child.Add({(v * 7919) % kKeys, v}, 1.0);
  }
  // R1(x1,x2) is the root, R2(x2,x3) its child keyed on x2.
  const auto q = ConjunctiveQuery::Path(2);
  JoinTreeTopology topo;
  topo.parent = {-1, 0};
  topo.root = 0;
  TDPInstance inst = BuildInstanceFromTopology(db, q, topo);
  const StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  ASSERT_EQ(g.stages.size(), 2u);
  ASSERT_EQ(inst.nodes[g.stages[1].node_idx].table, &child);
  ASSERT_EQ(g.stages[1].NumStates(), kRows);
  EXPECT_EQ(g.conn_of_key[1].NumKeys(), static_cast<size_t>(kKeys));
  EXPECT_LE(g.conn_of_key[1].MemoryBytes(), size_t{64} << 10);

  // GroupIndex sizes its table the same way; a sparse key domain (values
  // spread over a range far wider than the rows) keeps the row count.
  const GroupIndex dense(child, std::array<uint32_t, 1>{0});
  EXPECT_EQ(dense.NumGroups(), static_cast<size_t>(kKeys));
  EXPECT_EQ(DistinctKeyBound(child, std::array<uint32_t, 1>{0}, kRows),
            static_cast<size_t>(kKeys));
  EXPECT_EQ(DistinctKeyBound(child, std::array<uint32_t, 1>{1}, kRows),
            kRows);
  EXPECT_EQ(DistinctKeyBound(child, std::array<uint32_t, 2>{0, 1}, kRows),
            kRows);
  EXPECT_EQ(DistinctKeyBound(child, std::span<const uint32_t>{}, kRows), 1u);
}

}  // namespace
}  // namespace anyk
