#include "join/rank_join.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/relation.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace anyk {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

class RankJoin::Operator {
 public:
  virtual ~Operator() = default;
  virtual std::optional<RankJoinTuple> Next() = 0;
};

/// Sorted access to a base relation (ascending tuple weight).
class RankJoin::Scan : public RankJoin::Operator {
 public:
  Scan(const Relation& rel, std::shared_ptr<RankJoinStats> stats)
      : rel_(rel), stats_(std::move(stats)) {
    order_.resize(rel.NumRows());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      return rel.Weight(a) < rel.Weight(b);
    });
  }

  std::optional<RankJoinTuple> Next() override {
    if (pos_ >= order_.size()) return std::nullopt;
    const uint32_t r = order_[pos_++];
    ++stats_->input_tuples_pulled;
    RankJoinTuple t;
    t.weight = rel_.Weight(r);
    t.values.resize(rel_.arity());
    rel_.Row(r).CopyInto(t.values.data());
    return t;
  }

 private:
  const Relation& rel_;
  std::shared_ptr<RankJoinStats> stats_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
};

/// Binary HRJN: joins the last value of the left input with the first value
/// of the right input; emits in ascending total weight.
class RankJoin::Hrjn : public RankJoin::Operator {
 public:
  Hrjn(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
       std::shared_ptr<RankJoinStats> stats)
      : left_(std::move(left)),
        right_(std::move(right)),
        stats_(std::move(stats)) {}

  std::optional<RankJoinTuple> Next() override {
    while (true) {
      const double bound = FutureBound();
      if (!buffer_.Empty() && buffer_.Min().weight <= bound) {
        return buffer_.PopMin();
      }
      if (left_done_ && right_done_) {
        if (!buffer_.Empty()) return buffer_.PopMin();
        return std::nullopt;
      }
      Pull();
    }
  }

 private:
  struct ByWeight {
    bool operator()(const RankJoinTuple& a, const RankJoinTuple& b) const {
      return a.weight < b.weight;
    }
  };

  // Lower bound on the weight of any result not yet in the buffer: it must
  // involve a not-yet-pulled tuple on at least one side.
  double FutureBound() const {
    const double future_l = left_done_ ? kInf : last_l_;
    const double future_r = right_done_ ? kInf : last_r_;
    const double any_l = std::min(first_l_, future_l);
    const double any_r = std::min(first_r_, future_r);
    return std::min(future_l + any_r, any_l + future_r);
  }

  void Pull() {
    const bool from_left =
        right_done_ || (!left_done_ && pull_left_next_);
    pull_left_next_ = !pull_left_next_;
    if (from_left) {
      auto t = left_->Next();
      if (!t) {
        left_done_ = true;
        return;
      }
      if (first_l_ == kInf) first_l_ = t->weight;
      last_l_ = t->weight;
      const Value key = t->values.back();
      for (const RankJoinTuple& r : seen_r_[key]) Join(*t, r);
      seen_l_[key].push_back(std::move(*t));
    } else {
      auto t = right_->Next();
      if (!t) {
        right_done_ = true;
        return;
      }
      if (first_r_ == kInf) first_r_ = t->weight;
      last_r_ = t->weight;
      const Value key = t->values.front();
      for (const RankJoinTuple& l : seen_l_[key]) Join(l, *t);
      seen_r_[key].push_back(std::move(*t));
    }
  }

  void Join(const RankJoinTuple& l, const RankJoinTuple& r) {
    ++stats_->join_combinations;
    RankJoinTuple out;
    out.weight = l.weight + r.weight;
    out.values = l.values;
    out.values.insert(out.values.end(), r.values.begin() + 1, r.values.end());
    buffer_.Push(std::move(out));
    stats_->buffered_peak = std::max(stats_->buffered_peak, buffer_.Size());
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::shared_ptr<RankJoinStats> stats_;
  std::unordered_map<Value, std::vector<RankJoinTuple>> seen_l_, seen_r_;
  // Arity 2: the heap layout decides the pop order of equal-weight results.
  DAryHeap<RankJoinTuple, ByWeight, std::allocator<RankJoinTuple>, 2> buffer_;
  bool left_done_ = false, right_done_ = false;
  bool pull_left_next_ = true;
  double first_l_ = kInf, first_r_ = kInf;
  double last_l_ = -kInf, last_r_ = -kInf;
};

RankJoin::RankJoin(const Database& db, const ConjunctiveQuery& q)
    : stats_(std::make_shared<RankJoinStats>()) {
  const size_t l = q.NumAtoms();
  ANYK_CHECK_GE(l, 1u);
  for (size_t i = 0; i < l; ++i) {
    ANYK_CHECK_EQ(q.AtomVarIds(i).size(), 2u) << "RankJoin needs binary atoms";
    if (i + 1 < l) {
      ANYK_CHECK_EQ(q.AtomVarIds(i)[1], q.AtomVarIds(i + 1)[0])
          << "RankJoin expects a path query";
    }
  }
  root_ = std::make_unique<Scan>(db.Get(q.atom(0).relation), stats_);
  for (size_t i = 1; i < l; ++i) {
    root_ = std::make_unique<Hrjn>(
        std::move(root_),
        std::make_unique<Scan>(db.Get(q.atom(i).relation), stats_), stats_);
  }
}

RankJoin::~RankJoin() = default;

std::optional<RankJoinTuple> RankJoin::Next() { return root_->Next(); }

const RankJoinStats& RankJoin::stats() const { return *stats_; }

}  // namespace anyk
