// Range adapter: iterate an enumerator with a range-for loop.
//
//   RankedQuery<TropicalDioid> rq(db, q);
//   for (const ResultRow<TropicalDioid>& row : Results(&rq)) { ... }

#ifndef ANYK_ANYK_RANGE_H_
#define ANYK_ANYK_RANGE_H_

#include <cstddef>
#include <iterator>

#include "anyk/enumerator.h"
#include "anyk/ranked_query.h"

namespace anyk {

template <SelectiveDioid D>
class EnumeratorRange {
 public:
  explicit EnumeratorRange(Enumerator<D>* e) : e_(e) {}

  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = ResultRow<D>;
    using difference_type = std::ptrdiff_t;
    using pointer = const ResultRow<D>*;
    using reference = const ResultRow<D>&;

    Iterator() = default;  // end sentinel
    explicit Iterator(Enumerator<D>* e) : e_(e) { Advance(); }

    reference operator*() const { return row_; }
    pointer operator->() const { return &row_; }

    Iterator& operator++() {
      Advance();
      return *this;
    }
    void operator++(int) { Advance(); }

    bool operator==(const Iterator& other) const {
      return AtEnd() == other.AtEnd();
    }
    bool operator!=(const Iterator& other) const { return !(*this == other); }

   private:
    bool AtEnd() const { return e_ == nullptr; }
    /// Refill the one row in place (its buffers are reused); past the last
    /// answer the iterator becomes the end sentinel.
    void Advance() {
      if (!e_->NextInto(&row_)) e_ = nullptr;
    }

    Enumerator<D>* e_ = nullptr;  // null at the end
    ResultRow<D> row_;
  };

  Iterator begin() { return Iterator(e_); }
  Iterator end() { return Iterator(); }

 private:
  Enumerator<D>* e_;
};

template <SelectiveDioid D>
EnumeratorRange<D> Results(Enumerator<D>* e) {
  return EnumeratorRange<D>(e);
}

template <SelectiveDioid D>
EnumeratorRange<D> Results(RankedQuery<D>* rq) {
  return EnumeratorRange<D>(rq->enumerator());
}

}  // namespace anyk

#endif  // ANYK_ANYK_RANGE_H_
