#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "poly/domain.hpp"
#include "poly/int_vec.hpp"

namespace nup::sim {

/// Sentinel stream position: "this point is not a stream element".
inline constexpr std::int64_t kNeverMatches =
    std::numeric_limits<std::int64_t>::max();

/// Compiled lexicographic enumeration of a Domain: one entry per non-empty
/// row (fixed outer coordinates), in prefix lex order, with the row's
/// merged disjoint innermost intervals. Built once so no Fourier-Motzkin
/// bound or interval merge ever runs inside a cycle loop. Immutable after
/// compile(), hence safe to share between threads (the design cache hands
/// one compiled program to every concurrent FastSim of the same design).
struct RowProgram {
  struct Row {
    poly::IntVec prefix;                    // outer coords, size dim-1
    std::vector<poly::Interval> intervals;  // sorted, disjoint, non-empty
  };

  std::size_t dim = 0;
  std::vector<Row> rows;

  static RowProgram compile(const poly::Domain& domain);
};

/// O(1) incremental cursor over a RowProgram; visits exactly the point
/// sequence of Domain::LexCursor, but with no per-advance allocation or
/// bound recomputation.
struct RowCursor {
  const RowProgram* prog = nullptr;
  std::size_t row = 0;
  std::size_t ivl = 0;
  bool is_valid = false;
  poly::IntVec pt;  // preallocated, size dim

  void reset(const RowProgram& p) {
    prog = &p;
    row = 0;
    is_valid = !p.rows.empty();
    if (is_valid) {
      pt.resize(p.dim);
      load_row();
    }
  }

  bool valid() const { return is_valid; }
  const poly::IntVec& point() const { return pt; }

  void advance() {
    const RowProgram::Row& r = prog->rows[row];
    if (pt.back() < r.intervals[ivl].hi) {
      ++pt.back();
      return;
    }
    if (++ivl < r.intervals.size()) {
      pt.back() = r.intervals[ivl].lo;
      return;
    }
    if (++row == prog->rows.size()) {
      is_valid = false;
      return;
    }
    load_row();
  }

  /// Number of consecutive points left in the current interval, counting
  /// the current point: the contiguous span a firing burst may retire
  /// without crossing an interval/row boundary. 0 when invalid.
  std::int64_t remaining_in_interval() const {
    if (!is_valid) return 0;
    return prog->rows[row].intervals[ivl].hi - pt.back() + 1;
  }

  /// Advances `n` points; the first n-1 must stay inside the current
  /// interval (n <= remaining_in_interval()), so only the final step can
  /// roll over -- keeping a burst block O(1) in cursor work.
  void advance_by(std::int64_t n) {
    if (n <= 0) return;
    pt.back() += n - 1;
    advance();
  }

 private:
  void load_row() {
    const RowProgram::Row& r = prog->rows[row];
    std::copy(r.prefix.begin(), r.prefix.end(), pt.begin());
    ivl = 0;
    pt.back() = r.intervals.front().lo;
  }
};

/// Forward-only rank finder over a RowProgram: maps lexicographically
/// increasing target points to their 0-based position in the enumeration.
/// This turns a per-cycle grid-point comparison into a single integer
/// equality: a filter matches exactly when its consumed-token count reaches
/// the rank of its output counter's point in the segment stream. Amortized
/// O(1) per query (one pass over the row table across the whole run).
struct MatchScanner {
  const RowProgram* prog = nullptr;
  std::size_t row = 0;
  std::size_t ivl = 0;
  std::int64_t pos = 0;  // stream position of intervals[ivl].lo
  /// After a successful seek: length of the contiguous stream run starting
  /// at the returned rank (the matched interval's tail, target inclusive).
  /// Consecutive output points in the same interval then occupy consecutive
  /// stream ranks, which is what lets a burst match R outputs against R
  /// inputs with one scan. 0 after a kNeverMatches result.
  std::int64_t run = 0;

  void reset(const RowProgram& p) {
    prog = &p;
    row = 0;
    ivl = 0;
    pos = 0;
    run = 0;
  }

  /// Position of `t` in the enumeration; kNeverMatches when `t` is not a
  /// stream element (the filter can then never match -- exactly the
  /// reference backend's behaviour when the needed point is absent from the
  /// stream). Targets must be queried in lexicographically increasing
  /// order.
  std::int64_t seek(const poly::IntVec& t) {
    run = 0;
    const std::size_t dim = prog->dim;
    while (row < prog->rows.size()) {
      const RowProgram::Row& r = prog->rows[row];
      int cmp = 0;
      for (std::size_t d = 0; d + 1 < dim; ++d) {
        if (r.prefix[d] != t[d]) {
          cmp = r.prefix[d] < t[d] ? -1 : 1;
          break;
        }
      }
      if (cmp < 0) {  // stream row before the target's: skip it whole
        for (; ivl < r.intervals.size(); ++ivl) {
          pos += r.intervals[ivl].size();
        }
        ++row;
        ivl = 0;
        continue;
      }
      if (cmp > 0) return kNeverMatches;  // target's row: no stream elements
      const std::int64_t ti = t[dim - 1];
      for (; ivl < r.intervals.size(); ++ivl) {
        const poly::Interval& iv = r.intervals[ivl];
        if (iv.hi < ti) {
          pos += iv.size();
          continue;
        }
        if (iv.lo > ti) return kNeverMatches;  // target in a row gap
        run = iv.hi - ti + 1;
        return pos + (ti - iv.lo);
      }
      ++row;  // target beyond the row's last interval
      ivl = 0;
    }
    return kNeverMatches;
  }
};

}  // namespace nup::sim
