// Communication traces: the bridge between the three models of the paper.
//
// An algorithm executes once, at full granularity, on the specification model
// M(v). The trace records, for every superstep s, its label i and its degree
// h^s(n, 2^j) under folding onto every machine size 2^j (Section 2). All the
// paper's metrics are then pure functions of the trace:
//
//   S^i(n)        — number of i-supersteps,
//   F^i(n, 2^j)   — cumulative degree of i-supersteps at fold 2^j,
//   H_A(n, p, σ)  — communication complexity, Eq. (1),
//   D_A(n,p,g,ℓ)  — communication time, Eq. (2)  (see bsp/cost.hpp).
//
// Degree convention: h = max over processors of max(#messages sent, #messages
// received), counting only messages whose endpoints fold onto *different*
// processors (messages between VPs folded onto the same processor become
// local memory traffic; cf. the folding discussion before Lemma 3.1).
//
// Because the metric sweeps (wiseness α, fullness γ, certify_optimality, the
// bench tables) evaluate S/F-style sums inside nested fold × σ loops, Trace
// memoizes per-label cumulative tables so every accessor answers in O(1)
// after an O(supersteps · log v) build; see the cache notes on Trace below.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/superstep.hpp"
#include "util/bits.hpp"

namespace nobl {

/// Record of a single executed superstep.
struct SuperstepRecord {
  unsigned label = 0;  ///< i of the i-superstep, 0 <= i < log v
  /// degree[j] = h^s(n, 2^j) for 0 <= j <= log v. degree[0] == 0 always
  /// (a single processor exchanges no messages with itself).
  std::vector<std::uint64_t> degree;
  std::uint64_t messages = 0;  ///< total VP-to-VP messages (incl. dummies)
};

/// Per-fold degree bookkeeping for one executed superstep.
///
/// The engine owns one accumulator per worker lane: counting a message only
/// touches the lane of the VP that sent it, so superstep bodies never contend
/// on the counters. At the closing sync the lanes are folded into lane 0
/// (plain sums — commutative, hence independent of worker scheduling) and
/// finalized into the SuperstepRecord's degree vector (max over processors of
/// max(sent, received) at every fold 2^j). The sequential engine is the
/// one-lane special case, so both engines share one code path and produce
/// bit-identical records by construction.
///
/// Representation: an implicit binary heap over the VP tree. Node
/// (1 << j) + q is cluster q at fold 2^j, so leaf v + r is VP r, node 1 is
/// the whole machine and the parent of any node n is n >> 1. count() charges
/// a message src -> dst in O(1) to three nodes: sent[v + src],
/// recv[v + dst], and split[(v + src) >> bit_width(src ^ dst)] — the
/// endpoints' lowest common ancestor, the one cluster whose two halves the
/// message joins. A cluster P with halves A and B then sends
/// S(P) = S(A) + S(B) - split(P) messages across its boundary (likewise
/// R for receives): the messages that cross between A and B leave a half
/// but stay inside P.
///
/// A superstep closes in one of two modes, both costing O(active VPs +
/// traffic), never O(v):
///
///   Touch mode (the default). count() flags every node it charges and
///   lists it in touched_. finalize_into() walks the touched nodes
///   bottom-up, one level at a time: h(2^j) is the max of max(S, R) over
///   level j, each node's S and R are added into its parent, and each node
///   is zeroed as the walk leaves it. For t touched VPs the walk visits
///   Σ_j t_j <= 2t + t·log(v/t) nodes.
///
///   Range mode (open_range()). In an i-superstep every message stays
///   inside its sender's i-cluster (Section 2), so when the active VPs are
///   a range [first, last), every charged leaf lies in [lo, hi): the range
///   rounded out to i-cluster bounds. When [first, last) covers at least
///   half of [lo, hi), count() skips the flags and finalize_into() sweeps
///   [lo, hi) contiguously, level by level from the leaves up to the
///   i-clusters: each parent n gets S = S(2n) + S(2n+1) - split(n) (same
///   for R) and its children are zeroed on the way up. The sweep visits
///   fewer than 2(hi - lo) <= 4(last - first) nodes. Above level i every
///   S and R is zero, so the sweep stops there.
///
/// The subtraction is modular u64 arithmetic, so every S and R is the exact
/// count modulo 2^64: the value a direct u64 sum holds. The historical
/// fold-per-message implementation is retained as
/// ReferenceDegreeAccumulator (bsp/degree_reference.hpp) and checked
/// against this one by tests/bsp/test_degree_differential.cpp.
class DegreeAccumulator {
 public:
  explicit DegreeAccumulator(unsigned log_v);

  /// Put the open superstep, an i-superstep (i = `label`) whose active VPs
  /// are [first, last), into range mode when the rule in the class comment
  /// allows it; returns whether it did. Call on a freshly finalized
  /// accumulator, before counting; finalize_into() returns it to touch
  /// mode. Requires first <= last <= v, label < log v, and every message
  /// counted before the close to stay inside its sender's label-cluster
  /// (the superstep drivers check all three).
  bool open_range(unsigned label, std::uint64_t first, std::uint64_t last);

  /// Whether the open superstep is in range mode.
  [[nodiscard]] bool ranged() const noexcept { return ranged_; }

  /// Account `count` unit messages src -> dst at every fold that separates
  /// the endpoints. Self-messages only contribute to the message total.
  /// O(1) per call (the per-fold work is deferred to finalize_into). The
  /// message total of crossing messages is summed from the leaves at
  /// finalize, which keeps a store chain off this path.
  void count(std::uint64_t src, std::uint64_t dst, std::uint64_t count) {
    if (src == dst) {
      local_ += count;
      return;
    }
    const std::uint64_t v = v_;  // one load: touch()'s byte stores may alias
    if (!ranged_) {
      touch(v + src);
      touch(v + dst);
    }
    sent_[v + src] += count;
    recv_[v + dst] += count;
    split_[(v + src) >> std::bit_width(src ^ dst)] += count;
  }

  /// Raw node access for drivers that inline the receive and split halves of
  /// count() (CostBackend::VpRefT). For a message src -> dst with
  /// src != dst the caller flags active_data()[n] and note_touched(n) on the
  /// first touch of leaf n = v + dst (in touch mode only), bumps
  /// recv_data()[n] and split_data()[(v + src) >> bit_width(src ^ dst)],
  /// and hands the sender's totals to flush_sent().
  [[nodiscard]] std::uint8_t* active_data() noexcept { return active_.data(); }
  [[nodiscard]] std::uint64_t* recv_data() noexcept { return recv_.data(); }
  [[nodiscard]] std::uint64_t* split_data() noexcept { return split_.data(); }
  void note_touched(std::uint64_t n) { touched_.push_back(n); }

  /// Flush a source VP's send half: `cross` messages sent by `src` to other
  /// VPs and `local` to itself (dummies included in both).
  void flush_sent(std::uint64_t src, std::uint64_t cross,
                  std::uint64_t local) {
    local_ += local;
    if (cross == 0) return;
    if (!ranged_) touch(v_ + src);
    sent_[v_ + src] += cross;
  }

  /// Fold `other` into this accumulator, resetting `other` for reuse.
  /// Walks the nodes touched in `other`, like finalize_into. Both must be in
  /// touch mode.
  void absorb(DegreeAccumulator& other);

  /// Write degree[j] = h(2^j) for every j >= 1 and the message total into
  /// `record`, then reset this accumulator for the next superstep.
  /// `record.degree` must be pre-sized to log_v + 1 with degree[0] == 0.
  void finalize_into(SuperstepRecord& record);

 private:
  void touch(std::uint64_t n) {
    if (!active_[n]) {
      active_[n] = 1;
      touched_.push_back(n);
    }
  }

  /// Range mode's close: sweep [range_lo_, range_hi_) up to level
  /// range_label_ (class comment).
  void sweep_range(SuperstepRecord& record);

  /// Visit the touched nodes bottom-up: visit(n, j) for every node n of
  /// level j, from the leaves (j = log_v) to the root (j = 0), then
  /// level_done(j). Each level lists its nodes once — the parents are
  /// deduplicated through active_ and compacted in place into touched_ —
  /// and the walk leaves touched_ empty and every active_ flag clear.
  template <typename Visit, typename LevelDone>
  void walk_touched(Visit&& visit, LevelDone&& level_done) {
    std::size_t live = touched_.size();
    for (unsigned j = log_v_ + 1; j-- > 0;) {
      std::size_t parents = 0;
      for (std::size_t i = 0; i < live; ++i) {
        const std::uint64_t n = touched_[i];
        active_[n] = 0;
        visit(n, j);
        if (j != 0 && !active_[n >> 1]) {
          active_[n >> 1] = 1;
          touched_[parents++] = n >> 1;
        }
      }
      level_done(j);
      live = parents;
    }
    touched_.clear();
  }

  unsigned log_v_;
  std::uint64_t v_;
  std::uint64_t local_ = 0;  ///< self-traffic of the open superstep
  // Range mode of the open superstep: leaves [range_lo_, range_hi_) and the
  // level of its i-clusters.
  bool ranged_ = false;
  unsigned range_label_ = 0;
  std::uint64_t range_lo_ = 0;
  std::uint64_t range_hi_ = 0;
  // Heap-indexed nodes (class comment): sent_/recv_ over all 2v nodes (the
  // leaves hold counts, internal nodes only the close's partial sums),
  // split_ over the internal nodes 1 .. v - 1. In touch mode active_ flags
  // and touched_ list the touched nodes so finalize/absorb cost scales with
  // the traffic, not with v.
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> recv_;
  std::vector<std::uint64_t> split_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint64_t> touched_;
};

/// The recorded superstep sequence plus memoized cumulative tables.
///
/// Caching: the per-label sums backing S/F/total_F/partial_F/total_S and
/// peak_degree are built lazily on first query and invalidated by append(),
/// so interleaved record/query phases stay correct and a pure query phase
/// pays one O(supersteps · log v) build for O(1) lookups thereafter. The
/// lazy build mutates cache state under const: concurrent first queries
/// from multiple threads are not synchronized (the engine only appends
/// single-threaded at the sync and analyses run after the fact). A trace
/// shared between threads gets build_tables() first; after that every
/// query only reads.
class Trace {
 public:
  Trace() = default;
  explicit Trace(unsigned log_v) : log_v_(log_v) {}

  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }
  [[nodiscard]] std::uint64_t v() const noexcept {
    return std::uint64_t{1} << log_v_;
  }
  [[nodiscard]] std::size_t supersteps() const noexcept {
    return steps_.size();
  }
  [[nodiscard]] const std::vector<SuperstepRecord>& steps() const noexcept {
    return steps_;
  }

  /// Number of representable superstep labels: valid labels are
  /// 0 .. label_bound() - 1 (M(1) still has label 0 for local steps).
  [[nodiscard]] unsigned label_bound() const noexcept {
    return nobl::label_bound(log_v_);
  }

  void append(SuperstepRecord record);

  /// S^i(n): the number of i-supersteps.
  [[nodiscard]] std::uint64_t S(unsigned label) const;

  /// F^i(n, 2^log_p): cumulative degree of i-supersteps at fold 2^log_p.
  [[nodiscard]] std::uint64_t F(unsigned label, unsigned log_p) const;

  /// Σ_{i < log_p} F^i(n, 2^log_p) — the quantity in Lemma 3.1 / Def. 3.2.
  [[nodiscard]] std::uint64_t total_F(unsigned log_p) const;

  /// Σ_{i < label_bound} F^i(n, 2^log_p): cumulative degree at fold 2^log_p
  /// restricted to supersteps with label below label_bound (the mixed-index
  /// sums appearing on the right-hand sides of Lemma 3.1 and Def. 3.2).
  [[nodiscard]] std::uint64_t partial_F(unsigned label_bound,
                                        unsigned log_p) const;

  /// Σ_{i < log_p} S^i(n) — the superstep count relevant at fold 2^log_p
  /// (supersteps with label >= log p become local computation).
  [[nodiscard]] std::uint64_t total_S(unsigned log_p) const;

  /// max over i-supersteps of h(2^log_p): the largest single-superstep degree
  /// of label `label` at the given fold (0 if the label never occurs).
  [[nodiscard]] std::uint64_t peak_degree(unsigned label,
                                          unsigned log_p) const;

  /// Total messages routed (including dummy messages), across all supersteps.
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }

  /// Largest superstep label present.
  [[nodiscard]] unsigned max_label() const noexcept { return max_label_; }

  /// Build the cumulative tables now rather than on the first query, so
  /// that concurrent const queries on this trace only read it.
  void build_tables() const { ensure_cache(); }

 private:
  void check_log_p(unsigned log_p) const {
    if (log_p > log_v_) {
      throw std::out_of_range("Trace: fold larger than specification model");
    }
  }

  /// (Re)build the cumulative tables if invalidated. Const because every
  /// accessor is a pure function of steps_; see the class comment for the
  /// concurrency caveat.
  void ensure_cache() const;

  unsigned log_v_ = 0;
  std::vector<SuperstepRecord> steps_;
  std::uint64_t total_messages_ = 0;  ///< maintained eagerly on append
  unsigned max_label_ = 0;            ///< maintained eagerly on append

  // Memoized tables, all flattened with stride log_v_ + 1 over folds:
  //   label_F_[i][j]  = Σ over i-supersteps of degree[j]
  //   label_peak_[i][j] = max over i-supersteps of degree[j]
  //   label_S_[i]     = S^i
  //   cum_F_[L][j]    = Σ_{i < L} label_F_[i][j]   (L = 0 .. label_bound())
  //   cum_S_[L]       = Σ_{i < L} label_S_[i]
  mutable bool cache_valid_ = false;
  mutable std::vector<std::uint64_t> label_F_;
  mutable std::vector<std::uint64_t> label_peak_;
  mutable std::vector<std::uint64_t> label_S_;
  mutable std::vector<std::uint64_t> cum_F_;
  mutable std::vector<std::uint64_t> cum_S_;
};

}  // namespace nobl
