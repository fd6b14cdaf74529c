// A fully routed ascend–descend execution (Section 5) — real messages, not
// just the Lemma 5.1 cost transform.
//
// Given an arbitrary h-relation on M(p) (the traffic of one i-superstep of
// some algorithm), this module *executes* the protocol:
//
//   ascend, k = log p − 1 .. i+1 : within each k-cluster, messages destined
//     outside the cluster are spread evenly over its processors;
//   descend, k = i .. log p − 1 : within each k-cluster, messages are moved
//     into the (k+1)-subcluster containing their destination, again evenly.
//
// The "evenly" of each iteration is realized the way a real BSP program
// would: processors first run a prefix computation over their message
// counts (2·(log p − k) supersteps of degree <= 2, via the tree scan of
// algorithms/primitives.hpp logic), then forward each message to the slot
// its prefix rank assigns. Every message physically hops through the
// machine; delivery is verified against the original relation.
//
// This complements dbsp/ascend_descend.hpp (the closed-form trace
// transform): the transform is what Theorem 5.3's statement accounts; this
// executor demonstrates the protocol is implementable with those costs, and
// its measured trace is compared against the transform in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {

/// One unit message of the routed relation.
template <typename T>
struct RoutedMsg {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  T payload{};
};

template <typename T>
struct RoutedResult {
  /// Messages as delivered: delivered[q] = payloads that reached VP q,
  /// in deterministic order.
  std::vector<std::vector<RoutedMsg<T>>> delivered;
  Trace trace;
};

/// Execute the ascend–descend protocol for the given label-`i` relation on
/// M(p). Each (src, dst) must satisfy the i-superstep containment rule.
template <typename T>
RoutedResult<T> execute_ascend_descend(std::uint64_t p, unsigned label_i,
                                       std::vector<RoutedMsg<T>> relation,
                                       ExecutionPolicy policy = {}) {
  if (!is_pow2(p) || p < 2) {
    throw std::invalid_argument("execute_ascend_descend: p must be a power "
                                "of two >= 2");
  }
  Machine<RoutedMsg<T>> machine(p, policy);
  const unsigned log_p = machine.log_v();
  if (label_i >= log_p) {
    throw std::invalid_argument("execute_ascend_descend: label out of range");
  }
  for (const auto& m : relation) {
    if (m.src >= p || m.dst >= p) {
      throw std::invalid_argument("execute_ascend_descend: endpoint range");
    }
    if (shared_msb(m.src, m.dst, log_p) < label_i) {
      throw ClusterViolation("execute_ascend_descend: relation violates the "
                             "i-superstep containment rule");
    }
  }

  // Host mirror of each processor's buffer of in-flight messages. The
  // machine's supersteps move the same messages physically; the mirror is
  // the receivers' local memory (same convention as everywhere else).
  std::vector<std::vector<RoutedMsg<T>>> buffer(p);
  for (const auto& m : relation) buffer[m.src].push_back(m);

  // Tree prefix over per-processor counts within each 2^width-cluster:
  // 2·width supersteps of degree 1, labels descending into the cluster.
  // Returns the exclusive prefix of `count` in cluster order.
  auto prefix_in_clusters = [&](std::uint64_t cluster,
                                const std::vector<std::uint64_t>& count) {
    std::vector<std::uint64_t> pref(p, 0);
    if (cluster < 2) return pref;
    const unsigned log_cluster = log2_exact(cluster);
    std::vector<std::vector<std::uint64_t>> totals(log_cluster + 1);
    totals[0] = count;
    for (unsigned t = 0; t < log_cluster; ++t) {
      const std::uint64_t block = std::uint64_t{1} << t;
      machine.superstep(log_p - (t + 1), [&](Vp<RoutedMsg<T>>& vp) {
        if ((vp.id() & (2 * block - 1)) == block) {
          vp.send(vp.id() - block, RoutedMsg<T>{vp.id(), vp.id() - block, T{}});
        }
      });
      totals[t + 1].assign(p, 0);
      for (std::uint64_t base = 0; base < p; base += 2 * block) {
        totals[t + 1][base] = totals[t][base] + totals[t][base + block];
      }
    }
    for (unsigned t = log_cluster; t-- > 0;) {
      const std::uint64_t block = std::uint64_t{1} << t;
      machine.superstep(log_p - (t + 1), [&](Vp<RoutedMsg<T>>& vp) {
        if ((vp.id() & (2 * block - 1)) == 0) {
          vp.send(vp.id() + block, RoutedMsg<T>{vp.id(), vp.id() + block, T{}});
        }
      });
      for (std::uint64_t base = 0; base < p; base += 2 * block) {
        pref[base + block] = pref[base] + totals[t][base];
      }
    }
    return pref;
  };

  // Redistribute the messages selected by `pick` evenly over the
  // destination range chosen by `target_base`/`target_size` (both functions
  // of the message and its holder), using a prefix over counts for slotting.
  // One data superstep of label `label`; message rank r goes to processor
  // target_base + (r mod target_size).
  auto balance = [&](unsigned label, std::uint64_t cluster, auto pick,
                     auto target_base) {
    // Count selected messages per processor.
    std::vector<std::uint64_t> count(p, 0);
    for (std::uint64_t q = 0; q < p; ++q) {
      for (const auto& m : buffer[q]) {
        if (pick(q, m)) ++count[q];
      }
    }
    const auto pref = prefix_in_clusters(cluster, count);
    machine.superstep(label, [&](Vp<RoutedMsg<T>>& vp) {
      const std::uint64_t q = vp.id();
      std::uint64_t rank = pref[q];
      std::vector<RoutedMsg<T>> keep;
      keep.reserve(buffer[q].size());
      for (auto& m : buffer[q]) {
        if (!pick(q, m)) {
          keep.push_back(m);
          continue;
        }
        const auto [base, size] = target_base(q, m);
        const std::uint64_t slot = base + rank % size;
        ++rank;
        vp.send(slot, m);
      }
      buffer[q] = std::move(keep);
    });
    // The receivers' buffers are the messages the machine just delivered —
    // read them back from the inboxes, whose (sender index, send order)
    // merge is the protocol's arrival order under either engine.
    for (std::uint64_t q = 0; q < p; ++q) {
      for (const auto& delivered : machine.inbox(q)) {
        buffer[q].push_back(delivered.data);
      }
    }
  };

  // ---- Ascend: spread outbound messages over growing clusters. ----------
  for (unsigned k = log_p; k-- > label_i + 1;) {
    const std::uint64_t cluster = p >> k;  // processors per k-cluster
    balance(
        k, cluster,
        [&](std::uint64_t q, const RoutedMsg<T>& m) {
          // Destined outside the holder's k-cluster?
          return shared_msb(q, m.dst, log_p) < k;
        },
        [&](std::uint64_t q, const RoutedMsg<T>&) {
          const std::uint64_t base = q & ~(cluster - 1);
          return std::pair<std::uint64_t, std::uint64_t>(base, cluster);
        });
  }

  // ---- Descend: gather toward the destination subclusters. --------------
  // A k-cluster splits into exactly two (k+1)-clusters; balancing each
  // destination side with its own prefix keeps the receiver load the exact
  // ceil(count/size) the lemma's proof uses (a shared round-robin rank
  // could alias onto one slot).
  for (unsigned k = label_i; k < log_p; ++k) {
    const std::uint64_t sub = p >> (k + 1);  // processors per (k+1)-cluster
    for (const std::uint64_t side : {std::uint64_t{0}, std::uint64_t{1}}) {
      balance(
          k, p >> k,
          [&](std::uint64_t q, const RoutedMsg<T>& m) {
            // In the destination's k-cluster but not yet its (k+1)-cluster,
            // and destined to this iteration's side.
            return shared_msb(q, m.dst, log_p) == k &&
                   ((m.dst >> (log_p - (k + 1))) & 1) == side;
          },
          [&](std::uint64_t, const RoutedMsg<T>& m) {
            const std::uint64_t base = m.dst & ~(sub - 1);
            return std::pair<std::uint64_t, std::uint64_t>(base, sub);
          });
    }
  }

  // Final hop: everything is in the destination's (log p)-cluster — i.e. at
  // the destination itself. (sub == 1 in the last descend iteration.)
  RoutedResult<T> result;
  result.delivered.resize(p);
  for (std::uint64_t q = 0; q < p; ++q) {
    for (auto& m : buffer[q]) {
      if (m.dst != q) {
        throw std::logic_error("execute_ascend_descend: routing failed");
      }
      result.delivered[q].push_back(std::move(m));
    }
    std::sort(result.delivered[q].begin(), result.delivered[q].end(),
              [](const RoutedMsg<T>& a, const RoutedMsg<T>& b) {
                return a.src < b.src;
              });
  }
  result.trace = std::move(machine).take_trace();
  return result;
}

}  // namespace nobl
