// Network-oblivious sample-sort (data-dependent splitter pattern).
//
// n keys, one per VP of M(n). The machine is partitioned into s = 2^⌊log n/2⌋
// bucket clusters of c = n/s VPs each, and the run proceeds in eight static
// phases (the superstep count and every label depend only on n — the
// algorithm is *static* in the paper's sense — while the per-superstep
// degrees of the routing phases depend on the key distribution, unlike every
// other kernel in the suite):
//
//   1. sample gather   — VP k·c sends its key to VP k          (1 step, lbl 0)
//   2. sample sort     — bitonic network on the s samples     (labels ≥ log c)
//   3. splitter gather — VPs 1..s-1 send sorted samples to 0   (1 step, lbl 0)
//   4. splitter bcast  — binary tree, s-1 keys per edge         (log n steps)
//   5. bucket route    — key → cluster of its splitter interval (1 step, lbl 0)
//   6. bucket exchange — all-to-all inside every bucket, so each
//                        member learns its keys' ranks    (1 step, lbl log s)
//   7. offset scan     — two-sweep prefix over the s bucket
//                        leaders' bucket sizes                  (2·log s steps)
//   8. placement       — every key to VP (bucket offset + rank) (1 step, lbl 0)
//
// Predicted communication (structural envelope, predict::samplesort):
//
//   H_SS(n, p, σ) ≈ 2n/p + (s-1+σ)·log p + [p > s]·(n/p)·(c-1) + O(σ·log n)
//
// For p ≤ √n the bucket exchange folds inside single processors and the
// route/placement phases dominate: H = Θ(n/p + √n·log p), i.e. optimal up
// to the splitter-broadcast term. At p → n the in-bucket all-to-all
// surfaces — the classic sample-sort base-case blow-up — making this, like
// the bitonic network, an instructive baseline against Columnsort
// (Theorem 4.8), not a replacement. Balance: regular sampling keeps buckets
// near n/s on scrambled inputs, but correctness never depends on it —
// duplicate-heavy inputs simply funnel through fewer buckets (the property
// tests pin exactly that).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/dep.hpp"

namespace nobl {

/// Bucket count s = 2^⌊log n/2⌋ for an n-key run (n a power of two).
[[nodiscard]] inline std::uint64_t samplesort_buckets(std::uint64_t n) {
  return std::uint64_t{1} << (log2_exact(n) / 2);
}

/// The sample-sort program on any Backend with bk.v() == |keys|. The
/// schedule is fully host-mirrored — including the data-dependent routing
/// phases, whose destinations are computed from host key state — so every
/// backend sees the identical superstep/send sequence. Value-generic: the
/// routing indices flow through dep::, so the audit layer's tracked
/// instantiation watches key influence reach the send destinations of
/// phases 5 and 8 (this is the suite's one genuinely data-dependent
/// kernel). Returns the sorted keys.
template <typename Backend, typename V = std::uint64_t>
std::vector<V> samplesort_program(Backend& bk, const std::vector<V>& keys) {
  const std::uint64_t n = keys.size();
  if (n != bk.v()) {
    throw std::invalid_argument("samplesort_program: one key per VP required");
  }
  const unsigned log_n = bk.log_v();

  if (n == 1) {
    bk.superstep(0, [](auto&) {});
    return keys;
  }

  const std::uint64_t s = samplesort_buckets(n);
  const std::uint64_t c = n / s;
  const unsigned log_s = log2_exact(s);

  // Superstep bodies below only *send*, reading host state; every host
  // mirror runs after the closing barrier, so bodies stay VP-private and
  // parallel-engine safe.

  // Phase 1: regular samples (one per bucket cluster) gather into [0, s).
  std::vector<V> samples(s);
  bk.superstep(0, [&](auto& vp) {
    if (vp.id() % c == 0) vp.send(vp.id() / c, keys[vp.id()]);
  });
  for (std::uint64_t k = 0; k < s; ++k) samples[k] = keys[k * c];

  // Phase 2: bitonic sort of the samples inside the cluster [0, s).
  for (unsigned phase = 0; phase < log_s; ++phase) {
    for (unsigned bit = phase + 1; bit-- > 0;) {
      const std::uint64_t mask = std::uint64_t{1} << bit;
      const unsigned label = log_n - 1 - bit;
      bk.superstep_range(label, 0, s, [&](auto& vp) {
        vp.send(vp.id() ^ mask, samples[vp.id()]);
      });
      std::vector<V> next(samples);
      for (std::uint64_t r = 0; r < s; ++r) {
        const std::uint64_t partner = r ^ mask;
        // Final-phase runs are ascending for free: bit log s of r < s is 0.
        const bool ascending =
            (r & (std::uint64_t{1} << (phase + 1))) == 0;
        const bool keep_low = (r & mask) == 0;
        next[r] = (keep_low == ascending)
                      ? dep::min_value(samples[r], samples[partner])
                      : dep::max_value(samples[r], samples[partner]);
      }
      samples.swap(next);
    }
  }

  // Phase 3: sorted samples 1..s-1 (the splitters) gather at VP 0.
  std::vector<V> splitters(samples.begin() + 1, samples.end());
  if (s >= 2) {
    bk.superstep_range(0, 1, s,
                       [&](auto& vp) { vp.send(0, samples[vp.id()]); });
  }

  // Phase 4: binary-tree broadcast of the s-1 splitters to every VP, one
  // message per splitter per tree edge (cf. broadcast.hpp, fanout 2).
  if (s >= 2) {
    for (unsigned round = 0; round < log_n; ++round) {
      const std::uint64_t spacing = n >> round;
      const std::uint64_t child = spacing / 2;
      bk.superstep(round, [&](auto& vp) {
        if (vp.id() % spacing != 0) return;
        for (const V& w : splitters) vp.send(vp.id() + child, w);
      });
    }
  }

  // Phase 5: route every key to its bucket cluster; sender r lands on the
  // cluster slot r mod c, so contention only reflects genuine skew. The
  // destinations are precomputed once, shared by the superstep body and
  // the host mirror. This is where key values first steer routing: the
  // bucket index is a dep:: search over the splitters, so tracked
  // instantiations carry key influence into the send destination.
  std::vector<dep::index_t<V>> route_dst(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    route_dst[r] = dep::upper_bound_index(splitters, keys[r]) * c + r % c;
  }
  std::vector<std::vector<V>> held(n);
  bk.superstep(
      0, [&](auto& vp) { vp.send(route_dst[vp.id()], keys[vp.id()]); });
  for (std::uint64_t r = 0; r < n; ++r) {
    held[dep::index(route_dst[r])].push_back(keys[r]);
  }

  // Phase 6: all-to-all inside every bucket — each member replays its held
  // keys to the other c-1 members, after which everyone knows the bucket.
  // The *set of keys held* was selected by key values (the dep::index
  // reads above), so this superstep is control-dependent on the input.
  bk.superstep(log_s, [&](auto& vp) {
    const std::uint64_t base = vp.id() & ~(c - 1);
    for (const V& key : held[vp.id()]) {
      for (std::uint64_t o = base; o < base + c; ++o) {
        if (o != vp.id()) vp.send(o, key);
      }
    }
  });

  // Host mirror: per-bucket stable ranks. Bucket order = (holder VP, held
  // index) ascending — exactly the engine's delivery order — so equal keys
  // rank deterministically. The ranks are a payload-order statistic, kept
  // in dep:: index space (no value inspection) until phase 8 places keys.
  std::vector<std::uint64_t> bucket_size(s, 0);
  std::vector<std::vector<dep::index_t<V>>> rank(n);  // rank[q][i]: local
  for (std::uint64_t q = 0; q < n; ++q) rank[q].resize(held[q].size());
  for (std::uint64_t b = 0; b < s; ++b) {
    std::vector<V> bucket_keys;
    std::vector<std::pair<std::uint64_t, std::size_t>> origin;
    for (std::uint64_t q = b * c; q < (b + 1) * c; ++q) {
      for (std::size_t i = 0; i < held[q].size(); ++i) {
        bucket_keys.push_back(held[q][i]);
        origin.push_back({q, i});
      }
    }
    const std::vector<dep::index_t<V>> ranks = dep::stable_ranks(bucket_keys);
    bucket_size[b] = bucket_keys.size();
    for (std::size_t g = 0; g < bucket_keys.size(); ++g) {
      const auto [q, i] = origin[g];
      rank[q][i] = ranks[g];
    }
  }

  // Phase 7: exclusive prefix of bucket sizes across the s bucket leaders
  // (the scan tree of scan.hpp, stride c in VP space).
  std::vector<std::uint64_t> offset(s, 0);
  if (s >= 2) {
    std::vector<std::vector<std::uint64_t>> totals(log_s + 1);
    totals[0] = bucket_size;
    for (unsigned t = 0; t < log_s; ++t) {
      const std::uint64_t block = std::uint64_t{1} << t;
      const unsigned label = log_s - (t + 1);
      bk.superstep(label, [&](auto& vp) {
        if (vp.id() % c != 0) return;
        const std::uint64_t k = vp.id() / c;
        if ((k & (2 * block - 1)) == block) {
          vp.send((k - block) * c, totals[t][k]);
        }
      });
      totals[t + 1].resize(s);
      for (std::uint64_t base = 0; base < s; base += 2 * block) {
        totals[t + 1][base] = totals[t][base] + totals[t][base + block];
      }
    }
    for (unsigned t = log_s; t-- > 0;) {
      const std::uint64_t block = std::uint64_t{1} << t;
      const unsigned label = log_s - (t + 1);
      bk.superstep(label, [&](auto& vp) {
        if (vp.id() % c != 0) return;
        const std::uint64_t k = vp.id() / c;
        if ((k & (2 * block - 1)) == 0) {
          vp.send((k + block) * c, offset[k] + totals[t][k]);
        }
      });
      for (std::uint64_t base = 0; base < s; base += 2 * block) {
        offset[base + block] = offset[base] + totals[t][base];
      }
    }
  }

  // Phase 8: every key moves to its final rank (a key-derived destination
  // again: rank is tracked index state).
  std::vector<V> output(n);
  bk.superstep(0, [&](auto& vp) {
    const std::uint64_t b = vp.id() / c;
    for (std::size_t i = 0; i < held[vp.id()].size(); ++i) {
      vp.send(offset[b] + rank[vp.id()][i], held[vp.id()][i]);
    }
  });
  for (std::uint64_t q = 0; q < n; ++q) {
    const std::uint64_t b = q / c;
    for (std::size_t i = 0; i < held[q].size(); ++i) {
      output[dep::index(offset[b] + rank[q][i])] = held[q][i];
    }
  }

  return output;
}

}  // namespace nobl
