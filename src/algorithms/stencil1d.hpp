// Network-oblivious (n,1)-stencil (Section 4.4.1).
//
// Evaluates the n x n space-time grid V(x,t) = f(V(x−1,t−1), V(x,t−1),
// V(x+1,t−1)) (out-of-range neighbors read as 0, per the paper's "whenever
// such nodes exist") on M(n), using the recursive diamond decomposition of
// Figure 1 in the rotated coordinates of stencil_geometry.hpp.
//
// VP β owns the w-band w ∈ [2β, 2β+2) — a diagonal band of the grid — and
// evaluates one leaf diamond (two DAG nodes) per schedule step it is active
// in. Boundary values flow rightward (VP β -> β+1, degree <= 2) at the
// moment of production; the receiver buffers them in local memory until its
// leaf fires (the simulator's host-side grid plays that buffer's role). The
// lexicographic phase order makes every producer fire strictly before its
// consumers, and co-active leaves are mutually independent.
//
// Communication structure (the paper's census, reproduced exactly): for
// every level i there are Π_{j<=i}(2k_j − 1) supersteps of label
// (i−1)·log k — the input supersteps opening each level-i phase, which carry
// the boundary values crossing level-i tile boundaries — plus the leaf
// supersteps (one per full phase vector) where evaluation happens and
// intra-stripe values are forwarded. This yields Theorem 4.11's
// H_1-stencil(n,p,σ) = O(n·4^{√log n}) for σ = O(n/p), i.e. the
// Ω(1/4^{√log n}) optimality factor against Lemma 4.10's Ω(n) bound.
//
// Deviation from the paper (documented in DESIGN.md): a boundary value
// crossing a level-i tile boundary is routed producer -> consumer in one
// message during the consumer's level-i input superstep, instead of being
// re-spread hop-by-hop at every intermediate level. Labels and superstep
// counts are the paper's; each value moves once instead of O(τ) times, so
// measured degrees stay within a constant of the paper's schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "algorithms/stencil_geometry.hpp"
#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/matrix.hpp"

namespace nobl {

/// The stencil update rule: next = f(left, center, right).
using Stencil1Fn = std::function<double(double, double, double)>;

/// The (n,1)-stencil program (diamond-decomposition schedule) on any
/// Backend with bk.v() == |input|. Fully host-mirrored: the grid lives on
/// the host and bodies only evaluate their own leaves and send. Value- and
/// rule-generic: V is double under production (Fn = Stencil1Fn) and the
/// audit layer's tracked wrapper with a generic update lambda under
/// obliviousness analysis. Returns the evaluated space-time grid.
template <typename Backend, typename V = double, typename Fn = Stencil1Fn>
Matrix<V> stencil1_program(Backend& bk, const std::vector<V>& input,
                           const Fn& f, bool wiseness_dummies = true,
                           std::uint64_t k_override = 0) {
  const std::uint64_t n = input.size();
  if (n != bk.v()) {
    throw std::invalid_argument("stencil1_program: one band per VP required");
  }
  const DiamondSchedule sched(n, k_override);

  Matrix<V> grid(n, n, V{});
  for (std::uint64_t x = 0; x < n; ++x) grid(0, x) = input[x];

  auto cell = [&](std::int64_t x, std::int64_t t) -> V {
    if (x < 0 || x >= static_cast<std::int64_t>(n)) return V{};
    return grid(static_cast<std::size_t>(t), static_cast<std::size_t>(x));
  };
  auto eval_node = [&](std::int64_t u, std::int64_t w) {
    const std::int64_t x = sched.node_x(u, w);
    const std::int64_t t = sched.node_t(u, w);
    if (t == 0) return;  // inputs are not recomputed
    grid(static_cast<std::size_t>(t), static_cast<std::size_t>(x)) =
        f(cell(x - 1, t - 1), cell(x, t - 1), cell(x + 1, t - 1));
  };
  auto node_value = [&](std::int64_t u, std::int64_t w) {
    return grid(static_cast<std::size_t>(sched.node_t(u, w)),
                static_cast<std::size_t>(sched.node_x(u, w)));
  };

  // Send the producer leaf (α, β)'s boundary values to VP β+1.
  auto forward_right = [&](auto& vp, std::uint64_t alpha,
                           std::uint64_t beta) {
    const auto a = static_cast<std::int64_t>(alpha);
    const auto b = static_cast<std::int64_t>(beta);
    const bool n1 = sched.node_valid(2 * a, 2 * b + 1);
    const bool n2 = sched.node_valid(2 * a + 1, 2 * b);
    const bool c1 = sched.node_valid(2 * a + 1, 2 * b + 2);
    const bool c2 = sched.node_valid(2 * a, 2 * b + 3);
    if (n1 && (c1 || c2)) vp.send(beta + 1, node_value(2 * a, 2 * b + 1));
    if (n2 && c1) vp.send(beta + 1, node_value(2 * a + 1, 2 * b));
  };

  const unsigned tau = sched.depth();
  std::vector<std::uint64_t> roster;
  sched.for_each_step([&](const DiamondSchedule::Step& step) {
    const unsigned label = sched.level_label(step.level);
    const std::uint64_t seg = n >> label;
    const std::uint64_t dummy_bound = wiseness_dummies ? seg / 2 : 0;

    if (step.level < tau) {
      // Input superstep: ship the boundary values crossing level-i tile
      // boundaries into the stripe this phase evaluates.
      const auto transfers = sched.boundary_transfers(step);
      roster.clear();
      for (std::uint64_t j = 0; j < dummy_bound; ++j) roster.push_back(j);
      for (const auto& t : transfers) {
        if (t.beta >= dummy_bound) roster.push_back(t.beta);
      }
      bk.superstep_sparse(label, roster, [&](auto& vp) {
        const std::uint64_t id = vp.id();
        if (id < dummy_bound) vp.send_dummy(id + seg / 2, 1);
        const auto it = std::lower_bound(
            transfers.begin(), transfers.end(), id,
            [](const auto& t, std::uint64_t b) { return t.beta < b; });
        if (it == transfers.end() || it->beta != id) return;
        for (std::uint64_t alpha = it->alpha_lo; alpha < it->alpha_hi;
             ++alpha) {
          forward_right(vp, alpha, id);
        }
      });
      return;
    }

    // Leaf superstep: evaluate this phase vector's leaves and forward
    // intra-stripe (class-τ) boundary values.
    const auto active = sched.active_leaves(step.prefix);
    roster.clear();
    for (std::uint64_t j = 0; j < dummy_bound; ++j) roster.push_back(j);
    for (const std::uint64_t beta : active.beta) {
      if (beta >= dummy_bound) roster.push_back(beta);
    }
    bk.superstep_sparse(label, roster, [&](auto& vp) {
      const std::uint64_t id = vp.id();
      if (id < dummy_bound) vp.send_dummy(id + seg / 2, 1);
      const auto it =
          std::lower_bound(active.beta.begin(), active.beta.end(), id);
      if (it == active.beta.end() || *it != id) return;
      const std::uint64_t beta = id;
      const std::uint64_t alpha =
          active.alpha[static_cast<std::size_t>(it - active.beta.begin())];
      const auto a = static_cast<std::int64_t>(alpha);
      const auto b = static_cast<std::int64_t>(beta);
      // Evaluate the leaf's nodes (independent of each other).
      if (sched.node_valid(2 * a, 2 * b + 1)) eval_node(2 * a, 2 * b + 1);
      if (sched.node_valid(2 * a + 1, 2 * b)) eval_node(2 * a + 1, 2 * b);
      // Intra-stripe forwarding only: coarser classes ship at their level's
      // input superstep.
      if (beta + 1 < n && sched.pair_class(beta) == tau) {
        forward_right(vp, alpha, beta);
      }
    });
  });

  return grid;
}

/// The natural parameter-unaware baseline, as a program on any Backend with
/// bk.v() == |input| >= 2: VP x owns grid column x and the computation
/// advances one time row per 0-superstep (n−1 supersteps of degree 2).
/// Latency-dominated machines pay Θ(n·σ) here — the contrast the diamond
/// schedule exists to avoid. Returns the evaluated space-time grid.
template <typename Backend>
Matrix<double> stencil1_rowwise_program(Backend& bk,
                                        const std::vector<double>& input,
                                        const Stencil1Fn& f) {
  const std::uint64_t n = input.size();
  if (n != bk.v() || n < 2) {
    throw std::invalid_argument(
        "stencil1_rowwise_program: one column per VP, n >= 2 required");
  }
  Matrix<double> grid(n, n, 0.0);
  for (std::uint64_t x = 0; x < n; ++x) grid(0, x) = input[x];

  for (std::uint64_t t = 1; t < n; ++t) {
    bk.superstep(0, [&](auto& vp) {
      const auto x = static_cast<std::int64_t>(vp.id());
      auto prev = [&](std::int64_t xx) -> double {
        if (xx < 0 || xx >= static_cast<std::int64_t>(n)) return 0.0;
        return grid(t - 1, static_cast<std::size_t>(xx));
      };
      grid(t, vp.id()) = f(prev(x - 1), prev(x), prev(x + 1));
      // Publish the new value to the neighbors that read it next row.
      if (vp.id() > 0) vp.send(vp.id() - 1, grid(t, vp.id()));
      if (vp.id() + 1 < n) vp.send(vp.id() + 1, grid(t, vp.id()));
    });
  }
  return grid;
}

/// Sequential reference evaluation.
inline Matrix<double> stencil1_reference(const std::vector<double>& input,
                                         const Stencil1Fn& f) {
  const std::uint64_t n = input.size();
  Matrix<double> grid(n, n, 0.0);
  for (std::uint64_t x = 0; x < n; ++x) grid(0, x) = input[x];
  for (std::uint64_t t = 1; t < n; ++t) {
    for (std::uint64_t x = 0; x < n; ++x) {
      const double left = x > 0 ? grid(t - 1, x - 1) : 0.0;
      const double right = x + 1 < n ? grid(t - 1, x + 1) : 0.0;
      grid(t, x) = f(left, grid(t - 1, x), right);
    }
  }
  return grid;
}

}  // namespace nobl
