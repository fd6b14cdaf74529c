// Space-efficient network-oblivious matrix multiplication (Section 4.1.1).
//
// Same problem as algorithms/matmul.hpp, but with O(1) memory blow-up per VP:
// the VPs are divided into FOUR segments which solve the eight (n/4)-MM
// subproblems in TWO sequential rounds —
//
//   round 1:  A00·B00,  A01·B11,  A11·B10,  A10·B01
//   round 2:  A01·B10,  A00·B01,  A10·B00,  A11·B11
//
// (one product per segment per round; every A- and B-quadrant is used exactly
// once per round, so nothing is ever replicated). Each VP holds exactly one
// entry of A', one of B', and one accumulator per recursion level on its
// path. The recursion executes Θ(2^i) 2i-supersteps of degree Θ(1) at level
// i, giving H_MM-space(n,p,σ) = O(n/√p + σ·√p) — the §4.1.1 bound, which is
// Θ(1)-optimal w.r.t. the class C' of constant-memory-blow-up algorithms
// (Irony et al. 2004).
//
// Program form: the per-VP entry/accumulator stacks are host-mirrored.
// Superstep bodies are pure readers — they only emit sends — and the host
// replays the same routing after each barrier in the simulator's delivery
// order (ascending sender, send order), applying the historical drain
// semantics (A/B overwrite their level slot, products sum into their level
// accumulator). The schedule is therefore identical under every backend.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/matrix.hpp"

namespace nobl {

namespace mms_detail {

enum class Tag : std::uint8_t { A, B, Product };

template <typename T>
struct Msg {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  std::uint8_t level = 0;  ///< recursion level this entry/contribution targets
  Tag tag = Tag::A;
  T value{};
};

// (h, l, k) triples per sub-segment and round: segment q computes
// A_{h,l} · B_{l,k} in that round.
struct Triple {
  unsigned h, l, k;
};
inline constexpr std::array<std::array<Triple, 4>, 2> kRounds{{
    {{{0, 0, 0}, {0, 1, 1}, {1, 1, 0}, {1, 0, 1}}},
    {{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}, {1, 1, 1}}},
}};

}  // namespace mms_detail

/// The message payload matmul_space_program routes: simulate it with
/// run_program<MatmulSpaceMsg<T>>.
template <typename T>
using MatmulSpaceMsg = mms_detail::Msg<T>;

/// Per-VP storage of the space-efficient recursion: the O(log n)-entry stack
/// of the paper's analysis (constant storage per stack entry).
[[nodiscard]] inline std::size_t matmul_space_peak_entries(std::uint64_t n) {
  return 3 * (log2_exact(n) / 2 + 1);
}

/// The space-efficient n-MM program on any Backend with bk.v() == m².
/// Returns the product (host-mirrored, valid under every backend).
template <typename T, typename Backend>
Matrix<T> matmul_space_program(Backend& bk, const Matrix<T>& a,
                               const Matrix<T>& b,
                               bool wiseness_dummies = true) {
  using M = mms_detail::Msg<T>;
  using mms_detail::kRounds;
  using mms_detail::Tag;

  const std::uint64_t m = a.rows();
  if (a.cols() != m || b.rows() != m || b.cols() != m || m * m != bk.v()) {
    throw std::invalid_argument(
        "matmul_space_program: matrices must be square with m * m = bk.v()");
  }
  const std::uint64_t n = m * m;
  const unsigned levels = log2_exact(n) / 2;  // segment size n/4^i

  Matrix<T> c(m, m);
  if (n == 1) {
    c(0, 0) = T(a(0, 0) * b(0, 0));
    bk.superstep(0, [](auto&) {});
    return c;
  }

  struct Held {
    std::uint32_t i = 0, j = 0;
    T value{};
  };
  struct Acc {
    bool set = false;
    std::uint32_t i = 0, j = 0;
    T value{};
  };
  struct VpState {
    // Per-level stack of held entries and accumulators: the sub-recursion of
    // one round must not clobber the entries the parent still owes to its
    // second round.
    std::vector<Held> a, b;
    std::vector<Acc> acc;
  };
  std::vector<VpState> state(n);
  for (auto& st : state) {
    st.a.resize(levels + 1);
    st.b.resize(levels + 1);
    st.acc.resize(levels + 1);
  }

  // Initial layout, mirrored before the first superstep.
  for (std::uint64_t r = 0; r < n; ++r) {
    const auto i = static_cast<std::uint32_t>(r / m);
    const auto j = static_cast<std::uint32_t>(r % m);
    state[r].a[0] = Held{i, j, a(i, j)};
    state[r].b[0] = Held{i, j, b(i, j)};
  }

  // Host mirror of the superstep in flight: messages staged in the sync's
  // delivery order, applied with the historical drain semantics.
  struct Pending {
    std::uint64_t dst;
    M msg;
  };
  std::vector<Pending> pending;
  auto apply_pending = [&]() {
    for (const Pending& p : pending) {
      VpState& st = state[p.dst];
      switch (p.msg.tag) {
        case Tag::A:
          st.a[p.msg.level] = Held{p.msg.i, p.msg.j, p.msg.value};
          break;
        case Tag::B:
          st.b[p.msg.level] = Held{p.msg.i, p.msg.j, p.msg.value};
          break;
        case Tag::Product: {
          Acc& acc = st.acc[p.msg.level];
          if (acc.set) {
            acc.value = T(acc.value + p.msg.value);
          } else {
            acc = Acc{true, p.msg.i, p.msg.j, p.msg.value};
          }
          break;
        }
      }
    }
    pending.clear();
  };

  auto add_dummies = [&](auto& vp, std::uint64_t seg) {
    if (!wiseness_dummies || seg < 2) return;
    if (vp.id() < seg / 2) vp.send_dummy(vp.id() + seg / 2, 1);
  };

  // Recursive solver over ALL segments of the current level simultaneously.
  auto solve = [&](auto&& self, unsigned level) -> void {
    const std::uint64_t seg = n >> (2 * level);
    const std::uint64_t dim = m >> level;
    const std::uint64_t sub = seg / 4;
    const std::uint64_t half = dim / 2;
    const unsigned label = 2 * level;

    for (unsigned round = 0; round < 2; ++round) {
      // Distribute: route A'/B' entries to the sub-segment that multiplies
      // their quadrant in this round. One routing function serves the
      // superstep body and the host mirror.
      auto for_each_distribute = [&](std::uint64_t id, auto&& emit) {
        const VpState& st = state[id];
        const std::uint64_t base = id & ~(seg - 1);
        const auto& triples = kRounds[round];
        const auto child = static_cast<std::uint8_t>(level + 1);
        // A entry (i, j) lives in quadrant (h = i/half, l = j/half).
        {
          const Held& ha = st.a[level];
          const unsigned h = static_cast<unsigned>(ha.i / half);
          const unsigned l = static_cast<unsigned>(ha.j / half);
          for (std::uint64_t q = 0; q < 4; ++q) {
            if (triples[q].h == h && triples[q].l == l) {
              const auto i2 = static_cast<std::uint32_t>(ha.i % half);
              const auto j2 = static_cast<std::uint32_t>(ha.j % half);
              emit(base + q * sub + std::uint64_t{i2} * half + j2,
                   M{i2, j2, child, Tag::A, ha.value});
            }
          }
        }
        // B entry (i, j) lives in quadrant (l = i/half, k = j/half).
        {
          const Held& hb = st.b[level];
          const unsigned l = static_cast<unsigned>(hb.i / half);
          const unsigned k = static_cast<unsigned>(hb.j / half);
          for (std::uint64_t q = 0; q < 4; ++q) {
            if (triples[q].l == l && triples[q].k == k) {
              const auto i2 = static_cast<std::uint32_t>(hb.i % half);
              const auto j2 = static_cast<std::uint32_t>(hb.j % half);
              emit(base + q * sub + std::uint64_t{i2} * half + j2,
                   M{i2, j2, child, Tag::B, hb.value});
            }
          }
        }
      };
      bk.superstep(label, [&](auto& vp) {
        for_each_distribute(
            vp.id(), [&](std::uint64_t dst, M msg) { vp.send(dst, msg); });
        add_dummies(vp, seg);
      });
      for (std::uint64_t r = 0; r < n; ++r) {
        for_each_distribute(r, [&](std::uint64_t dst, M msg) {
          pending.push_back({dst, msg});
        });
      }
      apply_pending();

      if (sub > 1) self(self, level + 1);

      // Base multiplication: 1x1 product of the delivered entries (the
      // historical in-body compute, mirrored before the collect superstep).
      if (sub == 1) {
        for (VpState& st : state) {
          st.acc[level + 1] = Acc{
              true, 0, 0, T(st.a[level + 1].value * st.b[level + 1].value)};
        }
      }

      // Collect: the sub-product P_q (complete in acc[level+1]) is forwarded
      // to the owner of the parent C entry.
      auto for_each_collect = [&](std::uint64_t id, auto&& emit) {
        const Acc& sub_acc = state[id].acc[level + 1];
        if (!sub_acc.set) return;
        const std::uint64_t base = id & ~(seg - 1);
        const std::uint64_t q = (id - base) / sub;
        const auto& t = kRounds[round][q];
        const std::uint64_t pi = sub_acc.i + t.h * half;
        const std::uint64_t pj = sub_acc.j + t.k * half;
        emit(base + pi * dim + pj,
             M{static_cast<std::uint32_t>(pi), static_cast<std::uint32_t>(pj),
               static_cast<std::uint8_t>(level), Tag::Product, sub_acc.value});
      };
      bk.superstep(label, [&](auto& vp) {
        for_each_collect(vp.id(),
                         [&](std::uint64_t dst, M msg) { vp.send(dst, msg); });
        add_dummies(vp, seg);
      });
      for (std::uint64_t r = 0; r < n; ++r) {
        for_each_collect(r, [&](std::uint64_t dst, M msg) {
          pending.push_back({dst, msg});
        });
      }
      apply_pending();
      // The forwarded sub-accumulator is spent (the historical in-body
      // reset, applied after the barrier).
      for (VpState& st : state) st.acc[level + 1] = Acc{};
    }
  };

  solve(solve, 0);
  // Final drain barrier: the level-0 round-2 contributions completed acc[0]
  // at the mirror; the closing superstep carries no traffic.
  bk.superstep(0, [](auto&) {});
  for (const VpState& st : state) {
    if (st.acc[0].set) c(st.acc[0].i, st.acc[0].j) = st.acc[0].value;
  }
  return c;
}

}  // namespace nobl
