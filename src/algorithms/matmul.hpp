// Network-oblivious matrix multiplication (Section 4.1).
//
// The n-MM problem multiplies two √n x √n matrices over a semiring. The
// algorithm is specified on M(n): one entry of A, B and C per VP, row-major.
// Recursion (all segments advance in lockstep, which realizes the paper's
// parallel recursive calls with a single host-side loop over levels):
//
//   1. distribute: the segment's VPs split into eight sub-segments S_hkl;
//      quadrant A_hl is replicated to S_{h,0,l} and S_{h,1,l}, quadrant B_lk
//      to S_{0,k,l} and S_{1,k,l}, entries spread evenly (each VP's holding
//      doubles: the Θ(n^{1/3}) memory blow-up of the analysis);
//   2. recurse: S_hkl computes M_hkl = A_hl · B_lk;
//   3. combine: the owner of C[i,j] receives M_hk0[i',j'] and M_hk1[i',j']
//      and adds them.
//
// Level-λ supersteps act within segments of n/8^λ VPs and therefore carry
// label 3λ, with per-VP degree O(2^λ) — matching Theorem 4.2's recurrence
// H_MM(n,p,σ) = H_MM(n/4, p/8, σ) + O(n/p + σ).
//
// Generality: the paper assumes n a power of 2^3 and glosses integrality; we
// support any power-of-two matrix side m (n = m²). When log n is not a
// multiple of 3 the recursion bottoms out on segments of 2 or 4 VPs; a
// gather superstep of degree O(2^λ) hands the remaining subproblem to the
// segment leader, preserving every bound (see DESIGN.md).
//
// Wiseness: as in the paper, each superstep adds 2^λ dummy messages from VP j
// to VP j+S/2 (S the active segment size) for the first half-segment, making
// the algorithm (Θ(1), n)-wise without touching its state.
//
// Program form: every VP's holdings are host-mirrored. Superstep bodies are
// pure readers of that state — they only emit sends — and the host replays
// the same routing after each barrier (ascending sender, send order: exactly
// the simulator's delivery order), so the schedule is identical under every
// backend. Under a delivering backend the product is additionally extracted
// from the routed payloads themselves, keeping the simulator honest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "util/bits.hpp"
#include "util/matrix.hpp"

namespace nobl {

namespace mm_detail {

template <typename T>
struct Entry {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  T value{};
};

enum class Tag : std::uint8_t { A, B, Product };

template <typename T>
struct Msg {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  Tag tag = Tag::A;
  T value{};
};

/// Output of the matmul program: the product (payload-extracted under a
/// delivering backend, host-mirrored otherwise) plus the peak number of
/// matrix entries resident at any VP.
template <typename T>
struct ProgramResult {
  Matrix<T> c;
  std::size_t peak_vp_entries = 0;

  friend bool operator==(const ProgramResult&,
                         const ProgramResult&) = default;
};

}  // namespace mm_detail

/// The message payload matmul_program routes: simulate it with
/// run_program<MatmulMsg<T>>.
template <typename T>
using MatmulMsg = mm_detail::Msg<T>;

/// The n-MM program on any Backend with bk.v() == m².
template <typename T, typename Backend>
mm_detail::ProgramResult<T> matmul_program(Backend& bk, const Matrix<T>& a,
                                           const Matrix<T>& b,
                                           bool wiseness_dummies = true) {
  using E = mm_detail::Entry<T>;
  using M = mm_detail::Msg<T>;
  using mm_detail::Tag;

  const std::uint64_t m = a.rows();
  if (a.cols() != m || b.rows() != m || b.cols() != m || m * m != bk.v()) {
    throw std::invalid_argument(
        "matmul_program: matrices must be square with m * m = bk.v()");
  }
  const std::uint64_t n = m * m;  // input size == number of VPs
  const unsigned log_n = bk.log_v();
  // Deepest level with segments of >= 8 VPs fully split.
  const unsigned max_level = log_n / 3;
  const std::uint64_t tail_seg = n >> (3 * max_level);  // 1, 2 or 4

  struct VpState {
    std::vector<E> a, b, c;
  };
  std::vector<VpState> state(n);
  std::size_t peak_entries = 0;
  auto audit = [&](const VpState& st) {
    peak_entries =
        std::max(peak_entries, st.a.size() + st.b.size() + st.c.size());
  };
  auto audit_all = [&]() {
    for (const VpState& st : state) audit(st);
  };

  auto dims_at = [&](unsigned level) { return m >> level; };
  auto seg_at = [&](unsigned level) { return n >> (3 * level); };
  auto per_vp_at = [&](unsigned level) {
    // Entries of one operand per VP at this level: n_level / seg_level.
    return (dims_at(level) * dims_at(level)) / seg_at(level);
  };

  auto add_dummies = [&](auto& vp, std::uint64_t seg, std::uint64_t count) {
    if (!wiseness_dummies) return;
    if (seg < 2) return;
    if (vp.id() < seg / 2) vp.send_dummy(vp.id() + seg / 2, count);
  };

  // Initial layout, mirrored before the first superstep: VP i·m + j holds
  // A[i,j] and B[i,j].
  for (std::uint64_t r = 0; r < n; ++r) {
    const auto i = static_cast<std::uint32_t>(r / m);
    const auto j = static_cast<std::uint32_t>(r % m);
    state[r].a = {E{i, j, a(i, j)}};
    state[r].b = {E{i, j, b(i, j)}};
  }
  audit_all();

  // ---- Distribute phases: level λ splits segments of seg(λ) into eight. ----
  for (unsigned level = 0; level < max_level; ++level) {
    const std::uint64_t seg = seg_at(level);
    const std::uint64_t sub = seg / 8;
    const std::uint64_t dim = dims_at(level);
    const std::uint64_t half = dim / 2;
    const std::uint64_t child_per_vp = per_vp_at(level + 1);
    const unsigned label = 3 * level;

    // A[i,j] lives in quadrant (h=i/half, l=j/half) and is needed by
    // S_{h,k,l} for k = 0,1; B[i,j] in quadrant (l=i/half, k=j/half) is
    // needed by S_{h,k,l} for h = 0,1. Sub-segment index is h·4 + k·2 + l.
    // One routing function serves the superstep body and the host mirror.
    auto for_each_send = [&](std::uint64_t id, auto&& emit) {
      const VpState& st = state[id];
      const std::uint64_t base = id & ~(seg - 1);
      for (const E& e : st.a) {
        const std::uint64_t h = e.i / half;
        const std::uint64_t l = e.j / half;
        const auto i2 = static_cast<std::uint32_t>(e.i % half);
        const auto j2 = static_cast<std::uint32_t>(e.j % half);
        const std::uint64_t t = std::uint64_t{i2} * half + j2;
        for (std::uint64_t k = 0; k < 2; ++k) {
          emit(base + (h * 4 + k * 2 + l) * sub + t / child_per_vp,
               M{i2, j2, Tag::A, e.value});
        }
      }
      for (const E& e : st.b) {
        const std::uint64_t l = e.i / half;
        const std::uint64_t k = e.j / half;
        const auto i2 = static_cast<std::uint32_t>(e.i % half);
        const auto j2 = static_cast<std::uint32_t>(e.j % half);
        const std::uint64_t t = std::uint64_t{i2} * half + j2;
        for (std::uint64_t h = 0; h < 2; ++h) {
          emit(base + (h * 4 + k * 2 + l) * sub + t / child_per_vp,
               M{i2, j2, Tag::B, e.value});
        }
      }
    };

    bk.superstep(label, [&](auto& vp) {
      for_each_send(vp.id(),
                    [&](std::uint64_t dst, M msg) { vp.send(dst, msg); });
      add_dummies(vp, seg, std::uint64_t{1} << level);
    });

    // Mirrored delivery in the sync's order (ascending sender, send order):
    // the level-(λ+1) holdings replace the level-λ ones.
    std::vector<VpState> next(n);
    for (std::uint64_t r = 0; r < n; ++r) {
      for_each_send(r, [&](std::uint64_t dst, M msg) {
        (msg.tag == Tag::A ? next[dst].a : next[dst].b)
            .push_back(E{msg.i, msg.j, msg.value});
      });
    }
    state.swap(next);
    audit_all();
  }

  // ---- Base case. ----
  // Segments now have tail_seg VPs (1, 2 or 4). If > 1, gather the whole
  // subproblem at the segment leader first (degree O(2^λ), same order as the
  // level's distribute).
  const std::uint64_t base_dim = dims_at(max_level);
  if (tail_seg > 1) {
    const unsigned label = 3 * max_level;  // < log n exactly when tail_seg > 1
    bk.superstep(label, [&](auto& vp) {
      const VpState& st = state[vp.id()];
      const std::uint64_t leader = vp.id() & ~(tail_seg - 1);
      if (vp.id() != leader) {
        for (const E& e : st.a) vp.send(leader, M{e.i, e.j, Tag::A, e.value});
        for (const E& e : st.b) vp.send(leader, M{e.i, e.j, Tag::B, e.value});
      }
      add_dummies(vp, tail_seg, std::uint64_t{1} << max_level);
    });
    // Mirror: leaders append the gathered entries (ascending sender, A run
    // then B run per sender — the tag-dispatched ingest order); senders
    // hand their holdings off.
    for (std::uint64_t r = 0; r < n; ++r) {
      const std::uint64_t leader = r & ~(tail_seg - 1);
      if (r == leader) continue;
      VpState& st = state[r];
      VpState& ld = state[leader];
      for (const E& e : st.a) ld.a.push_back(e);
      for (const E& e : st.b) ld.b.push_back(e);
      st.a.clear();
      st.b.clear();
    }
    for (std::uint64_t leader = 0; leader < n; leader += tail_seg) {
      audit(state[leader]);
    }
  }

  // Local multiply at the leader, then start the combine cascade. The
  // combine superstep for level λ sends level-(λ+1) products to the owners
  // of the level-λ product, with label 3λ.
  auto product_owner = [&](unsigned level, std::uint64_t base, std::uint64_t i,
                           std::uint64_t j) {
    const std::uint64_t per_vp = per_vp_at(level);
    return base + (i * dims_at(level) + j) / per_vp;
  };

  auto local_multiply = [&](VpState& st) {
    // Dense local product of the base_dim x base_dim subproblem.
    Matrix<T> la(base_dim, base_dim), lb(base_dim, base_dim);
    for (const E& e : st.a) la(e.i, e.j) = e.value;
    for (const E& e : st.b) lb(e.i, e.j) = e.value;
    const Matrix<T> lc = multiply_naive(la, lb);
    st.c.clear();
    st.c.reserve(base_dim * base_dim);
    for (std::uint32_t i = 0; i < base_dim; ++i) {
      for (std::uint32_t j = 0; j < base_dim; ++j) {
        st.c.push_back(E{i, j, lc(i, j)});
      }
    }
    // Release the operands: the combine cascade never reads them again.
    std::vector<E>().swap(st.a);
    std::vector<E>().swap(st.b);
  };

  // Host mirror of the child combine traffic at the owner of a level-(λ+1)
  // product: entries arrive addressed in the child's product coordinates,
  // exactly two partial products per coordinate (l = 0 and l = 1), summed in
  // arrival order.
  struct Pending {
    std::uint64_t dst;
    M msg;
  };
  auto deliver_products = [&](const std::vector<Pending>& pending,
                              unsigned child_level) {
    const std::uint64_t child_dim = dims_at(child_level);
    const std::uint64_t child_per_vp = per_vp_at(child_level);
    const std::uint64_t child_seg = seg_at(child_level);
    for (VpState& st : state) {
      st.c.assign(child_per_vp, E{});
    }
    std::vector<std::vector<bool>> seen(n,
                                        std::vector<bool>(child_per_vp, false));
    for (const Pending& p : pending) {
      VpState& st = state[p.dst];
      const std::uint64_t offset = p.dst & (child_seg - 1);
      const std::uint64_t lo = offset * child_per_vp;
      const std::uint64_t lin =
          std::uint64_t{p.msg.i} * child_dim + p.msg.j;
      const std::uint64_t idx = lin - lo;
      if (seen[p.dst][idx]) {
        st.c[idx].value = T(st.c[idx].value + p.msg.value);
      } else {
        st.c[idx] = E{p.msg.i, p.msg.j, p.msg.value};
        seen[p.dst][idx] = true;
      }
    }
    audit_all();
  };

  Matrix<T> c(m, m);

  // Combine cascade: one superstep per level λ = max_level-1 .. 0, plus a
  // final label-0 ingest superstep. The base subproblems are solved on the
  // host mirror before the first combine superstep.
  if (max_level == 0) {
    // Degenerate machine (m <= 2 with tail_seg <= 4): leader solves the
    // whole product and redistributes it to the owners.
    audit(state[0]);
    local_multiply(state[0]);
    bk.superstep(0, [&](auto& vp) {
      if (vp.id() == 0) {
        for (const E& e : state[0].c) {
          vp.send(product_owner(0, 0, e.i, e.j),
                  M{e.i, e.j, Tag::Product, e.value});
        }
      }
    });
    if constexpr (Backend::delivers) {
      for (std::uint64_t r = 0; r < n; ++r) {
        for (const auto& msg : bk.inbox(r)) {
          if (msg.data.tag != Tag::Product) continue;
          c(msg.data.i, msg.data.j) = msg.data.value;
        }
      }
    } else {
      for (const E& e : state[0].c) c(e.i, e.j) = e.value;
    }
    state[0].c.clear();
    bk.superstep(0, [](auto&) {});
  } else {
    // Solve the base subproblems locally (leaders when gathered, every VP
    // when tail_seg == 1), mirroring the historical in-body multiply.
    if (tail_seg == 1) {
      for (VpState& st : state) local_multiply(st);
    } else {
      for (std::uint64_t leader = 0; leader < n; leader += tail_seg) {
        local_multiply(state[leader]);
      }
    }
    audit_all();

    for (unsigned level = max_level; level-- > 0;) {
      const std::uint64_t seg = seg_at(level);
      const std::uint64_t sub = seg / 8;
      const std::uint64_t dim = dims_at(level);
      const std::uint64_t half = dim / 2;
      const unsigned label = 3 * level;
      // Send every held product entry to the owner of the parent entry.
      auto for_each_send = [&](std::uint64_t id, auto&& emit) {
        const VpState& st = state[id];
        const std::uint64_t base = id & ~(seg - 1);
        const std::uint64_t sub_index = (id - base) / sub;
        const std::uint64_t h = sub_index >> 2;
        const std::uint64_t k = (sub_index >> 1) & 1;
        for (const E& e : st.c) {
          const std::uint64_t pi = e.i + h * half;
          const std::uint64_t pj = e.j + k * half;
          emit(product_owner(level, base, pi, pj),
               M{static_cast<std::uint32_t>(pi),
                 static_cast<std::uint32_t>(pj), Tag::Product, e.value});
        }
      };
      bk.superstep(label, [&](auto& vp) {
        for_each_send(vp.id(),
                      [&](std::uint64_t dst, M msg) { vp.send(dst, msg); });
        add_dummies(vp, seg, std::uint64_t{1} << level);
      });
      auto collect_pending = [&]() {
        std::vector<Pending> pending;
        for (std::uint64_t r = 0; r < n; ++r) {
          for_each_send(r, [&](std::uint64_t dst, M msg) {
            pending.push_back({dst, msg});
          });
        }
        return pending;
      };
      if (level == 0) {
        // Final ingest: owners of C[i,j] sum the (at most two) partial
        // products — from the routed payloads when the backend delivers,
        // from the mirror otherwise.
        if constexpr (Backend::delivers) {
          bk.superstep(0, [&](auto& vp) {
            T sum{};
            bool any = false;
            std::uint32_t ci = 0, cj = 0;
            for (const auto& msg : vp.inbox()) {
              if (msg.data.tag != Tag::Product) continue;
              sum = any ? T(sum + msg.data.value) : msg.data.value;
              ci = msg.data.i;
              cj = msg.data.j;
              any = true;
            }
            if (any) c(ci, cj) = sum;
          });
        } else {
          deliver_products(collect_pending(), level);
          for (const VpState& st : state) {
            for (const E& e : st.c) c(e.i, e.j) = e.value;
          }
          bk.superstep(0, [](auto&) {});
        }
      } else {
        deliver_products(collect_pending(), level);  // owners live at `level`
      }
    }
  }

  return mm_detail::ProgramResult<T>{std::move(c), peak_entries};
}

}  // namespace nobl
