// E-T53: Theorem 5.3 and the ascend–descend protocol (Section 5).
//
// The pathological single-pair pattern (VP 0 sends n messages to VP v/2) is
// (Θ(1),p)-full but only (O(1/p),p)-wise; the standard protocol pays n·g_0
// while the ascend–descend execution pays ~2n per level. On wise algorithms
// the protocol costs at most the theorem's O(log² p) overhead.
#include "dbsp/ascend_descend.hpp"

#include "algorithms/fft.hpp"
#include "bench_common.hpp"
#include "bsp/machine.hpp"
#include "bsp/topology.hpp"
#include "core/wiseness.hpp"
#include "dbsp/routed_protocol.hpp"

namespace nobl {
namespace {

Trace pathological(unsigned log_v, std::uint64_t count) {
  Machine<int> m(1ULL << log_v);
  m.superstep(0, [&](Vp<int>& vp) {
    if (vp.id() == 0) vp.send_dummy(1ULL << (log_v - 1), count);
  });
  return std::move(m).take_trace();
}

void report() {
  benchx::banner(
      "E-T53  Section 5 opener: the non-wise point-to-point pattern");
  Table t("VP0 -> VP_{v/2}, n = 16384 messages, v = 256",
          {"p", "alpha (Def 3.2)", "gamma (Def 5.2)", "D standard",
           "D ascend-descend", "speedup"});
  const Trace patho = pathological(8, 16384);
  for (const std::uint64_t p : {16u, 64u, 256u}) {
    const unsigned log_p = log2_exact(p);
    const auto params = topology::linear_array(p);
    const double standard = communication_time(patho, params);
    const Trace transformed = ascend_descend_transform(patho, log_p);
    const double improved = communication_time(transformed, params);
    t.row()
        .add(p)
        .add(wiseness_alpha(patho, log_p))
        .add(fullness_gamma(patho, log_p))
        .add(standard)
        .add(improved)
        .add(standard / improved);
  }
  std::cout << t;

  benchx::banner("Wiseness restoration (the key step of Theorem 5.3's proof)");
  Table w("the transformed algorithm is (Theta(1),p)-wise by construction",
          {"p", "alpha before", "alpha after transform"});
  for (const std::uint64_t p : {16u, 64u, 256u}) {
    const unsigned log_p = log2_exact(p);
    w.row()
        .add(p)
        .add(wiseness_alpha(patho, log_p))
        .add(wiseness_alpha(ascend_descend_transform(patho, log_p), log_p));
  }
  std::cout << w;

  benchx::banner(
      "Overhead on an already-wise algorithm (<= O(log^2 p), Theorem 5.3)");
  Table o("FFT n = 4096 under both protocols",
          {"topology", "D standard", "D ascend-descend", "overhead",
           "log^2 p"});
  const auto signal = benchx::random_signal(4096, 1);
  const auto fft = run_program<std::complex<double>>(
      4096, [&](auto& bk) { return fft_program(bk, signal); },
      benchx::engine());
  for (const std::uint64_t p : {16u, 64u}) {
    const unsigned log_p = log2_exact(p);
    for (const auto& params :
         {topology::hypercube(p), topology::mesh(p, 2)}) {
      const double standard = communication_time(fft.trace, params);
      const double transformed = communication_time(
          ascend_descend_transform(fft.trace, log_p), params);
      o.row()
          .add(params.name)
          .add(standard)
          .add(transformed)
          .add(transformed / standard)
          .add(static_cast<double>(log_p * log_p));
    }
  }
  std::cout << o;

  benchx::banner(
      "Routed execution (real messages, prefix slotting) vs the Lemma 5.1 "
      "accounting");
  Table r("pathological relation, p = 64, linear array",
          {"messages", "D standard", "D transform (Lemma 5.1)",
           "D routed executor", "routed delivers"});
  for (const std::uint64_t count : {256u, 4096u, 16384u}) {
    Machine<int> m(64);
    m.superstep(0, [&](Vp<int>& vp) {
      if (vp.id() == 0) vp.send_dummy(32, count);
    });
    std::vector<RoutedMsg<int>> rel;
    for (std::uint64_t i = 0; i < count; ++i) {
      rel.push_back(RoutedMsg<int>{0, 32, static_cast<int>(i)});
    }
    const auto executed = execute_ascend_descend(64, 0, rel, benchx::engine());
    const auto params = topology::linear_array(64);
    r.row()
        .add(count)
        .add(communication_time(m.trace(), params))
        .add(communication_time(ascend_descend_transform(m.trace(), 6),
                                params))
        .add(communication_time(executed.trace, params))
        .add(executed.delivered[32].size() == count ? "all" : "MISSING");
  }
  std::cout << r;

  benchx::banner("Prefix cost ablation (geometric-parameter remark, end of §5)");
  Table a("pathological pattern, p = 64, linear array",
          {"variant", "supersteps", "D"});
  const auto params = topology::linear_array(64);
  const Trace with = ascend_descend_transform(patho, 6);
  AscendDescendOptions no_prefix;
  no_prefix.include_prefix = false;
  const Trace without = ascend_descend_transform(patho, 6, no_prefix);
  a.row().add("with prefix supersteps").add(with.supersteps()).add(
      communication_time(with, params));
  a.row().add("prefix-free (free scan)").add(without.supersteps()).add(
      communication_time(without, params));
  std::cout << a;
}

void BM_AscendDescend(benchmark::State& state) {
  const auto signal = benchx::random_signal(4096, 2);
  const auto fft = run_program<std::complex<double>>(
      4096, [&](auto& bk) { return fft_program(bk, signal); },
      benchx::engine());
  for (auto _ : state) {
    auto out = ascend_descend_transform(fft.trace, 6);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AscendDescend);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
