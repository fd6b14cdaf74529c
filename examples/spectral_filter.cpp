// Spectral low-pass filtering with the network-oblivious FFT (Section 4.2).
//
// A clean two-tone signal is corrupted with high-frequency noise, filtered
// in the frequency domain, and reconstructed with an inverse transform
// (computed as conj(FFT(conj(X)))/n, so both directions exercise the same
// oblivious algorithm). The cost report folds the forward transform's trace
// onto several machines.
//
// Build & run:  ./examples/spectral_filter
#include <cmath>
#include <complex>
#include <iostream>
#include <numbers>
#include <vector>

#include "algorithms/fft.hpp"
#include "bsp/cost.hpp"
#include "bsp/topology.hpp"
#include "core/lower_bounds.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace nobl;
  using C = std::complex<double>;
  constexpr std::uint64_t n = 1024;

  // Two tones plus broadband noise.
  Xoshiro256 rng(2026);
  std::vector<C> clean(n), noisy(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    const double tj = static_cast<double>(j);
    const double s = std::sin(2 * std::numbers::pi * 5 * tj / n) +
                     0.5 * std::sin(2 * std::numbers::pi * 12 * tj / n);
    clean[j] = s;
    noisy[j] = s + 0.8 * (rng.unit() * 2 - 1);
  }

  // Forward transform, low-pass mask, inverse transform — both directions
  // run the same network-oblivious schedule. run_program simulates each
  // program on M(n) and returns its output with the recorded trace.
  auto spectrum = run_program<C>(
      n, [&](auto& bk) { return fft_program(bk, noisy); });
  constexpr std::uint64_t cutoff = 24;
  for (std::uint64_t k = cutoff; k < n - cutoff; ++k) spectrum.output[k] = 0;

  const auto inverse = run_program<C>(
      n, [&](auto& bk) { return ifft_program(bk, spectrum.output); });
  std::vector<double> filtered(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    filtered[j] = inverse.output[j].real();
  }

  double err_noisy = 0, err_filtered = 0;
  for (std::uint64_t j = 0; j < n; ++j) {
    err_noisy += std::norm(noisy[j] - clean[j]);
    err_filtered += std::norm(C(filtered[j]) - clean[j]);
  }
  std::cout << "low-pass filter, n = " << n << ", cutoff = " << cutoff
            << "\n  mean-square error before: " << err_noisy / n
            << "\n  mean-square error after:  " << err_filtered / n << "\n\n";

  // Cost report for the forward transform.
  Table t("Forward FFT cost from one trace (Theorem 4.5 vs Lemma 4.4)",
          {"p", "H(sigma=0)", "LB", "H/LB", "D hypercube", "D 2d-mesh"});
  for (std::uint64_t p = 4; p <= n; p *= 8) {
    const unsigned log_p = log2_exact(p);
    const double h = communication_complexity(spectrum.trace, log_p, 0);
    t.row()
        .add(p)
        .add(h)
        .add(lb::fft(n, p, 0))
        .add(h / lb::fft(n, p, 0))
        .add(communication_time(spectrum.trace, topology::hypercube(p)))
        .add(communication_time(spectrum.trace, topology::mesh(p, 2)));
  }
  std::cout << t;
  return err_filtered < err_noisy ? 0 : 1;
}
