// Deterministic pseudo-random number generation.
//
// The experiments in the paper are stochastic (random ant starting vertices,
// random vertex orders); reproducibility therefore requires seeded,
// implementation-defined-free generators. We use xoshiro256** seeded via
// splitmix64, following the reference construction, instead of std::mt19937
// whose distributions are not portable across standard libraries.
//
// Rng::fork(stream...) derives statistically independent child streams from
// (seed, stream ids) — used to give every (tour, ant) pair its own stream so
// that results are identical regardless of how walks are scheduled onto
// threads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace acolay::support {

/// splitmix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xAC01A7u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. Unbiased
  /// (Lemire-style rejection).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = index(i + 1);
      std::swap(items[i], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>{items});
  }

  /// Random permutation of 0..n-1.
  std::vector<std::int32_t> permutation(std::size_t n);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Requires at least one strictly positive weight; negative
  /// weights are rejected.
  std::size_t weighted_index(std::span<const double> weights);

  /// Hot-path overload for callers that already hold the weights' sum
  /// (accumulated in index order — the same order this class sums in, so
  /// the draw is bit-identical to the validating overload). Skips the
  /// per-element validation scan; preconditions checked in debug builds.
  std::size_t weighted_index(std::span<const double> weights, double total);

  /// Derives an independent child stream from this generator's original seed
  /// and the given stream identifiers (order-sensitive).
  Rng fork(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) const;

  /// Equal generators produce equal streams (state and fork seed match).
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::array<std::uint64_t, 4> state_;
  std::uint64_t seed_;  // original seed retained for fork()
};

}  // namespace acolay::support
