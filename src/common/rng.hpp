// Deterministic pseudo-random number generation.
//
// All stochastic components in manyworlds (weight init, synthetic datasets,
// measurement noise, workload arrivals, forest bagging) draw from mw::Rng so
// that every experiment is reproducible from a single seed. The generator is
// xoshiro256**, seeded through SplitMix64 as its authors recommend.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mw {

/// SplitMix64 step; used to expand a single 64-bit seed into a full state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256** deterministic generator. Satisfies UniformRandomBitGenerator.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

    /// Re-initialise the state from a 64-bit seed.
    void reseed(std::uint64_t seed) {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /// One xoshiro256** step. The state words are worked on as locals and
    /// stored once: the same arithmetic, but an unoptimised sanitizer build
    /// instruments 8 memory accesses per draw instead of 18.
    result_type operator()() {
        std::uint64_t s0 = state_[0];
        std::uint64_t s1 = state_[1];
        std::uint64_t s2 = state_[2];
        std::uint64_t s3 = state_[3];
        const std::uint64_t result = rotl(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        state_[0] = s0;
        state_[1] = s1;
        state_[2] = s2;
        state_[3] = s3;
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() { return to_unit((*this)()); }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [0, n). Requires n > 0.
    std::uint64_t below(std::uint64_t n) {
        MW_CHECK(n > 0, "Rng::below requires n > 0");
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t range(std::int64_t lo, std::int64_t hi) {
        MW_CHECK(lo <= hi, "Rng::range requires lo <= hi");
        return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Standard normal via Box-Muller: the cosine half of one pair, the sine
    /// half thrown away. Caches nothing, so the stream position after n calls
    /// depends on n alone and `discard_normals` can skip ahead without the
    /// transcendentals (`Tensor::fill_normal` fills blocks in parallel that way).
    double normal() {
        const auto [r1, r2] = box_muller_draws();
        const double u1 = to_unit(r1);
        const double u2 = to_unit(r2);
        return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    }

    /// Advance the stream exactly as `n` calls of `normal()` would, without
    /// computing them.
    void discard_normals(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) (void)box_muller_draws();
    }

    /// Normal with mean/stddev.
    double normal(double mean, double stddev) { return mean + stddev * normal(); }

    /// Log-normal multiplicative noise factor with median 1 and shape sigma.
    /// Used for "measured" performance samples; sigma = 0 degenerates to 1.
    double lognormal_factor(double sigma) {
        if (sigma <= 0.0) return 1.0;
        return std::exp(normal(0.0, sigma));
    }

    /// Exponential variate with the given rate (inter-arrival times).
    double exponential(double rate) {
        MW_CHECK(rate > 0.0, "Rng::exponential requires rate > 0");
        double u = uniform();
        while (u <= 0.0) u = uniform();
        return -std::log(u) / rate;
    }

    /// Bernoulli draw with probability p of true.
    bool bernoulli(double p) { return uniform() < p; }

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Split off an independent child generator (for parallel determinism).
    Rng split() {
        const std::uint64_t child_seed = (*this)() ^ 0xa02bdbf7bb3c0a7ULL;
        return Rng(child_seed);
    }

private:
    /// Top 53 bits of a raw draw as a double in [0, 1).
    static double to_unit(result_type raw) { return static_cast<double>(raw >> 11) * 0x1.0p-53; }

    /// The raw draws of one `normal()`: the one for u1, redrawn while u1
    /// would be 0, then the one for u2. `normal()` and `discard_normals()`
    /// both consume the stream only through here, so they cannot drift apart.
    std::pair<result_type, result_type> box_muller_draws() {
        result_type r1 = (*this)();
        while (to_unit(r1) <= 0.0) r1 = (*this)();
        return {r1, (*this)()};
    }

    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
};

}  // namespace mw
