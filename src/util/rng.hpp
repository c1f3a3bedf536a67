#pragma once
// Deterministic, fast pseudo-random generation for simulations.
//
// Every stochastic component in the library takes an explicit seed so runs
// are reproducible; xoshiro256** is used for speed (the simulator draws one
// to two variates per port per slot) and SplitMix64 for seed expansion.

#include <cassert>
#include <cstdint>
#include <limits>

namespace lcf::util {

/// SplitMix64: expands one 64-bit seed into a stream of well-mixed words.
/// Used only to seed Xoshiro256 so that nearby user seeds give unrelated
/// generator states.
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator
/// so it can also feed <random> distributions where convenient.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seed via SplitMix64 expansion; any seed value (including 0) is fine.
    explicit constexpr Xoshiro256(std::uint64_t seed = 0x9d2c5680u) noexcept {
        SplitMix64 sm(seed);
        for (auto& s : s_) s = sm.next();
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    constexpr result_type operator()() noexcept {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1) with 53 bits of precision.
    constexpr double next_double() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform integer in [0, bound) without modulo bias (Lemire's method
    /// with rejection). Precondition: bound > 0 (`% bound` divides by
    /// zero otherwise). The rejection threshold (0 - bound) % bound is
    /// below bound, so it is computed only when the low word is: same
    /// values and draws as testing every word against it.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        assert(bound > 0 && "Xoshiro256::next_below requires bound > 0");
        __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
        if (static_cast<std::uint64_t>(m) < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (static_cast<std::uint64_t>(m) < threshold) {
                m = static_cast<__uint128_t>((*this)()) * bound;
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    constexpr bool next_bool(double p) noexcept { return next_double() < p; }

    /// 64 independent Bernoulli(p) trials packed into one word, one per
    /// bit, with p quantised to 16 binary digits (q = round(p * 2^16)).
    ///
    /// Bit-sliced construction: starting from r = 0 (all-fail), each of
    /// the 16 digits of q folds in one uniform random word w —
    /// OR when the digit is 1, AND when it is 0 — which leaves every bit
    /// set with probability exactly q / 2^16. Sixteen RNG draws for 64
    /// trials, versus 64 draws (and 64 FP compares) bit by bit.
    constexpr std::uint64_t next_bernoulli_word(double p) noexcept {
        if (p <= 0.0) return 0;
        if (p >= 1.0) return ~0ULL;
        const auto q =
            static_cast<std::uint32_t>(p * 65536.0 + 0.5);  // p in 0.16 fixed point
        if (q == 0) return 0;
        if (q >= 65536) return ~0ULL;
        std::uint64_t r = 0;
        for (int k = 0; k < 16; ++k) {
            const std::uint64_t w = (*this)();
            r = (q >> k & 1u) ? (r | w) : (r & w);
        }
        return r;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }
    std::uint64_t s_[4]{};
};

/// Derive a child seed from a parent seed and a stream index, so that the
/// per-port generators of one simulation are mutually independent.
constexpr std::uint64_t derive_seed(std::uint64_t parent,
                                    std::uint64_t stream) noexcept {
    SplitMix64 sm(parent ^ (0xA5A5A5A5DEADBEEFULL + stream * 0x9e3779b97f4a7c15ULL));
    sm.next();
    return sm.next();
}

}  // namespace lcf::util
