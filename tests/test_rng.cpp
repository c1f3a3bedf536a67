// Tests for the deterministic RNG stack: reproducibility, stream
// independence, distribution sanity, and next_below bounds.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace lcf::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
    SplitMix64 a(1234), b(1234);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
    SplitMix64 a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, Reproducible) {
    Xoshiro256 a(99), b(99);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Xoshiro256, SeedZeroIsUsable) {
    Xoshiro256 rng(0);
    std::set<std::uint64_t> values;
    for (int i = 0; i < 100; ++i) values.insert(rng());
    EXPECT_GT(values.size(), 95u);  // not stuck
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
    Xoshiro256 rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro256, NextDoubleMeanIsNearHalf) {
    Xoshiro256 rng(17);
    double sum = 0.0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro256, NextBelowRespectsBound) {
    Xoshiro256 rng(3);
    for (const std::uint64_t bound : {1ull, 2ull, 7ull, 16ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Xoshiro256, NextBelowIsApproximatelyUniform) {
    Xoshiro256 rng(11);
    constexpr std::uint64_t kBound = 10;
    constexpr int kDraws = 100000;
    std::vector<int> counts(kBound, 0);
    for (int i = 0; i < kDraws; ++i) {
        ++counts[rng.next_below(kBound)];
    }
    // Chi-squared with 9 dof: 99.9th percentile is ~27.9.
    double chi2 = 0.0;
    const double expected = static_cast<double>(kDraws) / kBound;
    for (const int c : counts) {
        chi2 += (c - expected) * (c - expected) / expected;
    }
    EXPECT_LT(chi2, 27.9);
}

// next_below as first written: the rejection threshold (0 - bound) %
// bound computed on every call. It is the oracle the production form,
// which computes the threshold only when the low word is below bound,
// must match value for value and draw for draw.
std::uint64_t next_below_always_threshold(Xoshiro256& rng,
                                          std::uint64_t bound,
                                          std::uint64_t& rejections) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
        const __uint128_t m = static_cast<__uint128_t>(rng()) * bound;
        if (static_cast<std::uint64_t>(m) >= threshold) {
            return static_cast<std::uint64_t>(m >> 64);
        }
        ++rejections;
    }
}

TEST(Xoshiro256, NextBelowMatchesTheAlwaysThresholdForm) {
    constexpr int kDraws = 100000;
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 3ULL, 16ULL, 17ULL, 1000ULL, (1ULL << 32) + 1,
          (1ULL << 63) + 1, ~0ULL}) {
        Xoshiro256 rng(bound);
        Xoshiro256 oracle(bound);
        std::uint64_t rejections = 0;
        for (int k = 0; k < kDraws; ++k) {
            ASSERT_EQ(rng.next_below(bound),
                      next_below_always_threshold(oracle, bound, rejections))
                << "bound " << bound << " draw " << k;
        }
        EXPECT_EQ(rng(), oracle()) << "state diverged at bound " << bound;
        // 2^63 + 1 rejects almost half its draws, so the rejection loop
        // itself is compared, not only the first-draw path.
        if (bound == (1ULL << 63) + 1) {
            EXPECT_GT(rejections, kDraws / 3);
        }
    }
}

TEST(Xoshiro256, NextBoolMatchesProbability) {
    Xoshiro256 rng(23);
    int hits = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        if (rng.next_bool(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(DeriveSeed, StreamsAreDistinct) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 100; ++s) {
        seeds.insert(derive_seed(42, s));
    }
    EXPECT_EQ(seeds.size(), 100u);
}

TEST(DeriveSeed, Deterministic) {
    EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
    EXPECT_NE(derive_seed(7, 3), derive_seed(8, 3));
}

}  // namespace
}  // namespace lcf::util
