// Tests for the integer histogram: exact buckets, overflow accounting,
// mean exactness, percentiles, and merge.

#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace lcf::util {
namespace {

TEST(Histogram, EmptyDefaults) {
    const Histogram h(16);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, CountsExactValues) {
    Histogram h(10);
    h.add(3);
    h.add(3);
    h.add(7);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(7), 1u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, OverflowStillContributesToMeanExactly) {
    Histogram h(4);
    h.add(2);
    h.add(1000);  // overflows the buckets
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 501.0);
}

TEST(Histogram, PercentilesOnUniformData) {
    Histogram h(101);
    for (std::uint64_t v = 0; v <= 100; ++v) h.add(v);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 1.0);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, PercentileWithOverflowSamples) {
    Histogram h(4);
    h.add(0);
    h.add(1);
    h.add(100);
    h.add(200);
    // Half the samples exceed the capacity; the high percentiles report
    // the capacity as the saturated bound.
    EXPECT_EQ(h.percentile(1.0), 4u);
    EXPECT_LE(h.percentile(0.25), 1u);
}

TEST(Histogram, MergeAddsEverything) {
    Histogram a(8), b(8);
    a.add(1);
    a.add(20);
    b.add(1);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.bucket(1), 2u);
    EXPECT_EQ(a.bucket(2), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 6.0);
}

TEST(Histogram, PercentileClampsQ) {
    Histogram h(8);
    h.add(5);
    EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, PercentileZeroIsSmallestRecordedValue) {
    // Regression: with a rank of 0 the scan used to accept bucket 0
    // unconditionally, reporting p0 = 0 even when no sample was 0.
    Histogram h(16);
    h.add(5);
    EXPECT_EQ(h.percentile(0.0), 5u);
    h.add(9);
    EXPECT_EQ(h.percentile(0.0), 5u);
    EXPECT_EQ(h.percentile(-3.0), 5u);
}

TEST(Histogram, PercentileZeroSaturatesWithAllOverflowSamples) {
    // Every sample beyond capacity: all percentiles, including p0,
    // report the saturated bound instead of an empty bucket 0.
    Histogram h(4);
    h.add(100);
    h.add(200);
    EXPECT_EQ(h.percentile(0.0), 4u);
    EXPECT_EQ(h.percentile(1.0), 4u);
}

TEST(Histogram, PercentileOnEmptyHistogramIsZero) {
    const Histogram h(8);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

// The histogram as it was before buckets grew with the data: all
// capacity buckets allocated up front. Every query of the growing
// histogram must answer exactly as this eager reference does.
struct EagerHistogram {
    explicit EagerHistogram(std::size_t capacity) : buckets(capacity, 0) {}
    void add(std::uint64_t v) {
        if (v < buckets.size()) {
            ++buckets[v];
        } else {
            ++overflow;
        }
        ++count;
        total += static_cast<double>(v);
    }
    void merge(const EagerHistogram& o) {
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            buckets[i] += o.buckets[i];
        }
        count += o.count;
        overflow += o.overflow;
        total += o.total;
    }
    std::uint64_t percentile(double q) const {
        if (count == 0) return 0;
        q = std::clamp(q, 0.0, 1.0);
        const auto target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
        std::uint64_t seen = 0;
        for (std::size_t v = 0; v < buckets.size(); ++v) {
            seen += buckets[v];
            if (seen >= target) return v;
        }
        return buckets.size();
    }
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t overflow = 0;
    double total = 0.0;
};

void expect_same(const Histogram& h, const EagerHistogram& ref) {
    ASSERT_EQ(h.capacity(), ref.buckets.size());
    EXPECT_EQ(h.count(), ref.count);
    EXPECT_EQ(h.overflow(), ref.overflow);
    EXPECT_EQ(h.mean(), ref.count ? ref.total / static_cast<double>(ref.count)
                                  : 0.0);
    for (std::size_t v = 0; v < ref.buckets.size(); ++v) {
        ASSERT_EQ(h.bucket(v), ref.buckets[v]) << "bucket " << v;
    }
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(h.percentile(q), ref.percentile(q)) << "q " << q;
    }
}

TEST(Histogram, GrowingBucketsAnswerLikeEagerOnes) {
    // Random samples at the SwitchSim delay capacity, each histogram with
    // its own largest value (so they grow to different sizes), some
    // beyond capacity; then merges of unequal sizes in both directions.
    constexpr std::size_t kCapacity = 16384;
    Xoshiro256 rng(2024);
    std::vector<Histogram> hs;
    std::vector<EagerHistogram> refs;
    for (const std::uint64_t largest :
         {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1000ULL, 9000ULL, 16383ULL,
          16384ULL, 40000ULL}) {
        Histogram h(kCapacity);
        EagerHistogram ref(kCapacity);
        const int samples = 1 + static_cast<int>(rng.next_below(3000));
        for (int k = 0; k < samples; ++k) {
            const std::uint64_t v = rng.next_below(largest + 1);
            h.add(v);
            ref.add(v);
        }
        expect_same(h, ref);
        hs.push_back(h);
        refs.push_back(ref);
    }
    for (std::size_t a = 0; a < hs.size(); ++a) {
        for (const std::size_t b : {(a + 3) % hs.size(), hs.size() - 1 - a}) {
            Histogram h = hs[a];
            EagerHistogram ref = refs[a];
            h.merge(hs[b]);
            ref.merge(refs[b]);
            expect_same(h, ref);
        }
    }
}

}  // namespace
}  // namespace lcf::util
