// Unit tests for util::BitVec: bit addressing across word boundaries,
// scans, set algebra, and the beyond-size()-bits-stay-zero invariant.

#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.hpp"

namespace lcf::util {
namespace {

TEST(BitVec, StartsCleared) {
    const BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.find_first(), BitVec::npos);
}

TEST(BitVec, SetAndTestAcrossWordBoundaries) {
    BitVec v(130);
    for (const std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        v.set(i);
        EXPECT_TRUE(v.test(i)) << i;
    }
    EXPECT_EQ(v.count(), 8u);
    v.reset(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 7u);
}

TEST(BitVec, SetWithValueArgument) {
    BitVec v(8);
    v.set(3, true);
    EXPECT_TRUE(v.test(3));
    v.set(3, false);
    EXPECT_FALSE(v.test(3));
}

TEST(BitVec, FillRespectsSize) {
    BitVec v(70);
    v.fill();
    EXPECT_EQ(v.count(), 70u);
    // The invariant matters for equality and count on the last word.
    BitVec w(70);
    for (std::size_t i = 0; i < 70; ++i) w.set(i);
    EXPECT_EQ(v, w);
}

TEST(BitVec, ClearResetsEverything) {
    BitVec v(100);
    v.fill();
    v.clear();
    EXPECT_TRUE(v.none());
}

TEST(BitVec, FindFirstAndNext) {
    BitVec v(200);
    v.set(5);
    v.set(64);
    v.set(199);
    EXPECT_EQ(v.find_first(), 5u);
    EXPECT_EQ(v.find_next(5), 64u);
    EXPECT_EQ(v.find_next(64), 199u);
    EXPECT_EQ(v.find_next(199), BitVec::npos);
}

TEST(BitVec, FindNextFromUnsetPosition) {
    BitVec v(100);
    v.set(50);
    EXPECT_EQ(v.find_next(0), 50u);
    EXPECT_EQ(v.find_next(49), 50u);
    EXPECT_EQ(v.find_next(50), BitVec::npos);
}

TEST(BitVec, IterationVisitsExactlyTheSetBits) {
    BitVec v(300);
    Xoshiro256 rng(7);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 300; ++i) {
        if (rng.next_bool(0.3)) {
            v.set(i);
            expected.push_back(i);
        }
    }
    std::vector<std::size_t> seen;
    for (std::size_t i = v.find_first(); i != BitVec::npos; i = v.find_next(i)) {
        seen.push_back(i);
    }
    EXPECT_EQ(seen, expected);
}

TEST(BitVec, SetAlgebra) {
    BitVec a(70), b(70);
    a.set(1);
    a.set(65);
    b.set(1);
    b.set(2);

    BitVec and_result = a;
    and_result &= b;
    EXPECT_TRUE(and_result.test(1));
    EXPECT_FALSE(and_result.test(2));
    EXPECT_FALSE(and_result.test(65));

    BitVec or_result = a;
    or_result |= b;
    EXPECT_EQ(or_result.count(), 3u);

    BitVec sub_result = a;
    sub_result.subtract(b);
    EXPECT_FALSE(sub_result.test(1));
    EXPECT_TRUE(sub_result.test(65));
}

TEST(BitVec, EqualityIncludesSize) {
    BitVec a(10), b(11);
    EXPECT_NE(a, b);
    BitVec c(10);
    EXPECT_EQ(a, c);
    c.set(9);
    EXPECT_NE(a, c);
}

TEST(BitVec, ToString) {
    BitVec v(5);
    v.set(0);
    v.set(3);
    EXPECT_EQ(v.to_string(), "10010");
}

TEST(BitVec, EmptyVector) {
    const BitVec v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.find_first(), BitVec::npos);
    EXPECT_EQ(v.find_next(0), BitVec::npos);
}

TEST(BitVec, FindNextOutOfRangeIsNpos) {
    BitVec v(100);
    v.set(3);
    // pos at or beyond size() has no successor (the seed version wrapped
    // pos + 1 for pos == npos and rescanned from zero).
    EXPECT_EQ(v.find_next(99), BitVec::npos);
    EXPECT_EQ(v.find_next(100), BitVec::npos);
    EXPECT_EQ(v.find_next(1000), BitVec::npos);
    EXPECT_EQ(v.find_next(BitVec::npos), BitVec::npos);
}

TEST(BitVec, FindFirstFromNoWrapNeeded) {
    BitVec v(200);
    v.set(10);
    v.set(150);
    EXPECT_EQ(v.find_first_from(0), 10u);
    EXPECT_EQ(v.find_first_from(10), 10u);  // inclusive of pos
    EXPECT_EQ(v.find_first_from(11), 150u);
    EXPECT_EQ(v.find_first_from(150), 150u);
}

TEST(BitVec, FindFirstFromWrapsAround) {
    BitVec v(200);
    v.set(10);
    EXPECT_EQ(v.find_first_from(11), 10u);
    EXPECT_EQ(v.find_first_from(199), 10u);
}

TEST(BitVec, FindFirstFromAtWordBoundaries) {
    BitVec v(192);  // exactly three words
    for (const std::size_t bit : {0u, 63u, 64u, 127u, 128u, 191u}) {
        BitVec w(192);
        w.set(bit);
        for (const std::size_t start : {0u, 1u, 63u, 64u, 65u, 127u, 128u,
                                        129u, 191u}) {
            EXPECT_EQ(w.find_first_from(start), bit)
                << "bit=" << bit << " start=" << start;
        }
    }
}

TEST(BitVec, FindFirstFromRotationOrder) {
    // With several set bits, the scan must prefer the [pos, n) segment
    // over the wrapped [0, pos) segment.
    BitVec v(130);
    v.set(5);
    v.set(70);
    v.set(129);
    EXPECT_EQ(v.find_first_from(6), 70u);
    EXPECT_EQ(v.find_first_from(71), 129u);
    EXPECT_EQ(v.find_first_from(130 - 1), 129u);
    EXPECT_EQ(v.find_first_from(0), 5u);
}

TEST(BitVec, FindFirstFromEmptyAndNone) {
    const BitVec empty;
    EXPECT_EQ(empty.find_first_from(0), BitVec::npos);
    const BitVec none(77);
    EXPECT_EQ(none.find_first_from(33), BitVec::npos);
}

TEST(BitVec, AndCountMatchesMaterializedIntersection) {
    Xoshiro256 rng(11);
    for (const std::size_t n : {1u, 64u, 65u, 130u, 300u}) {
        BitVec a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.next_bool(0.4)) a.set(i);
            if (rng.next_bool(0.4)) b.set(i);
        }
        BitVec c = a;
        c &= b;
        EXPECT_EQ(a.and_count(b), c.count()) << n;
    }
}

// The fused query against the materialized intersection and against a
// per-bit rotated scan, at every start position: sizes around the word
// boundaries reach the wrap from the last (partial) word back to word 0.
TEST(BitVec, FindFirstAndFromMatchesMaterializedAnd) {
    Xoshiro256 rng(29);
    auto random = [&](std::size_t n, double density) {
        BitVec v(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.next_bool(density)) v.set(i);
        }
        return v;
    };
    for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 256u}) {
        BitVec full(n);
        full.fill();
        const std::vector<BitVec> masks = {BitVec(n), full, random(n, 0.5),
                                           random(n, 0.03)};
        const std::vector<BitVec> sets = {full, random(n, 0.5),
                                          random(n, 0.03)};
        for (const BitVec& set : sets) {
            for (const BitVec& mask : masks) {
                BitVec both(n);
                both.assign_and(set, mask);
                for (std::size_t pos = 0; pos < n; ++pos) {
                    std::size_t scan = BitVec::npos;
                    for (std::size_t k = 0; k < n && scan == BitVec::npos;
                         ++k) {
                        if (both.test((pos + k) % n)) scan = (pos + k) % n;
                    }
                    const std::size_t got = set.find_first_and_from(mask, pos);
                    EXPECT_EQ(got, both.find_first_from(pos))
                        << "n=" << n << " pos=" << pos;
                    EXPECT_EQ(got, scan) << "n=" << n << " pos=" << pos;
                }
            }
        }
    }
    EXPECT_EQ(BitVec().find_first_and_from(BitVec(), 0), BitVec::npos);
}

TEST(BitVec, AssignAndAssignSubtract) {
    BitVec src(130), mask(130), dst(130);
    src.set(0);
    src.set(64);
    src.set(129);
    mask.set(64);
    dst.assign_and(src, mask);
    EXPECT_EQ(dst.count(), 1u);
    EXPECT_TRUE(dst.test(64));
    dst.assign_subtract(src, mask);
    EXPECT_EQ(dst.count(), 2u);
    EXPECT_TRUE(dst.test(0));
    EXPECT_TRUE(dst.test(129));
    EXPECT_FALSE(dst.test(64));
    // Aliasing: *this may be src.
    dst.assign_subtract(dst, mask);  // mask bit 64 already absent
    EXPECT_EQ(dst.count(), 2u);
}

TEST(BitVec, SetWordTrimsTailBits) {
    BitVec v(70);  // second word holds only 6 valid bits
    v.set_word(0, ~0ULL);
    v.set_word(1, ~0ULL);
    EXPECT_EQ(v.count(), 70u);
    BitVec w(70);
    w.fill();
    EXPECT_EQ(v, w);  // invariant: bits beyond size() stay zero
    EXPECT_EQ(v.word(1), w.word(1));
}

TEST(BitVec, SetBitsIteratorMatchesFindLoop) {
    Xoshiro256 rng(23);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 128u, 300u}) {
        BitVec v(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.next_bool(0.25)) v.set(i);
        }
        std::vector<std::size_t> via_find;
        for (std::size_t i = v.find_first(); i != BitVec::npos;
             i = v.find_next(i)) {
            via_find.push_back(i);
        }
        std::vector<std::size_t> via_range;
        for (const std::size_t i : v.set_bits()) via_range.push_back(i);
        EXPECT_EQ(via_range, via_find) << n;
    }
}

TEST(BitVec, SetBitsIteratorOnEmptyAndFull) {
    const BitVec empty;
    EXPECT_EQ(empty.set_bits().begin(), empty.set_bits().end());
    BitVec full(66);
    full.fill();
    std::size_t expect = 0;
    for (const std::size_t i : full.set_bits()) {
        EXPECT_EQ(i, expect++);
    }
    EXPECT_EQ(expect, 66u);
}

TEST(BitVec, BernoulliWordIsDeterministicAndPlausible) {
    Xoshiro256 a(5), b(5);
    EXPECT_EQ(a.next_bernoulli_word(0.35), b.next_bernoulli_word(0.35));
    Xoshiro256 rng(9);
    EXPECT_EQ(rng.next_bernoulli_word(0.0), 0u);
    EXPECT_EQ(rng.next_bernoulli_word(1.0), ~0ULL);
    std::size_t ones = 0;
    constexpr int kWords = 4000;
    for (int k = 0; k < kWords; ++k) {
        ones += static_cast<std::size_t>(
            std::popcount(rng.next_bernoulli_word(0.35)));
    }
    const double rate = static_cast<double>(ones) / (64.0 * kWords);
    EXPECT_NEAR(rate, 0.35, 0.01);
}

}  // namespace
}  // namespace lcf::util
