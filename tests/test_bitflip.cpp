// Exactness of util::BitFlipper's no-flip threshold against the
// geometric-skip loop it short-cuts: the same flips, the same buffers
// and the same number of draws, over a sweep of rates and buffer sizes
// and for first draws placed on both edges of the guard band.

#include "util/bitflip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lcf::util {
namespace {

// The flip loop as it ran before the threshold existed, kept as the
// oracle. `first`, when set, stands in for the first draw; `draws`
// counts the draws made from `rng`.
std::uint64_t reference_flip_bits(std::span<std::uint8_t> bytes, double p,
                                  Xoshiro256& rng,
                                  std::optional<double> first,
                                  std::uint64_t& draws) {
    if (bytes.empty() || p <= 0.0) return 0;
    const std::uint64_t total_bits =
        static_cast<std::uint64_t>(bytes.size()) * 8;
    if (p >= 1.0) {
        for (auto& byte : bytes) byte = static_cast<std::uint8_t>(~byte);
        return total_bits;
    }
    const double denom = std::log1p(-p);
    std::uint64_t flips = 0;
    std::uint64_t bit = 0;
    while (true) {
        double u = 0.0;
        if (first) {
            u = *first;
            first.reset();
        } else {
            u = rng.next_double();
            ++draws;
        }
        const double gap = std::floor(std::log1p(-u) / denom);
        if (gap >= static_cast<double>(total_bits - bit)) break;
        bit += static_cast<std::uint64_t>(gap);
        bytes[bit >> 3] =
            static_cast<std::uint8_t>(bytes[bit >> 3] ^ (1U << (bit & 7)));
        ++flips;
        if (++bit >= total_bits) break;
    }
    return flips;
}

const std::vector<double> kRates = {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
                                    1e-3, 3e-3, 1e-2, 0.03, 0.1,  0.3,
                                    0.5};
// One byte, the odd small sizes a truncated wire can have, the grant and
// configuration packets' 5 and 11 bytes, and a bulk payload.
const std::vector<std::size_t> kSizes = {1, 3, 5, 11, 2048};

std::vector<std::uint8_t> pattern(std::size_t bytes) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t k = 0; k < bytes; ++k) {
        out[k] = static_cast<std::uint8_t>(0x5A ^ (k * 37));
    }
    return out;
}

TEST(BitFlipper, MatchesReferenceLoopOverMillionsOfDraws) {
    std::uint64_t total_draws = 0;
    for (const double p : kRates) {
        for (const std::size_t size : kSizes) {
            Xoshiro256 fast_rng(derive_seed(91, size));
            Xoshiro256 ref_rng(derive_seed(91, size));
            BitFlipper flipper(p, size);
            std::uint64_t draws = 0;
            std::uint64_t flipped = 0;
            // ~80 k draws per point, but at least 16 buffers.
            for (int buffer = 0; draws < 80000 || buffer < 16; ++buffer) {
                auto fast = pattern(size);
                auto ref = fast;
                const std::uint64_t got = flipper(fast, fast_rng);
                const std::uint64_t want =
                    reference_flip_bits(ref, p, ref_rng, std::nullopt, draws);
                ASSERT_EQ(got, want) << "p " << p << " size " << size
                                     << " buffer " << buffer;
                ASSERT_EQ(fast, ref) << "p " << p << " size " << size
                                     << " buffer " << buffer;
                flipped += got;
            }
            // Equal draw counts leave the two streams in the same state.
            EXPECT_EQ(fast_rng(), ref_rng()) << "p " << p << " size " << size;
            // The sweep must reach both outcomes where both are likely.
            if (p * static_cast<double>(size) >= 1e-3) {
                EXPECT_GT(flipped, 0u) << "p " << p << " size " << size;
            }
            total_draws += draws;
        }
    }
    EXPECT_GE(total_draws, 1000000u);
}

// Runs the flipper and the reference loop from first draw `u`; fails
// the test unless both flip the same bits with the same draws. Returns
// the reference's flip count.
std::uint64_t check_first_draw(double p, std::size_t size, double u) {
    BitFlipper flipper(p, size);
    Xoshiro256 fast_rng(7);
    Xoshiro256 ref_rng(7);
    auto fast = pattern(size);
    auto ref = fast;
    const std::uint64_t got =
        flipper.clean(u) ? 0 : flipper.flip(fast, fast_rng);
    std::uint64_t draws = 0;
    const std::uint64_t want = reference_flip_bits(ref, p, ref_rng, u, draws);
    EXPECT_EQ(got, want) << "p " << p << " size " << size << " u " << u;
    EXPECT_EQ(fast, ref) << "p " << p << " size " << size << " u " << u;
    EXPECT_EQ(fast_rng(), ref_rng()) << "p " << p << " size " << size;
    return want;
}

double no_flip_threshold(double p, std::size_t size) {
    return -std::expm1(static_cast<double>(size) * 8.0 * std::log1p(-p));
}

// First draws stepped ulp by ulp across T = 1-(1-p)^bits and across both
// edges of the guard band, T(1 - 1e-9) and T(1 + 1e-9): each must flip
// exactly what the reference loop flips from the same draw. A band below
// T calls draws clean that the loop flips on.
TEST(BitFlipper, MatchesReferenceAtTheGuardBandEdges) {
    constexpr int kSteps = 256;
    for (const double p : kRates) {
        for (const std::size_t size : kSizes) {
            const double t = no_flip_threshold(p, size);
            for (const double edge : {t * (1.0 - BitFlipper::kGuardBand), t,
                                      t * (1.0 + BitFlipper::kGuardBand)}) {
                double u = edge;
                for (int k = 0; k < kSteps; ++k) u = std::nextafter(u, 0.0);
                for (int k = -kSteps; k <= kSteps && u < 1.0; ++k) {
                    check_first_draw(p, size, u);
                    u = std::nextafter(u, 1.0);
                }
                if (HasFailure()) return;
            }
        }
    }
}

// Rounding puts the loop's own no-flip boundary an ulp or two above the
// computed T for about one (rate, size) in a thousand. A dense sweep of
// rates reaches such draws, so a threshold without the guard band, which
// calls every draw above T clean, fails here.
TEST(BitFlipper, MatchesReferenceJustAboveTheThreshold) {
    constexpr int kRatesInSweep = 4000;
    std::uint64_t near_misses = 0;  // draws above T that the loop flips on
    for (int k = 0; k < kRatesInSweep; ++k) {
        const double p =
            1e-6 * std::pow(0.5 / 1e-6, k / double{kRatesInSweep - 1});
        for (const std::size_t size : kSizes) {
            const double t = no_flip_threshold(p, size);
            double u = t;
            for (int step = 0; step < 4 && u < 1.0; ++step) {
                u = std::nextafter(u, 1.0);
                if (check_first_draw(p, size, u) > 0) ++near_misses;
            }
            if (HasFailure()) return;
        }
    }
    EXPECT_GT(near_misses, 0u);
}

TEST(BitFlipper, ExtremeRatesDrawNothing) {
    for (const double p : {0.0, 1.0}) {
        BitFlipper flipper(p, 4);
        Xoshiro256 rng(3);
        Xoshiro256 untouched(3);
        std::vector<std::uint8_t> data{0x0F, 0xF0, 0x00, 0xFF};
        EXPECT_EQ(flipper(data, rng), p > 0.0 ? 32u : 0u);
        EXPECT_EQ(rng(), untouched());
    }
    BitFlipper empty(0.5, 0);
    Xoshiro256 rng(3);
    Xoshiro256 untouched(3);
    EXPECT_EQ(empty({}, rng), 0u);
    EXPECT_EQ(rng(), untouched());
}

}  // namespace
}  // namespace lcf::util
