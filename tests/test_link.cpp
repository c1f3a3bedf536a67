// Tests for the bit-error link model: error-free passthrough, flip-rate
// calibration, statistics, and the geometric-skip flip sampler the link
// is built on.

#include "clint/link.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/bitflip.hpp"
#include "util/rng.hpp"

namespace lcf::clint {
namespace {

TEST(ErrorLink, ZeroRateIsTransparent) {
    ErrorLink link(0.0, 1);
    const std::vector<std::uint8_t> data{1, 2, 3, 250};
    auto wire = data;
    link.transmit(wire);
    EXPECT_EQ(wire, data);
    EXPECT_EQ(link.corrupted_packets(), 0u);
    EXPECT_EQ(link.flipped_bits(), 0u);
}

TEST(ErrorLink, FlipRateIsCalibrated) {
    constexpr double kBer = 0.01;
    ErrorLink link(kBer, 7);
    std::vector<std::uint8_t> data(100, 0);
    std::uint64_t total_bits = 0;
    for (int packet = 0; packet < 200; ++packet) {
        link.transmit(data);
        total_bits += data.size() * 8;
    }
    const double rate = static_cast<double>(link.flipped_bits()) /
                        static_cast<double>(total_bits);
    EXPECT_NEAR(rate, kBer, 0.002);
}

TEST(ErrorLink, CorruptedPacketCounterTracksPackets) {
    ErrorLink link(1.0, 3);  // every bit flips
    std::vector<std::uint8_t> out{0x00, 0xFF};
    link.transmit(out);
    EXPECT_EQ(out[0], 0xFF);
    EXPECT_EQ(out[1], 0x00);
    EXPECT_EQ(link.corrupted_packets(), 1u);
    EXPECT_EQ(link.flipped_bits(), 16u);
}

// The geometric-skip sampler must stay calibrated at rates far below
// what the old per-bit Bernoulli loop could afford to test — and far
// below the resolution of the 16-bit fixed-point word sampler, which
// quantizes 1e-6 to zero.
TEST(ErrorLink, LowRateFlipRateIsCalibrated) {
    constexpr double kBer = 1e-4;
    ErrorLink link(kBer, 21);
    std::vector<std::uint8_t> data(2000, 0x5A);
    std::uint64_t total_bits = 0;
    for (int packet = 0; packet < 1000; ++packet) {
        link.transmit(data);
        total_bits += data.size() * 8;
    }
    // 16M bits at 1e-4: expect 1600 flips, sd = 40; 5 sd = 200.
    const double rate = static_cast<double>(link.flipped_bits()) /
                        static_cast<double>(total_bits);
    EXPECT_NEAR(rate, kBer, 200.0 / static_cast<double>(total_bits));
}

TEST(ErrorLink, TinyRateStillFlips) {
    constexpr double kBer = 1e-6;
    ErrorLink link(kBer, 33);
    std::vector<std::uint8_t> data(1 << 20, 0);  // 8.4M bits each
    for (int packet = 0; packet < 12; ++packet) link.transmit(data);
    // ~100 expected flips; zero has probability e^-100.
    EXPECT_GT(link.flipped_bits(), 0u);
    EXPECT_LT(link.flipped_bits(), 500u);
}

TEST(BitFlip, ExtremeProbabilities) {
    util::Xoshiro256 rng(5);
    std::vector<std::uint8_t> data{0x0F, 0xF0};
    EXPECT_EQ(util::flip_bits({data.data(), data.size()}, 0.0, rng), 0u);
    EXPECT_EQ(data[0], 0x0F);
    EXPECT_EQ(util::flip_bits({data.data(), data.size()}, 1.0, rng), 16u);
    EXPECT_EQ(data[0], 0xF0);
    EXPECT_EQ(data[1], 0x0F);
    EXPECT_EQ(util::flip_bits({}, 0.5, rng), 0u);
}

TEST(BitFlip, DeterministicPerSeed) {
    util::Xoshiro256 a(123);
    util::Xoshiro256 b(123);
    std::vector<std::uint8_t> da(256, 0xAB);
    std::vector<std::uint8_t> db(256, 0xAB);
    const auto fa = util::flip_bits({da.data(), da.size()}, 0.01, a);
    const auto fb = util::flip_bits({db.data(), db.size()}, 0.01, b);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(da, db);
}

TEST(ErrorLink, RejectsInvalidRate) {
    EXPECT_THROW(ErrorLink(-0.1, 1), std::invalid_argument);
    EXPECT_THROW(ErrorLink(1.1, 1), std::invalid_argument);
}

TEST(ErrorLink, RejectsNanRateNamingTheField) {
    // Regression: `ber < 0 || ber > 1` let NaN through, and the flip
    // sampler then ran with a NaN gap.
    try {
        ErrorLink link(std::nan(""), 1);
        ADD_FAILURE() << "accepted a NaN bit_error_rate";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bit_error_rate"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ErrorLink, EmptyPacket) {
    ErrorLink link(0.5, 9);
    link.transmit({});
    EXPECT_EQ(link.corrupted_packets(), 0u);
    EXPECT_EQ(link.flipped_bits(), 0u);
}

}  // namespace
}  // namespace lcf::clint
