// Tests for the Clint packet codecs: round-trips, wire layout, CRC
// rejection, and type discrimination.

#include "clint/packets.hpp"

#include "clint/crc16.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace lcf::clint {
namespace {

TEST(ConfigPacket, RoundTrip) {
    ConfigPacket p;
    p.req = 0xA5F0;
    p.pre = 0x0102;
    p.ben = 0xFFFF;
    p.qen = 0x8001;
    const auto wire = p.encode();
    EXPECT_EQ(wire.size(), ConfigPacket::kWireSize);
    const auto decoded = ConfigPacket::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
}

TEST(ConfigPacket, RejectsEverySingleBitCorruption) {
    const auto wire = ConfigPacket{0x1234, 0, 0xFFFF, 0xFFFF}.encode();
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto bad = wire;
            bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1U << bit));
            EXPECT_FALSE(ConfigPacket::decode(bad).has_value())
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(ConfigPacket, RejectsWrongLength) {
    const auto encoded = ConfigPacket{}.encode();
    std::vector<std::uint8_t> wire(encoded.begin(), encoded.end());
    wire.push_back(0);
    EXPECT_FALSE(ConfigPacket::decode(wire).has_value());
    wire.resize(ConfigPacket::kWireSize - 1);
    EXPECT_FALSE(ConfigPacket::decode(wire).has_value());
}

// Truncation faults hand the decoder arbitrarily short buffers —
// including ones too short to hold even the CRC field, which used to
// make the checksum helper's `size() - 2` underflow. Every length from
// empty to oversized must be rejected cleanly.
TEST(ConfigPacket, RejectsTruncatedEmptyAndOversizedWires) {
    const auto wire = ConfigPacket{0xBEEF, 0x0001, 0xFFFF, 0xFFFF}.encode();
    EXPECT_FALSE(ConfigPacket::decode({}).has_value());
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const auto cut = std::vector<std::uint8_t>(wire.begin(),
                                                   wire.begin() +
                                                       static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(ConfigPacket::decode(cut).has_value()) << "len " << len;
    }
    std::vector<std::uint8_t> grown(wire.begin(), wire.end());
    grown.insert(grown.end(), 5, 0xAA);
    EXPECT_FALSE(ConfigPacket::decode(grown).has_value());
}

TEST(GrantPacket, RejectsTruncatedEmptyAndOversizedWires) {
    const auto wire = GrantPacket{4, 2, true, false, true}.encode();
    EXPECT_FALSE(GrantPacket::decode({}).has_value());
    for (std::size_t len = 0; len < wire.size(); ++len) {
        const auto cut = std::vector<std::uint8_t>(wire.begin(),
                                                   wire.begin() +
                                                       static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(GrantPacket::decode(cut).has_value()) << "len " << len;
    }
    std::vector<std::uint8_t> grown(wire.begin(), wire.end());
    grown.push_back(0);
    EXPECT_FALSE(GrantPacket::decode(grown).has_value());
}

TEST(GrantPacket, RoundTripAllFlagCombinations) {
    for (int flags = 0; flags < 8; ++flags) {
        GrantPacket p;
        p.node_id = 11;
        p.gnt = 7;
        p.gnt_val = (flags & 4) != 0;
        p.link_err = (flags & 2) != 0;
        p.crc_err = (flags & 1) != 0;
        const auto decoded = GrantPacket::decode(p.encode());
        ASSERT_TRUE(decoded.has_value()) << flags;
        EXPECT_EQ(*decoded, p) << flags;
    }
}

TEST(GrantPacket, FourBitFieldsMaskHighBits) {
    GrantPacket p;
    p.node_id = 15;
    p.gnt = 15;
    p.gnt_val = true;
    const auto decoded = GrantPacket::decode(p.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->node_id, 15);
    EXPECT_EQ(decoded->gnt, 15);
}

TEST(GrantPacket, RejectsCorruption) {
    const auto wire = GrantPacket{3, 9, true, false, false}.encode();
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
        auto bad = wire;
        bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ 0x10);
        EXPECT_FALSE(GrantPacket::decode(bad).has_value());
    }
}

// Regression for a gap the packets fuzz harness's round-trip property
// surfaced: the five reserved bits of the grant flag byte were ignored
// by decode(), so a CRC-valid frame with reserved bits set decoded to a
// packet whose re-encoding differed from the wire — a non-canonical
// frame the encoder can never produce. Reserved bits must now be zero.
TEST(GrantPacket, RejectsReservedFlagBits) {
    const auto canonical = GrantPacket{3, 5, true, false, false}.encode();
    for (int bit = 3; bit < 8; ++bit) {
        // Rebuild the frame with one reserved bit set and a *correct*
        // CRC, so only the canonical-frame rule can reject it.
        auto body = std::vector<std::uint8_t>(canonical.begin(),
                                              canonical.end() - 2);
        body[2] = static_cast<std::uint8_t>(body[2] | (1U << bit));
        const std::uint16_t crc = crc16({body.data(), body.size()});
        body.push_back(static_cast<std::uint8_t>(crc >> 8));
        body.push_back(static_cast<std::uint8_t>(crc & 0xFF));
        EXPECT_FALSE(GrantPacket::decode(body).has_value())
            << "reserved bit " << bit << " accepted";
    }
    // The canonical frame itself still decodes.
    EXPECT_TRUE(GrantPacket::decode(canonical).has_value());
}

// The fuzzer's garbage-byte path, pinned as a unit test: every single-
// byte overwrite (not just single-bit flips) of valid config and grant
// frames must be rejected — a <= 8-bit burst is always caught by CRC-16,
// and byte 0 by the type tag.
TEST(Packets, RejectsEverySingleByteOverwrite) {
    const auto cfg = ConfigPacket{0xDEAD, 0xBEEF, 0x0F0F, 0xF0F0}.encode();
    const auto gnt = GrantPacket{9, 6, true, true, false}.encode();
    util::Xoshiro256 rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
        const auto value = static_cast<std::uint8_t>(rng());
        for (std::size_t at = 0; at < cfg.size(); ++at) {
            if (cfg[at] == value) continue;
            auto bad = cfg;
            bad[at] = value;
            EXPECT_FALSE(ConfigPacket::decode(bad).has_value())
                << "config byte " << at << " <- " << static_cast<int>(value);
        }
        for (std::size_t at = 0; at < gnt.size(); ++at) {
            if (gnt[at] == value) continue;
            auto bad = gnt;
            bad[at] = value;
            EXPECT_FALSE(GrantPacket::decode(bad).has_value())
                << "grant byte " << at << " <- " << static_cast<int>(value);
        }
    }
}

TEST(Packets, TypeTagsAreMutuallyExclusive) {
    const auto cfg_wire = ConfigPacket{}.encode();
    const auto gnt_wire = GrantPacket{}.encode();
    EXPECT_FALSE(GrantPacket::decode(cfg_wire).has_value());
    EXPECT_FALSE(ConfigPacket::decode(gnt_wire).has_value());
}

TEST(Packets, RandomGarbageRejected) {
    util::Xoshiro256 rng(404);
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::uint8_t> junk(ConfigPacket::kWireSize);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
        // Even with a lucky type byte the CRC must fail almost surely.
        if (ConfigPacket::decode(junk).has_value()) {
            // Probability ~2^-24; treat an occurrence as suspicious.
            ADD_FAILURE() << "random garbage decoded as config packet";
        }
    }
}

// The bulk channel hands a packet whose wire nothing can touch straight
// to the receiver, skipping encode and decode; that is exact only if the
// codec round-trips every packet the channel sends.
TEST(Packets, DecodeOfEncodeIsIdentityForRandomConfigs) {
    util::Xoshiro256 rng(2024);
    for (int trial = 0; trial < 100000; ++trial) {
        const ConfigPacket p{static_cast<std::uint16_t>(rng()),
                             static_cast<std::uint16_t>(rng()),
                             static_cast<std::uint16_t>(rng()),
                             static_cast<std::uint16_t>(rng())};
        ASSERT_EQ(ConfigPacket::decode(p.encode()), p) << "trial " << trial;
    }
}

// Canonical grants: 4-bit node id and target, any flag combination.
TEST(Packets, DecodeOfEncodeIsIdentityForCanonicalGrants) {
    for (unsigned node = 0; node < 16; ++node) {
        for (unsigned gnt = 0; gnt < 16; ++gnt) {
            for (unsigned flags = 0; flags < 8; ++flags) {
                const GrantPacket p{static_cast<std::uint8_t>(node),
                                    static_cast<std::uint8_t>(gnt),
                                    (flags & 4) != 0, (flags & 2) != 0,
                                    (flags & 1) != 0};
                ASSERT_EQ(GrantPacket::decode(p.encode()), p)
                    << "node " << node << " gnt " << gnt << " flags " << flags;
            }
        }
    }
}

}  // namespace
}  // namespace lcf::clint
