// Fuzz harness for the Clint wire codecs (§4.1 config/grant packets,
// docs/clint.md). Three properties, checked on every input:
//
//   1. decode() never crashes, whatever the bytes — truncated, oversized,
//      mistyped, or CRC-corrupt frames must all be rejected cleanly.
//   2. Accepted frames round-trip: encode(decode(wire)) == wire, so the
//      decoder cannot "repair" a frame into something the encoder would
//      not produce.
//   3. Field round-trip: encode() of any packet built from fuzz-chosen
//      field values decodes back to the same packet, and a single-byte
//      corruption of that encoding is always rejected (CRC-16 detects
//      every burst error of <= 16 bits, and the type tag guards byte 0).
//
// Seed corpus: fuzz/corpus/packets (tools/make_fuzz_corpus.py).

#include <cstdint>
#include <optional>
#include <span>

#include "clint/packets.hpp"
#include "fuzz_common.hpp"

namespace {

using lcf::clint::ConfigPacket;
using lcf::clint::GrantPacket;

std::uint16_t u16(lcf::fuzz::ByteReader& in) {
    // Two statements: the evaluation order of `|` operands is
    // unspecified, and corpus semantics must not depend on the compiler.
    const unsigned hi = in.u8();
    const unsigned lo = in.u8();
    return static_cast<std::uint16_t>((hi << 8) | lo);
}

template <typename Packet>
void check_accepted_roundtrip(std::span<const std::uint8_t> wire) {
    const std::optional<Packet> decoded = Packet::decode(wire);
    if (!decoded) return;
    const auto re = decoded->encode();
    LCF_FUZZ_ASSERT(re.size() == wire.size(),
                    "re-encode changed wire size: %zu -> %zu", wire.size(),
                    re.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        LCF_FUZZ_ASSERT(re[i] == wire[i],
                        "re-encode diverges at byte %zu: %02x -> %02x", i,
                        wire[i], re[i]);
    }
}

template <typename Packet>
void check_field_roundtrip(const Packet& p, lcf::fuzz::ByteReader& in) {
    auto wire = p.encode();
    LCF_FUZZ_ASSERT(wire.size() == Packet::kWireSize,
                    "encode produced %zu bytes, expected %zu", wire.size(),
                    Packet::kWireSize);
    const std::optional<Packet> back = Packet::decode(wire);
    LCF_FUZZ_ASSERT(back.has_value(), "encode() output rejected by decode()");
    LCF_FUZZ_ASSERT(*back == p, "field round-trip changed the packet");

    // Any single corrupted byte must be caught: byte 0 by the type tag,
    // everything else by the CRC (a <= 8-bit burst).
    const std::size_t at = in.index(wire.size());
    const std::uint8_t flip = static_cast<std::uint8_t>(in.u8() | 1u);
    wire[at] ^= flip;
    LCF_FUZZ_ASSERT(!Packet::decode(wire).has_value(),
                    "single-byte corruption (byte %zu ^ %02x) was accepted",
                    at, flip);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    // Property 1 + 2: the raw input as a hostile wire frame.
    const std::span<const std::uint8_t> wire(data, size);
    check_accepted_roundtrip<ConfigPacket>(wire);
    check_accepted_roundtrip<GrantPacket>(wire);

    // Property 3: the input as field material.
    lcf::fuzz::ByteReader in(data, size);
    ConfigPacket config;
    config.req = u16(in);
    config.pre = u16(in);
    config.ben = u16(in);
    config.qen = u16(in);
    check_field_roundtrip(config, in);

    GrantPacket grant;
    grant.node_id = static_cast<std::uint8_t>(in.u8() & 0x0F);
    grant.gnt = static_cast<std::uint8_t>(in.u8() & 0x0F);
    const std::uint8_t bits = in.u8();
    grant.gnt_val = (bits & 0x4) != 0;
    grant.link_err = (bits & 0x2) != 0;
    grant.crc_err = (bits & 0x1) != 0;
    check_field_roundtrip(grant, in);
    return 0;
}
