#include "clint/packets.hpp"

#include "clint/crc16.hpp"

namespace lcf::clint {

namespace {

void put_u16(std::span<std::uint8_t> out, std::size_t at, std::uint16_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 8);
    out[at + 1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
    return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

// CRC-16 over everything before the trailing two bytes, stored there.
void put_crc(std::span<std::uint8_t> wire) {
    const std::size_t body = wire.size() - 2;
    put_u16(wire, body, crc16(wire.first(body)));
}

bool crc_ok(std::span<const std::uint8_t> wire) {
    // A buffer too short to even hold the CRC field cannot check out;
    // without this guard `wire.size() - 2` underflows and the subspan
    // is UB. Truncation faults produce exactly such buffers.
    if (wire.size() < 2) return false;
    const std::size_t body = wire.size() - 2;
    return crc16(wire.subspan(0, body)) == get_u16(wire, body);
}

}  // namespace

std::array<std::uint8_t, ConfigPacket::kWireSize> ConfigPacket::encode()
    const {
    std::array<std::uint8_t, kWireSize> out{};
    out[0] = static_cast<std::uint8_t>(PacketType::kConfig);
    put_u16(out, 1, req);
    put_u16(out, 3, pre);
    put_u16(out, 5, ben);
    put_u16(out, 7, qen);
    put_crc(out);
    return out;
}

std::optional<ConfigPacket> ConfigPacket::decode(
    std::span<const std::uint8_t> wire) {
    if (wire.size() != kWireSize) return std::nullopt;
    if (wire[0] != static_cast<std::uint8_t>(PacketType::kConfig)) {
        return std::nullopt;
    }
    if (!crc_ok(wire)) return std::nullopt;
    ConfigPacket p;
    p.req = get_u16(wire, 1);
    p.pre = get_u16(wire, 3);
    p.ben = get_u16(wire, 5);
    p.qen = get_u16(wire, 7);
    return p;
}

std::array<std::uint8_t, GrantPacket::kWireSize> GrantPacket::encode()
    const {
    std::array<std::uint8_t, kWireSize> out{};
    out[0] = static_cast<std::uint8_t>(PacketType::kGrant);
    out[1] = static_cast<std::uint8_t>(((node_id & 0x0F) << 4) | (gnt & 0x0F));
    out[2] = static_cast<std::uint8_t>((gnt_val ? 0x4 : 0) |
                                       (link_err ? 0x2 : 0) |
                                       (crc_err ? 0x1 : 0));
    put_crc(out);
    return out;
}

std::optional<GrantPacket> GrantPacket::decode(
    std::span<const std::uint8_t> wire) {
    if (wire.size() != kWireSize) return std::nullopt;
    if (wire[0] != static_cast<std::uint8_t>(PacketType::kGrant)) {
        return std::nullopt;
    }
    if (!crc_ok(wire)) return std::nullopt;
    // Reserved flag bits must be zero: the encoder never sets them, and
    // accepting them would let a CRC-colliding corruption smuggle a
    // non-canonical frame past the round-trip property the fuzz harness
    // pins (encode(decode(wire)) == wire).
    if ((wire[2] & ~0x07) != 0) return std::nullopt;
    GrantPacket p;
    p.node_id = static_cast<std::uint8_t>(wire[1] >> 4);
    p.gnt = static_cast<std::uint8_t>(wire[1] & 0x0F);
    p.gnt_val = (wire[2] & 0x4) != 0;
    p.link_err = (wire[2] & 0x2) != 0;
    p.crc_err = (wire[2] & 0x1) != 0;
    return p;
}

}  // namespace lcf::clint
