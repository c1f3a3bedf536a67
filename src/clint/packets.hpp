#pragma once
// Clint control-packet formats (§4.1). Two packet types travel on the
// quick channel between hosts and the bulk scheduler:
//
//   configuration (host -> switch):
//     {type=cfg | req[15..0] | pre[15..0] | ben[15..0] | qen[15..0] |
//      CRC[15..0]}
//   grant (switch -> host):
//     {type=gnt | nodeId[3..0] | gnt[3..0] | gntVal | linkErr | CRCErr |
//      CRC[15..0]}
//
// The codecs here serialise to the wire byte layout, protect everything
// before the CRC field with CRC-16, and refuse to decode corrupted or
// mistyped buffers — exactly the behaviour the protocol relies on for
// its linkErr/CRCErr reporting.

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace lcf::clint {

/// Wire type tags.
enum class PacketType : std::uint8_t {
    kConfig = 0xC5,
    kGrant = 0x6A,
};

/// Host -> switch configuration packet.
struct ConfigPacket {
    std::uint16_t req = 0;  ///< requested targets (bit j: VOQ j non-empty)
    std::uint16_t pre = 0;  ///< precalculated-schedule targets (§4.3)
    std::uint16_t ben = 0;  ///< bulk-enabled initiators (fault isolation)
    std::uint16_t qen = 0;  ///< quick-enabled initiators (fault isolation)

    /// Wire size in bytes (type + 4 fields + CRC).
    static constexpr std::size_t kWireSize = 11;

    /// Serialise including the trailing CRC.
    [[nodiscard]] std::array<std::uint8_t, kWireSize> encode() const;
    /// Decode and CRC-check; nullopt when the buffer is not a valid
    /// configuration packet.
    [[nodiscard]] static std::optional<ConfigPacket> decode(
        std::span<const std::uint8_t> wire);

    friend bool operator==(const ConfigPacket&, const ConfigPacket&) = default;
};

/// Switch -> host grant packet.
struct GrantPacket {
    std::uint8_t node_id = 0;  ///< host id assignment (init time), 4 bits
    std::uint8_t gnt = 0;      ///< granted target, 4 bits
    bool gnt_val = false;      ///< gnt field is valid
    bool link_err = false;     ///< link error seen since last grant
    bool crc_err = false;      ///< last config packet bad or missing

    static constexpr std::size_t kWireSize = 5;

    [[nodiscard]] std::array<std::uint8_t, kWireSize> encode() const;
    [[nodiscard]] static std::optional<GrantPacket> decode(
        std::span<const std::uint8_t> wire);

    friend bool operator==(const GrantPacket&, const GrantPacket&) = default;
};

}  // namespace lcf::clint
