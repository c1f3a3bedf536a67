#pragma once
// Declarative fault plans for the Clint protocol stack and the switch
// simulator. A FaultPlan is plain data — a seeded, slot-indexed schedule
// of everything that can go wrong on a cluster: per-link bit-error
// epochs, whole-packet loss and truncation, link up/down intervals,
// host crash/restart schedules, and scheduler-stall slots. The
// fault::FaultInjector executes a plan deterministically; the same plan
// and seed always produce the same fault sequence, so every soak
// failure replays exactly.
//
// All intervals are half-open [begin, end) in slot numbers; an `end` of
// kForever means the fault never clears.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lcf::fault {

/// Sentinel for intervals that never end (a host that never restarts, a
/// link that stays down).
inline constexpr std::uint64_t kForever = ~std::uint64_t{0};

/// Which link of a simulated channel a wire-level fault applies to. The
/// channels map these onto their own topology: the bulk channel has one
/// uplink (configuration packets) and one downlink (grant packets) per
/// host plus the abstract data/ack paths; the quick channel uses only
/// the data/ack paths.
enum class LinkKind : std::uint8_t {
    kUplink = 0,    ///< host -> switch control (bulk: configuration packets)
    kDownlink = 1,  ///< switch -> host control (bulk: grant packets)
    kData = 2,      ///< payload path (bulk transfer / quick data)
    kAck = 3,       ///< acknowledgment path
};
inline constexpr std::size_t kLinkKinds = 4;

/// Selects the links a fault applies to: one (kind, index) pair, or
/// every link of the kind when `index` is kAllLinks.
inline constexpr std::int32_t kAllLinks = -1;
struct LinkSelector {
    LinkKind kind = LinkKind::kData;
    std::int32_t index = kAllLinks;  ///< host/port index, or kAllLinks

    [[nodiscard]] bool matches(LinkKind k, std::size_t i) const noexcept {
        return kind == k && (index == kAllLinks ||
                             static_cast<std::size_t>(index) == i);
    }
};

/// During [begin, end), the selected links flip each transmitted bit
/// with an *additional* probability `bit_error_rate` on top of whatever
/// baseline the channel already models — the burst regime layered over
/// the quiescent one.
struct BitErrorEpoch {
    LinkSelector link;
    std::uint64_t begin = 0;
    std::uint64_t end = kForever;
    double bit_error_rate = 0.0;
};

/// During [begin, end), each packet on the selected links is lost whole
/// with probability `loss`, and (if it survives) truncated to a random
/// strictly shorter length with probability `truncation`.
struct PacketLossEpoch {
    LinkSelector link;
    std::uint64_t begin = 0;
    std::uint64_t end = kForever;
    double loss = 0.0;
    double truncation = 0.0;
};

/// The selected links carry nothing during [begin, end): every packet
/// is absorbed.
struct LinkDownInterval {
    LinkSelector link;
    std::uint64_t begin = 0;
    std::uint64_t end = kForever;
};

/// Host `host` crashes at `crash_slot` (losing all buffered protocol
/// state) and restarts empty at `restart_slot` (kForever = never). While
/// down it neither transmits nor receives; the switch masks it out of
/// the request matrix so scheduling degrades to the surviving ports.
struct HostCrash {
    std::size_t host = 0;
    std::uint64_t crash_slot = 0;
    std::uint64_t restart_slot = kForever;
};

/// The scheduler produces no grants during [begin, end): every slot in
/// the interval passes without a matching (a hardware stall / config
/// upset in the switch core).
struct SchedulerStall {
    std::uint64_t begin = 0;
    std::uint64_t end = kForever;
};

/// A complete, declarative fault schedule. Plain data: build one with
/// designated initializers or helper methods, hand it to a simulation
/// config, done. validate() throws std::invalid_argument on malformed
/// entries (probabilities outside [0,1], end < begin).
struct FaultPlan {
    std::vector<BitErrorEpoch> bit_error_epochs;
    std::vector<PacketLossEpoch> packet_loss_epochs;
    std::vector<LinkDownInterval> link_down_intervals;
    std::vector<HostCrash> host_crashes;
    std::vector<SchedulerStall> scheduler_stalls;
    /// Seed for the injector's per-link RNG streams, independent of the
    /// simulation's own seed so fault realisations don't perturb
    /// traffic or baseline-error draws.
    std::uint64_t seed = 0x0F4117;

    /// Throw std::invalid_argument on malformed entries.
    void validate() const;

    // Fluent helpers for the common cases (return *this for chaining).
    FaultPlan& add_bit_error_epoch(LinkSelector link, std::uint64_t begin,
                                   std::uint64_t end, double ber);
    FaultPlan& add_packet_loss(LinkSelector link, std::uint64_t begin,
                               std::uint64_t end, double loss,
                               double truncation = 0.0);
    FaultPlan& add_link_down(LinkSelector link, std::uint64_t begin,
                             std::uint64_t end);
    FaultPlan& add_host_crash(std::size_t host, std::uint64_t crash_slot,
                              std::uint64_t restart_slot = kForever);
    FaultPlan& add_scheduler_stall(std::uint64_t begin, std::uint64_t end);
};

}  // namespace lcf::fault
