#pragma once
// Deterministic execution of a FaultPlan. Every simulated channel/switch
// owns one FaultInjector, even for an empty plan (whose slots are all
// quiet): it calls begin_slot() at the top of each slot, reads the
// down-host set and the stall predicate, and routes every wire through
// transmit() and every abstract packet through absorbs(). All randomness
// comes from per-link RNG streams derived from the plan's seed, so fault
// realisations are independent of the simulation's traffic and
// baseline-error draws — adding a fault plan never perturbs what the
// underlying run would have done, and the same plan replays
// bit-identically.

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/bitflip.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace lcf::fault {

/// Everything the injector did to a run. Plain sums, mergeable across
/// runs/threads like obs::SchedCounters.
struct FaultCounters {
    std::uint64_t packets_dropped = 0;    ///< absorbed whole (loss or link down)
    std::uint64_t packets_truncated = 0;  ///< cut short in flight
    std::uint64_t packets_corrupted = 0;  ///< suffered >= 1 epoch bit flip
    std::uint64_t bits_flipped = 0;       ///< epoch-injected flips
    std::uint64_t crashes = 0;            ///< host crash transitions
    std::uint64_t restarts = 0;           ///< host restart transitions
    std::uint64_t stalled_slots = 0;      ///< scheduler-stall slots observed

    void merge(const FaultCounters& other) noexcept;
    friend bool operator==(const FaultCounters&,
                           const FaultCounters&) = default;
};

/// Executes one FaultPlan against one simulated channel. Deterministic:
/// queries draw from per-link Xoshiro256 streams seeded from the plan.
class FaultInjector {
public:
    /// Validates the plan (throws std::invalid_argument when malformed).
    explicit FaultInjector(FaultPlan plan);

    /// Prepare for a run over `hosts` hosts/ports: marks every host up,
    /// forgets all counters and, when the plan has a bit-error,
    /// packet-loss or link-down entry (only those make a slot draw),
    /// derives one RNG stream per (link kind, index). Throws
    /// std::invalid_argument, naming the field, when a crash targets a
    /// host >= `hosts`, a link selector other than kAllLinks indexes
    /// past the last host, or streams are derived for more than 4096
    /// hosts (the streams of one link kind would run into the next's).
    void reset(std::size_t hosts);

    /// Per-slot liveness: recomputes down_hosts() for `slot` (only when
    /// the plan has crash entries) and counts crash/restart transitions
    /// as host state changes since the last call (not plan entries),
    /// plus scheduler-stall slots. Call once per simulated slot, in
    /// slot order.
    void begin_slot(std::uint64_t slot);

    /// True when the last begin_slot() was for `slot` and found no
    /// link-down, packet-loss or bit-error entry active: every wire then
    /// passes untouched without a draw, and transmit(), absorbs() (past
    /// its liveness test) and corruption_probability() return at once.
    /// Every slot of an empty plan is quiet.
    [[nodiscard]] bool quiet(std::uint64_t slot) const noexcept {
        return quiet_slot_ == slot;
    }

    /// Hosts inside a crash interval at the last begin_slot().
    [[nodiscard]] const util::BitVec& down_hosts() const noexcept {
        return down_;
    }
    /// Hosts that went down at the last begin_slot().
    [[nodiscard]] const util::BitVec& crashed() const noexcept {
        return crashed_;
    }

    /// False while the link is inside a down interval.
    [[nodiscard]] bool link_up(LinkKind kind, std::size_t index,
                               std::uint64_t slot) const noexcept;
    /// True while `slot` falls in a scheduler-stall interval.
    [[nodiscard]] bool scheduler_stalled(std::uint64_t slot) const noexcept;
    /// Additional bit-error probability active on the link at `slot`
    /// (independent epochs compose: 1 - prod(1 - ber_k)).
    [[nodiscard]] double extra_ber(LinkKind kind, std::size_t index,
                                   std::uint64_t slot) const noexcept;

    /// Wire path: apply the plan's faults for this link and slot to
    /// `wire` in place. Returns nullopt when the packet is absorbed
    /// whole (link down or a loss draw); otherwise the length that
    /// arrives, shorter than `wire` when the packet was truncated. Epoch
    /// bit errors are applied to the surviving `wire.first(length)`.
    [[nodiscard]] std::optional<std::size_t> transmit(
        LinkKind kind, std::size_t index, std::uint64_t slot,
        std::span<std::uint8_t> wire);

    /// Link-down check plus a whole-packet loss draw for one packet on
    /// link (kind, index) at `slot`. True when the packet is lost.
    bool packet_lost(LinkKind kind, std::size_t index, std::uint64_t slot);

    /// Abstract path, for payloads modelled by nominal size without
    /// materialised bytes: true when a packet sent on link (kind, index)
    /// to host `dest` is absorbed, because `dest` is down or by
    /// packet_lost(). (Epoch bit errors on abstract paths are folded
    /// into the channel's own corruption draw by
    /// corruption_probability() below.)
    bool absorbs(LinkKind kind, std::size_t index, std::size_t dest,
                 std::uint64_t slot) {
        return down_.test(dest) ||
               (!quiet(slot) && packet_lost(kind, index, slot));
    }

    /// Corruption probability of a `bits`-bit packet on link (kind,
    /// index) at `slot`: the channel's baseline probability `base`
    /// composed with the plan's extra bit-error rate there,
    /// 1-(1-base)*(1-extra)^bits. Returns `base` in a quiet slot or
    /// when no epoch is active on the link.
    [[nodiscard]] double corruption_probability(
        double base, LinkKind kind, std::size_t index, std::uint64_t slot,
        std::size_t bits) const noexcept {
        const double extra = quiet(slot) ? 0.0 : extra_ber(kind, index, slot);
        if (extra <= 0.0) return base;
        return 1.0 - (1.0 - base) *
                         std::pow(1.0 - extra, static_cast<double>(bits));
    }

    [[nodiscard]] const FaultCounters& counters() const noexcept {
        return counters_;
    }

private:
    [[nodiscard]] util::Xoshiro256& rng_for(LinkKind kind,
                                            std::size_t index) noexcept;

    FaultPlan plan_;
    std::size_t hosts_ = 0;
    std::vector<util::Xoshiro256> rngs_;  // kLinkKinds * hosts_, or none
    util::BitVec down_;
    util::BitVec crashed_;
    std::optional<std::uint64_t> quiet_slot_;  // see quiet()
    util::BitFlipper epoch_flips_;  // last (rate, size) an epoch flipped
    FaultCounters counters_;
};

/// Independent-bit corruption probability of a `bits`-bit packet at
/// bit-error rate `ber`: 1-(1-ber)^bits.
[[nodiscard]] double corruption_probability(double ber,
                                            std::size_t bits) noexcept;

}  // namespace lcf::fault
