#pragma once
// Whole-cluster Clint simulation: the segregated architecture of §4 with
// both transmission channels running side by side over a star topology
// of up to 16 hosts — the scheduled, collision-free bulk channel and the
// best-effort quick channel. This is the software stand-in for the Clint
// hardware prototype (see DESIGN.md, substitutions).

#include <cstdint>
#include <memory>
#include <string>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"

namespace lcf::clint {

/// Cluster-level parameters; the per-channel loads are independent, as
/// in the real system (separate switches and links per channel).
struct ClintConfig {
    std::size_t hosts = 16;
    std::uint64_t slots = 10000;
    std::uint64_t warmup_slots = 1000;
    std::uint64_t seed = 7;
    double bulk_load = 0.6;     ///< bulk packets per host per slot
    double quick_load = 0.2;    ///< quick packets per host per slot
    double bit_error_rate = 0.0;
    std::string traffic = "uniform";
    /// When true the two channels are stepped in lockstep and every
    /// bulk acknowledgment is injected into the quick channel as a
    /// control packet (§4.1: "bulk acknowledgments ... use the quick
    /// channel"), where it preempts and collides with quick data. When
    /// false the channels run independently (ack bandwidth ignored).
    bool integrated = false;
    /// Deterministic fault schedules, one per channel (the real system
    /// has physically separate switches and links per channel, so a
    /// fault on one never touches the other). An empty plan leaves every
    /// slot of its channel quiet.
    fault::FaultPlan bulk_faults;
    fault::FaultPlan quick_faults;
};

/// Combined results of both channels.
struct ClintResult {
    BulkChannelResult bulk;
    QuickChannelResult quick;
    std::uint64_t quick_control_sent = 0;        ///< integrated mode only
    std::uint64_t quick_control_preemptions = 0; ///< integrated mode only
};

/// Run a full cluster simulation. Returns per-channel metrics; the
/// quickstart example and bench_clint print them side by side to show
/// the architecture's division of labour (scheduled throughput vs
/// best-effort latency).
ClintResult run_clint(const ClintConfig& config);

}  // namespace lcf::clint
