#pragma once
// The Clint bulk channel (§4): a 16-port crossbar scheduled by the
// central LCF scheduler through a three-stage pipeline —
//
//   slot c    scheduling    hosts send configuration packets, the switch
//                           computes the LCF schedule and returns grants
//   slot c+1  transfer      granted hosts forward one bulk packet each
//   slot c+2  acknowledge   targets return acknowledgment packets
//
// The pipeline is fully overlapped: a new schedule is produced every
// slot. All control packets are CRC-protected and travel over
// bit-error-injecting links; the protocol recovers through the
// CRCErr/linkErr grant flags, acknowledgment timeouts, retransmission
// with optional bounded exponential backoff, and sequence-number
// duplicate suppression at the targets — all of which this model
// implements and its statistics expose.
//
// A fault::FaultPlan in the config layers deterministic fault storms on
// top: per-link bit-error epochs, whole-packet loss/truncation on the
// control wires, link down intervals, host crash/restart schedules, and
// scheduler stalls. With an empty plan the channel behaves
// bit-identically to a build without the fault layer.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "clint/link.hpp"
#include "clint/packets.hpp"
#include "clint/seq_tracker.hpp"
#include "core/lcf_central.hpp"
#include "core/precalc.hpp"
#include "fault/fault_injector.hpp"
#include "obs/sched_observer.hpp"
#include "sched/request_matrix.hpp"
#include "sim/metrics.hpp"
#include "sim/voq.hpp"
#include "traffic/traffic.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace lcf::clint {

/// Bulk-channel simulation parameters.
struct BulkChannelConfig {
    std::size_t hosts = 16;  ///< up to 16 (the packet formats carry 16 bits)
    std::size_t voq_capacity = 256;
    std::uint64_t slots = 10000;
    std::uint64_t warmup_slots = 1000;
    std::uint64_t seed = 1;
    double bit_error_rate = 0.0;  ///< per transmitted bit, on every link
    /// Nominal bulk payload size; data-packet corruption probability is
    /// 1-(1-ber)^bits for this many bits (control packets are modelled
    /// bit-exactly through their real encodings).
    std::size_t payload_bits = 16384;
    /// Nominal acknowledgment size; ack-loss probability is
    /// 1-(1-ber)^bits for this many bits.
    std::size_t ack_bits = 64;
    std::uint64_t ack_timeout = 4;  ///< slots before an unacked transfer retries
    /// Retransmission attempts before a transfer is abandoned; 0 means
    /// retry forever (the pre-fault-layer behavior).
    std::size_t max_retries = 0;
    /// Grow the retry timeout exponentially: attempt k waits
    /// min(ack_timeout << k, backoff_cap) slots for its ack. Off by
    /// default (every attempt waits ack_timeout).
    bool exponential_backoff = false;
    std::uint64_t backoff_cap = 64;  ///< ceiling for the backoff window
    /// Deterministic fault schedule; the default, empty plan leaves
    /// every slot quiet.
    fault::FaultPlan fault_plan;
    /// Validate the scheduler's unicast matching every slot with an
    /// obs::ParanoidChecker (diagonal-fairness checking stays off:
    /// precalculated multicast claims may legitimately occupy an output
    /// indefinitely). Violations throw std::logic_error from step().
    bool paranoid = false;
};

/// Former name of the shared conservation snapshot.
using BulkAccounting = sim::Accounting;

/// Measurements of one bulk-channel run.
struct BulkChannelResult {
    double mean_delay = 0.0;  ///< generation -> delivery, slots (post warm-up)
    double max_delay = 0.0;
    std::uint64_t p50_delay = 0;  ///< median first-delivery delay (post warm-up)
    std::uint64_t p99_delay = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered_unique = 0;  ///< first deliveries only
    std::uint64_t duplicate_deliveries = 0;  ///< suppressed re-deliveries
    std::uint64_t dropped_voq = 0;     ///< arrivals lost to full VOQs
    std::uint64_t config_crc_errors = 0;  ///< configs the switch rejected
    std::uint64_t grant_crc_errors = 0;   ///< grants the hosts rejected
    std::uint64_t configs_lost = 0;  ///< configs absorbed by the fault plan
    std::uint64_t grants_lost = 0;   ///< grants absorbed by the fault plan
    std::uint64_t data_corruptions = 0;   ///< bulk packets lost in flight
    std::uint64_t ack_losses = 0;         ///< acknowledgments lost in flight
    std::uint64_t retransmissions = 0;
    std::uint64_t abandoned = 0;   ///< undelivered, gave up after max_retries
    std::uint64_t crash_lost = 0;  ///< undelivered, destroyed by host crashes
    std::uint64_t recovered = 0;   ///< first deliveries that needed a retransmit
    /// Mean slots from first transmission to eventual first delivery,
    /// over recovered packets only.
    double mean_recovery_delay = 0.0;
    std::uint64_t multicast_copies = 0;  ///< per-target precalc deliveries
    std::uint64_t multicast_lost = 0;    ///< precalc copies lost to faults/crashes
    double goodput = 0.0;  ///< unique deliveries per host per post-warm-up slot
    /// Scheduler counters over the unicast matchings of every slot.
    obs::SchedCounters sched;
    /// What the fault plan did (all zero when the plan is empty).
    fault::FaultCounters faults;
};

/// Discrete-event simulation of the bulk channel.
class BulkChannelSim {
public:
    BulkChannelSim(const BulkChannelConfig& config,
                   std::unique_ptr<traffic::TrafficGenerator> traffic);

    /// Queue a multicast packet at `host` destined for every target in
    /// `target_mask`; it will be advertised through the configuration
    /// packet's `pre` field and admitted by the scheduler's
    /// precalculated stage (§4.3). Throws std::invalid_argument, naming
    /// the argument, for a `host` or a mask bit not below config.hosts.
    void enqueue_multicast(std::size_t host, std::uint16_t target_mask);

    /// Set the bulk-enable mask `host` reports in its configuration
    /// packets (the §4.1 `ben` field — "hosts use these fields to
    /// disable malfunctioning hosts"). The switch ANDs the masks of all
    /// hosts whose configuration decoded correctly; an initiator whose
    /// bit is cleared anywhere is fenced off: its requests and
    /// precalculated claims are ignored until re-enabled. Defaults to
    /// all-enabled. Throws std::invalid_argument, naming the argument, for
    /// a `host` not below config.hosts or a mask clearing such a bit.
    void set_bulk_enable_report(std::size_t host, std::uint16_t ben_mask);

    /// Initiators currently fenced off by the ben consensus (as of the
    /// last scheduling stage).
    [[nodiscard]] std::uint16_t fenced_mask() const noexcept {
        return fenced_mask_;
    }

    /// Advance one slot.
    void step();
    /// Run the configured number of slots.
    BulkChannelResult run();

    [[nodiscard]] std::uint64_t current_slot() const noexcept { return slot_; }
    [[nodiscard]] BulkChannelResult result() const;

    /// Packets currently buffered anywhere in the channel: VOQs,
    /// retransmit queues, unacknowledged transfers, and queued
    /// multicasts. Supports conservation checks in the test suite.
    [[nodiscard]] std::size_t buffered_total() const noexcept;

    /// Conservation snapshot as of the last slot boundary: queued is
    /// the VOQs and retransmit queues, in_flight the unacknowledged
    /// transfers, dropped VOQ overflow plus crash losses.
    [[nodiscard]] sim::Accounting accounting() const noexcept;

    /// True while `host` is inside a fault-plan crash interval.
    [[nodiscard]] bool host_up(std::size_t host) const noexcept {
        return !injector_.down_hosts().test(host);
    }

    /// Baseline per-transfer corruption probabilities implied by the
    /// configured bit-error rate: 1-(1-ber)^payload_bits and
    /// 1-(1-ber)^ack_bits. Exposed so tests can pin the formulas.
    [[nodiscard]] double data_corrupt_probability() const noexcept {
        return p_data_corrupt_;
    }
    [[nodiscard]] double ack_corrupt_probability() const noexcept {
        return p_ack_corrupt_;
    }

    /// Scheduler observation (its checker is engaged iff config.paranoid).
    [[nodiscard]] const obs::SchedObserver& observer() const noexcept {
        return observer_;
    }

    /// Acknowledgment packets emitted during the most recent step(), as
    /// (acking target, acked initiator) pairs. §4.1 routes these over
    /// the quick channel; the integrated cluster simulation injects
    /// them there so they contend with quick data traffic.
    [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
    last_acks() const noexcept {
        return last_acks_;
    }

private:
    /// A transfer awaiting its ack, or timed out and awaiting a regrant.
    struct Transfer {
        sim::Packet packet;
        std::uint64_t deadline = 0;  ///< last sent + its retry window
        std::uint64_t first_sent = 0;  ///< first transmission (recovery delay)
        std::uint32_t retries = 0;     ///< retransmissions so far
        bool delivered = false;  ///< target already has it (its ack was lost)
    };
    struct MulticastEntry {
        std::uint16_t target_mask = 0;
        std::uint64_t id = 0;
        std::uint64_t generated_slot = 0;
    };
    struct Host {
        sim::VoqBank voqs;
        std::uint16_t nonempty = 0;  // bit j: voqs.empty(j) is false
        std::vector<Transfer> retransmit;   // timed-out, awaiting regrant
        std::vector<Transfer> outstanding;  // awaiting ack
        std::vector<MulticastEntry> multicast;  // oldest first
        std::optional<std::uint8_t> pending_grant;  // target granted last slot
        // Precalc targets the last grant cycle admitted (none: no multicast).
        std::vector<std::size_t> pending_fanout;
        std::uint16_t ben_report = 0xFFFF;  // bulk-enable mask this host sends
    };

    [[nodiscard]] std::size_t flow_of(const sim::Packet& p) const noexcept {
        return static_cast<std::size_t>(p.source) * config_.hosts +
               p.destination;
    }
    [[nodiscard]] std::uint64_t retry_window(std::uint32_t retries)
        const noexcept;
    [[nodiscard]] std::uint16_t request_mask(const Host& h) const;
    void crash_host(std::size_t host);
    void step_arrivals();
    void step_timeouts();
    void step_transfers();
    void step_scheduling();
    /// Hand `t`'s packet to its target (a first delivery or a duplicate).
    void deliver(const Transfer& t);

    BulkChannelConfig config_;
    std::unique_ptr<traffic::TrafficGenerator> traffic_;
    core::LcfCentralScheduler scheduler_;
    std::vector<Host> hosts_;
    std::vector<ErrorLink> uplinks_;    // host -> switch (config packets)
    std::vector<ErrorLink> downlinks_;  // switch -> host (grant packets)
    util::Xoshiro256 data_rng_;         // payload/ack corruption draws
    double p_data_corrupt_ = 0.0;
    double p_ack_corrupt_ = 0.0;

    SeqTracker seq_;
    std::vector<std::uint64_t> next_flow_seq_;  // hosts * hosts
    std::vector<std::pair<std::size_t, std::size_t>> last_acks_;
    util::RunningStat delay_;
    util::Histogram delay_hist_{4096};
    util::RunningStat recovery_delay_;
    std::vector<bool> switch_crc_flag_;  // CRCErr to report per host
    std::vector<bool> switch_link_flag_;  // linkErr to report per host
    // Per-slot scheduling scratch: sized by the first step_scheduling(),
    // which keeps construction cheap, and rewritten every slot after that.
    sched::RequestMatrix requests_;
    util::BitVec req_row_;  // one host's `req` or `pre` word as a row
    core::PrecalcSchedule precalc_;
    core::MulticastResult schedule_;
    std::vector<std::optional<ConfigPacket>> decoded_cfgs_;
    // config_.bit_error_rate, which every link runs at, over each control
    // packet's size.
    util::BitFlipper config_flips_;
    util::BitFlipper grant_flips_;

    fault::FaultInjector injector_;
    // Per-slot arrival destinations (one batched traffic_->arrivals()
    // call per slot instead of hosts virtual calls).
    std::vector<std::int32_t> arrival_buf_;

    obs::SchedObserver observer_;

    std::uint64_t slot_ = 0;
    std::uint64_t next_packet_id_ = 0;
    std::uint16_t fenced_mask_ = 0;
    BulkChannelResult stats_;
    std::uint64_t delivered_after_warmup_ = 0;
};

}  // namespace lcf::clint
