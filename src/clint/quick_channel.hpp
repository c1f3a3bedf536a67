#pragma once
// The Clint quick channel (§4): a best-effort, unscheduled crossbar
// optimised for low latency. Hosts transmit whenever they have a packet;
// when several packets head for the same target in one slot, one wins
// (rotating priority) and the others are dropped in the switch. Senders
// run stop-and-wait: a missing acknowledgment triggers retransmission
// after a timeout, up to a retry limit.
//
// Arbitration is one pass over the hosts. Each host records its
// destination for the slot, and each target keeps the contender with
// the smallest rotated rank (h - pointer) mod hosts: the first one a
// scan from its priority pointer would meet. Collisions are senders
// minus winners; a winner moves the pointer past itself. After warm-up
// a slot allocates nothing.
//
// A fault::FaultPlan in the config layers deterministic faults on top:
// extra bit-error epochs and packet loss on the data/ack paths plus host
// crash/restart schedules. (Scheduler stalls do not apply — the quick
// channel is unscheduled.) With an empty plan the channel behaves
// bit-identically to a build without the fault layer.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_injector.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_queue.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lcf::clint {

/// Quick-channel simulation parameters.
struct QuickChannelConfig {
    std::size_t hosts = 16;
    std::size_t queue_capacity = 64;  ///< per-host send queue
    std::uint64_t slots = 10000;
    std::uint64_t warmup_slots = 1000;
    std::uint64_t seed = 2;
    double bit_error_rate = 0.0;   ///< corrupts data and ack packets
    std::size_t payload_bits = 1024;  ///< nominal quick packet size
    /// Nominal acknowledgment size; ack-loss probability is
    /// 1-(1-ber)^bits for this many bits.
    std::size_t ack_bits = 64;
    std::uint64_t ack_timeout = 2;  ///< slots without ack before retry
    std::size_t max_retries = 16;   ///< give up (and count) after this many
    /// Deterministic fault schedule; the default, empty plan leaves
    /// every slot quiet.
    fault::FaultPlan fault_plan;
};

/// Former name of the shared conservation snapshot.
using QuickAccounting = sim::Accounting;

/// Measurements of one quick-channel run.
struct QuickChannelResult {
    double mean_delay = 0.0;  ///< generation -> first delivery, slots
    double max_delay = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t delivered_unique = 0;  ///< first deliveries only
    std::uint64_t duplicate_deliveries = 0;  ///< re-deliveries after lost acks
    std::uint64_t dropped_queue = 0;  ///< arrivals lost to full send queues
    std::uint64_t collisions = 0;     ///< packets dropped in the switch
    std::uint64_t corruptions = 0;    ///< packets lost to bit errors
    std::uint64_t fault_losses = 0;   ///< data/acks absorbed by the fault plan
    std::uint64_t retransmissions = 0;
    std::uint64_t abandoned = 0;  ///< undelivered, gave up after max_retries
    /// Copies given up after max_retries whose delivery already landed
    /// (only the acks kept vanishing) — not data loss, and not part of
    /// `abandoned`, which older code conflated with it.
    std::uint64_t abandoned_delivered = 0;
    std::uint64_t crash_lost = 0;  ///< undelivered, destroyed by host crashes
    double delivery_ratio = 0.0;  ///< delivered_unique / generated
    /// What the fault plan did (all zero when the plan is empty).
    fault::FaultCounters faults;
};

/// Discrete-event simulation of the quick channel.
class QuickChannelSim {
public:
    QuickChannelSim(const QuickChannelConfig& config,
                    std::unique_ptr<traffic::TrafficGenerator> traffic);

    void step();
    QuickChannelResult run();

    [[nodiscard]] std::uint64_t current_slot() const noexcept { return slot_; }
    [[nodiscard]] QuickChannelResult result() const;

    /// Conservation snapshot as of the last slot boundary: queued is
    /// the send queues, in_flight the stop-and-wait windows, dropped
    /// queue overflow plus crash losses.
    [[nodiscard]] sim::Accounting accounting() const noexcept;

    /// Baseline per-packet corruption probabilities implied by the
    /// configured bit-error rate: 1-(1-ber)^payload_bits and
    /// 1-(1-ber)^ack_bits. Exposed so tests can pin the formulas.
    [[nodiscard]] double data_corrupt_probability() const noexcept {
        return p_data_corrupt_;
    }
    [[nodiscard]] double ack_corrupt_probability() const noexcept {
        return p_ack_corrupt_;
    }

    /// Queue a control packet (a bulk acknowledgment, §4.1) at `host`
    /// destined for `target`. Control packets preempt the host's data
    /// transmission for the slot in which they are sent and are
    /// fire-and-forget (losses are the bulk channel's timeout problem,
    /// not retransmitted here). Throws std::invalid_argument, naming the
    /// argument, when `host` or `target` is not below config.hosts.
    void inject_control(std::size_t host, std::size_t target);

    /// Control packets transmitted so far.
    [[nodiscard]] std::uint64_t control_sent() const noexcept {
        return control_sent_;
    }
    /// Data transmission opportunities lost to control preemption.
    [[nodiscard]] std::uint64_t control_preemptions() const noexcept {
        return control_preemptions_;
    }
    /// Control packets absorbed by faults (crashed targets, lost wires).
    [[nodiscard]] std::uint64_t control_lost() const noexcept {
        return control_lost_;
    }

private:
    struct Outstanding {
        sim::Packet packet;
        std::uint64_t sent_slot = 0;
        std::size_t retries = 0;
        bool awaiting_ack = false;  ///< sent this slot, ack pending
        bool delivered_once = false;  ///< target has it; only acks were lost
    };
    struct Host {
        sim::PacketQueue queue;
        std::optional<Outstanding> inflight;  // stop-and-wait window of 1
        std::vector<std::uint32_t> control;   // pending ack targets, oldest first
        bool sending_control = false;         // this slot's transmission
        std::uint32_t dest = kNone;  // this slot's target (control or data)
    };
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};  // no host

    void crash_host(std::size_t host);

    QuickChannelConfig config_;
    std::unique_ptr<traffic::TrafficGenerator> traffic_;
    std::vector<Host> hosts_;
    std::vector<std::size_t> target_priority_;  // rotating winner pointer
    std::vector<std::uint32_t> winner_;  // per target, this slot; sized by step()
    util::Xoshiro256 rng_;
    double p_data_corrupt_ = 0.0;
    double p_ack_corrupt_ = 0.0;

    /// Duplicate suppression: the channel is stop-and-wait per host and
    /// send queues are FIFO, so each source's packets arrive in strictly
    /// increasing id order. One remembered id per source replaces the
    /// per-packet dense flag vector, whose memory grew with every packet
    /// ever generated. kNoneDelivered marks "nothing yet".
    static constexpr std::uint64_t kNoneDelivered = ~std::uint64_t{0};
    std::vector<std::uint64_t> last_delivered_id_;
    util::RunningStat delay_;

    fault::FaultInjector injector_;
    // Per-slot arrival destinations (one batched traffic_->arrivals()
    // call per slot instead of hosts virtual calls).
    std::vector<std::int32_t> arrival_buf_;

    std::uint64_t slot_ = 0;
    std::uint64_t next_packet_id_ = 0;
    std::uint64_t control_sent_ = 0;
    std::uint64_t control_preemptions_ = 0;
    std::uint64_t control_lost_ = 0;
    QuickChannelResult stats_;
};

}  // namespace lcf::clint
