#pragma once
// The slot-synchronous switch simulator of §6.3 (Figure 11):
//
//   PG ──► PQ ──► VOQ bank ──► crossbar (scheduler-driven) ──► output link
//
// plus the two alternative architectures of Figure 12: a FIFO
// input-queued switch (head-of-line blocking baseline) and an
// output-buffered switch (contention only at the output link).
//
// Each simulated slot performs: arrivals → PQ-to-VOQ transfer →
// scheduling → packet transfer. A packet generated in slot t that is
// forwarded immediately departs at the end of slot t, giving the minimum
// queuing delay of 1 slot. Clint's three-stage pipeline (§4.1) adds a
// constant two slots on top of every delay and is therefore omitted from
// the comparative simulation, exactly as in the paper.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fabric/clos.hpp"
#include "fault/fault_injector.hpp"
#include "obs/sched_observer.hpp"
#include "sched/scheduler.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_queue.hpp"
#include "sim/voq.hpp"
#include "traffic/traffic.hpp"

namespace lcf::sim {

/// Which of the three switch architectures to simulate.
enum class SwitchMode {
    kVoq,             ///< VOQ input-buffered switch driven by a Scheduler
    kFifo,            ///< single FIFO per input (the paper's `fifo`)
    kOutputBuffered,  ///< ideal output-buffered switch (the paper's `outbuf`)
};

/// Simulation parameters. Defaults are the paper's Figure 12 settings.
struct SimConfig {
    std::size_t ports = 16;
    std::size_t voq_capacity = 256;    ///< entries per VOQ
    std::size_t pq_capacity = 1000;    ///< entries per packet queue
    std::size_t fifo_capacity = 1000;  ///< per-input FIFO in kFifo mode
    std::size_t outbuf_capacity = 256; ///< per-output buffer in kOutputBuffered
    std::uint64_t slots = 100000;      ///< simulated slots
    std::uint64_t warmup_slots = 10000;  ///< excluded from statistics
    std::uint64_t seed = 42;
    SwitchMode mode = SwitchMode::kVoq;
    bool record_service_matrix = false;  ///< per-flow delivery counts

    /// Crossbar speedup s (kVoq mode only): the scheduler runs s times
    /// per slot and up to s packets may be forwarded from each input
    /// and to each output per slot; forwarded packets land in per-
    /// output buffers (outbuf_capacity) drained at line rate. s = 1 is
    /// the paper's model (packets cross straight onto the link). The
    /// classic result this knob demonstrates: a VOQ switch with s = 2
    /// closely approaches output-buffered delay.
    std::size_t speedup = 1;

    /// Fabric selection (§2 allows non-blocking fabrics other than the
    /// crossbar). 0 = ideal crossbar. A positive value routes every
    /// matching through a three-stage Clos network with that many
    /// middle switches and `clos_group` ports per ingress/egress
    /// switch; with clos_middle >= clos_group the Clos fabric is
    /// rearrangeably non-blocking and behaves exactly like the
    /// crossbar, while smaller values block some connections (their
    /// packets stay queued and `SimResult::fabric_blocked` counts
    /// them).
    std::size_t clos_middle = 0;
    std::size_t clos_group = 4;  ///< k: ports per first/third-stage switch

    /// Validate cycle-level scheduler invariants every scheduling cycle
    /// (obs::ParanoidChecker). A violation throws std::logic_error from
    /// step(). Checks are configured from the scheduler's name: the
    /// rotating-diagonal variants additionally get the §3 fairness check
    /// (granted within n² cycles under a continuously asserted request),
    /// iterative matchers their iteration-budget check. step() also
    /// throws std::logic_error when accounting() stops balancing or,
    /// in kVoq mode, when the request matrix stops mirroring the VOQs.
    bool paranoid = false;
    /// When > 0, keep an obs::SchedTrace ring of the most recent
    /// `trace_capacity` scheduling cycles, accessible via
    /// SwitchSim::trace() and exportable as CSV/JSONL.
    std::size_t trace_capacity = 0;

    /// Deterministic fault schedule (the default, empty plan leaves
    /// every slot quiet).
    /// Interpretation in this model: a crashed host's port neither
    /// offers arrivals (they count generated + dropped) nor takes part
    /// in scheduling — its request row and its column are masked out of
    /// the request matrix, so matchings degrade to the surviving ports.
    /// Scheduler-stall slots produce no matching at all (counted in
    /// SchedCounters::stalled_cycles); packets the switch already
    /// buffered stay buffered and flow on once the fault clears.
    fault::FaultPlan fault_plan;
};

/// One input's VOQs: queues [first, first + ports) of the switch's bank.
struct InputVoqs {
    const SlotVoqBank& bank;
    std::size_t first, ports;
    [[nodiscard]] std::size_t total_buffered() const noexcept {
        std::size_t total = 0;
        for (std::size_t j = 0; j < ports; ++j) total += bank.size(first + j);
        return total;
    }
};

/// One switch simulation. Construct, then either run() to completion or
/// step() slot by slot (the introspection accessors support white-box
/// tests). The scheduler is unused (and may be null) in kOutputBuffered
/// mode.
class SwitchSim {
public:
    SwitchSim(const SimConfig& config,
              std::unique_ptr<sched::Scheduler> scheduler,
              std::unique_ptr<traffic::TrafficGenerator> traffic);

    /// Advance the simulation by one slot.
    void step();
    /// Run the configured number of slots and return the summary.
    SimResult run();

    /// Slots simulated so far.
    [[nodiscard]] std::uint64_t current_slot() const noexcept { return slot_; }
    /// Summary of everything measured so far.
    [[nodiscard]] SimResult result() const;
    /// Conservation snapshot as of the last slot boundary: queued is
    /// the packet queues (or FIFOs), VOQs and output buffers; in_flight
    /// and abandoned are always 0.
    [[nodiscard]] Accounting accounting() const noexcept;

    [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
    [[nodiscard]] const MetricsCollector& metrics() const noexcept {
        return metrics_;
    }
    /// VOQs of `input` (kVoq mode only).
    [[nodiscard]] InputVoqs voq(std::size_t input) const noexcept {
        return {voqs_, input * config_.ports, config_.ports};
    }
    /// Packet queue of `input` (kVoq mode), or its FIFO (kFifo mode).
    [[nodiscard]] const PacketQueue& input_queue(std::size_t input) const noexcept {
        return input_queues_[input];
    }
    /// Output buffer of `output` (kOutputBuffered mode only).
    [[nodiscard]] const PacketQueue& output_buffer(std::size_t output) const noexcept {
        return output_buffers_[output];
    }
    /// The matching applied in the most recent slot (kVoq/kFifo modes).
    [[nodiscard]] const sched::Matching& last_matching() const noexcept {
        return matching_;
    }
    /// Scheduler observation: counters, the per-cycle trace ring
    /// (engaged iff config.trace_capacity > 0) and the invariant checker
    /// (engaged iff config.paranoid).
    [[nodiscard]] const obs::SchedObserver& observer() const noexcept {
        return observer_;
    }

private:
    void step_arrivals();
    void step_voq_mode();
    void step_fifo_mode();
    void deliver(const Packet& p);
    /// Queue `p`'s slot in its VOQ, setting its request bit and iLQF length;
    /// false (no change) when full. Per packet, as is deliver(): both inline.
    bool to_voq(const Packet& p);
    /// Route matching_ through the Clos fabric (if configured),
    /// unmatching any connection the fabric cannot carry.
    void apply_fabric();
    /// Count and apply a fault-plan scheduler stall; true when stalled.
    bool stalled();
    /// Mask crashed ports, schedule, and observe the scheduler's own
    /// matching (before the fabric drops any). Returns the requests.
    std::size_t schedule();
    /// Paranoid check that (kVoq) requests_ mirrors the VOQs exactly.
    [[nodiscard]] bool requests_mirror_voqs() const;

    SimConfig config_;
    std::unique_ptr<sched::Scheduler> scheduler_;
    std::unique_ptr<traffic::TrafficGenerator> traffic_;
    MetricsCollector metrics_;

    std::vector<PacketQueue> input_queues_;   // PQ (kVoq) or FIFO (kFifo)
    SlotVoqBank voqs_;  // kVoq only: VOQ (i, j) is queue i * ports + j
    std::vector<PacketQueue> output_buffers_; // kOutputBuffered only

    // kVoq: mirrors the VOQs bit by bit. kFifo: rebuilt every slot.
    sched::RequestMatrix requests_;
    sched::RequestMatrix masked_;  // requests_ minus down ports, if any crash
    sched::Matching matching_;
    // Per-slot arrival destinations, filled by one batched
    // traffic_->arrivals() call instead of ports virtual calls per slot.
    std::vector<std::int32_t> arrival_buf_;
    // VOQ lengths for weight-aware schedulers (iLQF), kept at every push
    // and pop instead of gathered per phase; only when they ask for them.
    std::vector<std::uint32_t> queue_lengths_;
    bool track_queue_lengths_ = false;

    obs::SchedObserver observer_;
    fault::FaultInjector injector_;

    std::optional<fabric::ClosNetwork> clos_;
    std::uint64_t fabric_blocked_ = 0;
    double choices_accum_ = 0.0;     // sum over post-warm-up slots of
    std::uint64_t choices_slots_ = 0;  // mean requests per input

    std::uint64_t slot_ = 0;
    std::uint64_t delivered_in_warmup_ = 0;  // set as the warm-up ends
};

}  // namespace lcf::sim
