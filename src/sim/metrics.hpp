#pragma once
// Measurement plumbing for one simulation run: delay statistics, packet
// accounting, and (optionally) the per-[input, output] service matrix
// used by the fairness analyses.

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hpp"
#include "obs/counters.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace lcf::sim {

/// Collects per-run measurements. The simulator reports generation,
/// drop, and departure events; packets generated before the warm-up
/// cutoff are excluded from delay statistics (but still occupy queues).
class MetricsCollector {
public:
    MetricsCollector(std::size_t inputs, std::size_t outputs,
                     std::uint64_t warmup_slot, bool record_service_matrix);

    /// Packets were generated (they count regardless of warm-up).
    void on_generated(std::uint64_t n = 1) noexcept { generated_ += n; }
    /// Packets were dropped at the packet queue / FIFO / output buffer.
    void on_dropped(std::uint64_t n = 1) noexcept { dropped_ += n; }
    /// A packet crossed the output link. `delay` is in slots; `generated_slot`
    /// decides warm-up exclusion. Inline: the simulator calls it per packet.
    void on_delivered(std::uint64_t generated_slot, std::uint64_t delay,
                      std::size_t input, std::size_t output) {
        ++delivered_;
        if (generated_slot < warmup_slot_) return;
        delay_.add(delay);
        delay_stat_.add(static_cast<double>(delay));
        if (!service_.empty()) ++service_[input * outputs_ + output];
    }

    [[nodiscard]] std::uint64_t generated() const noexcept { return generated_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
    [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
    /// Delivered packets that count toward delay statistics.
    [[nodiscard]] std::uint64_t measured() const noexcept {
        return delay_.count();
    }

    [[nodiscard]] const util::RunningStat& delay_stat() const noexcept {
        return delay_stat_;
    }
    [[nodiscard]] const util::Histogram& delay_histogram() const noexcept {
        return delay_;
    }

    /// Post-warm-up deliveries of flow [input, output]; all zero unless
    /// service-matrix recording was requested.
    [[nodiscard]] std::uint64_t service(std::size_t input,
                                        std::size_t output) const noexcept;
    [[nodiscard]] bool has_service_matrix() const noexcept {
        return !service_.empty();
    }

private:
    std::uint64_t warmup_slot_;
    std::uint64_t generated_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t delivered_ = 0;
    util::RunningStat delay_stat_;
    util::Histogram delay_;
    std::size_t outputs_;
    std::vector<std::uint64_t> service_;  // row-major inputs × outputs
};

/// Exact packet conservation, shared by every simulator: at each slot
/// boundary every generated packet is in exactly one right-hand term of
///   generated = delivered_unique + queued + in_flight + dropped + abandoned
/// Each simulator's accounting() documents what its terms hold.
struct Accounting {
    std::uint64_t generated = 0;
    std::uint64_t delivered_unique = 0;  ///< first deliveries only
    std::uint64_t queued = 0;     ///< undelivered, buffered
    std::uint64_t in_flight = 0;  ///< undelivered, awaiting acknowledgment
    std::uint64_t dropped = 0;    ///< overflow + destroyed by host crashes
    std::uint64_t abandoned = 0;  ///< gave up after max_retries, undelivered

    [[nodiscard]] bool balanced() const noexcept {
        return generated ==
               delivered_unique + queued + in_flight + dropped + abandoned;
    }
};

/// Summary of one finished run, cheap to copy around benches.
struct SimResult {
    double mean_delay = 0.0;    ///< slots, post-warm-up deliveries
    double p50_delay = 0.0;
    double p99_delay = 0.0;
    double max_delay = 0.0;
    double throughput = 0.0;    ///< delivered per output per post-warm-up slot
    double offered_load = 0.0;  ///< configured per-input load
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t measured = 0;  ///< deliveries counted in delay stats
    std::uint64_t fabric_blocked = 0;  ///< connections a blocking Clos rejected
    /// Time-averaged number of requests (non-empty VOQs, crashed ports
    /// masked) per input: the scheduler's "choices"; §6.3 hypothesises
    /// the RR variant wins at high load by keeping this number up. 0
    /// outside kVoq mode.
    double mean_choices = 0.0;
    std::vector<std::uint64_t> service;  ///< inputs × outputs, may be empty
    std::size_t ports = 0;
    /// Structured scheduler counters for this run (always collected;
    /// max_starvation_age and paranoid_violations are populated only
    /// when tracing or paranoid mode observed the run). Mergeable across
    /// the sweep's worker threads via obs::SchedCounters::merge.
    obs::SchedCounters sched;
    /// What the configured fault plan did (all zero when it was empty).
    fault::FaultCounters faults;

    /// Service count of flow [input, output] (0 when not recorded).
    [[nodiscard]] std::uint64_t service_of(std::size_t input,
                                           std::size_t output) const noexcept {
        return service.empty() ? 0 : service[input * ports + output];
    }
};

}  // namespace lcf::sim
