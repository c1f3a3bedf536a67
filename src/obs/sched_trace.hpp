#pragma once
// Per-cycle scheduler event sink: a ring buffer of recent cycles (the
// flight recorder consulted when an invariant trips or a latency spike
// needs explaining) plus cumulative per-position grant counters and
// per-VOQ starvation ages. The in-memory footprint is bounded by the
// ring capacity; export is JSONL (one object per cycle, stream-friendly)
// or CSV via util/csv.
//
// This is the per-cycle diagnosis style of the RR/RR CICQ burst study
// (Gunther, cs/0403029): end-of-run averages hide exactly the transient
// misbehaviour — a stuck rotating priority, a starving VOQ — that the
// trace makes visible.

#include <cstdint>
#include <ostream>
#include <vector>

#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::obs {

/// Tracks, per (input, output) position, how many consecutive past
/// cycles the position requested without being granted. A grant or a
/// cycle without a request resets the age to zero — so the age is
/// exactly the "continuously asserted and denied" streak the paper's §3
/// fairness guarantee bounds by n² for the rotating-diagonal variants.
class StarvationAges {
public:
    StarvationAges() = default;
    StarvationAges(std::size_t inputs, std::size_t outputs);

    void reset(std::size_t inputs, std::size_t outputs);
    /// Fold one cycle; returns the largest age after the update.
    std::uint64_t observe(const sched::RequestMatrix& requests,
                          const sched::Matching& matching);

    [[nodiscard]] std::uint64_t age(std::size_t input,
                                    std::size_t output) const noexcept {
        return ages_[input * outputs_ + output];
    }
    /// Largest current age across all positions.
    [[nodiscard]] std::uint64_t max_age() const noexcept;
    /// Largest age ever observed since reset().
    [[nodiscard]] std::uint64_t high_watermark() const noexcept {
        return high_watermark_;
    }

private:
    std::size_t inputs_ = 0;
    std::size_t outputs_ = 0;
    std::vector<std::uint64_t> ages_;  // row-major inputs × outputs
    std::uint64_t high_watermark_ = 0;
};

/// One recorded scheduling cycle.
struct TraceRecord {
    std::uint64_t cycle = 0;     ///< scheduling-cycle index (monotonic)
    std::uint32_t requests = 0;  ///< request bits offered this cycle
    std::uint32_t granted = 0;   ///< matching size
    std::uint32_t max_age = 0;   ///< worst starvation age after this cycle
    /// Input granted to each output this cycle (sched::kUnmatched = idle);
    /// a verbatim copy of the matching's output-side map.
    std::vector<std::int32_t> grant_of_output;
};

/// Ring-buffered per-cycle event sink with cumulative per-position
/// counters. record() is O(n) per cycle; everything else is bookkeeping
/// on top of memory the ring already owns.
class SchedTrace {
public:
    /// Keep the most recent `capacity` cycles (capacity >= 1).
    explicit SchedTrace(std::size_t inputs, std::size_t outputs,
                        std::size_t capacity = 1024);

    /// Forget everything and adopt a new geometry.
    void reset(std::size_t inputs, std::size_t outputs);

    /// Record one scheduling cycle.
    void record(std::uint64_t cycle, const sched::RequestMatrix& requests,
                const sched::Matching& matching);

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Number of cycles currently retained (<= capacity()).
    [[nodiscard]] std::size_t size() const noexcept {
        return std::min(recorded_, capacity_);
    }
    /// Total cycles ever recorded (including ones the ring evicted).
    [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
    /// k-th retained record, oldest first (precondition: k < size()).
    [[nodiscard]] const TraceRecord& at(std::size_t k) const noexcept;

    /// Cumulative grants of position [input, output] over the whole run
    /// (not just the retained window) — the paper's service matrix.
    [[nodiscard]] std::uint64_t grants_at(std::size_t input,
                                          std::size_t output) const noexcept {
        return grant_counts_[input * outputs_ + output];
    }
    [[nodiscard]] const StarvationAges& ages() const noexcept { return ages_; }
    [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }
    [[nodiscard]] std::size_t outputs() const noexcept { return outputs_; }

    /// Write the retained window as CSV: one row per cycle with the
    /// matching serialised as "i->j" pairs separated by spaces.
    void export_csv(std::ostream& out) const;
    /// Write the retained window as JSON Lines: one object per cycle
    /// with the grants as [input, output] pairs.
    void export_jsonl(std::ostream& out) const;

private:
    std::size_t inputs_ = 0;
    std::size_t outputs_ = 0;
    std::size_t capacity_ = 0;
    std::uint64_t recorded_ = 0;
    std::vector<TraceRecord> ring_;
    std::vector<std::uint64_t> grant_counts_;  // row-major inputs × outputs
    StarvationAges ages_;
};

}  // namespace lcf::obs
