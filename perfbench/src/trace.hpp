#pragma once
// Tracing that lives entirely in the benchmark: spans recorded around the
// calls the benchmark makes into the simulator, plus two wrappers that
// forward every virtual of sched::Scheduler and traffic::TrafficGenerator
// and time the calls that do work. Spans stay in memory (one SpanLog per
// simulator run, so no locking) and are written out when the run ends.

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"
#include "traffic/traffic.hpp"
#include "util/bitvec.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Layer boundaries a span can mark.
enum class SpanKind : std::uint8_t {
    kPoint,      ///< one whole simulator run (a sweep point)
    kSlot,       ///< one lockstep Clint slot (bulk + ack forwarding + quick)
    kStep,       ///< SwitchSim::step()
    kBulkStep,   ///< BulkChannelSim::step()
    kQuickStep,  ///< QuickChannelSim::step()
    kSchedule,   ///< Scheduler::schedule() / observe_queue_lengths()
    kArrivals,   ///< TrafficGenerator::arrivals() / arrival()
    kProbe,      ///< the scheduler wrapper's own checks and counters
};
inline constexpr std::size_t kSpanKinds = 8;
[[nodiscard]] std::string_view span_name(SpanKind kind) noexcept;

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;  ///< index in the same SpanLog
    SpanKind kind = SpanKind::kStep;
};

/// Spans of one simulator run, in open order. Single-threaded: each run
/// is stepped by one thread at a time.
class SpanLog {
public:
    explicit SpanLog(std::uint32_t run) : run_(run) {}

    std::uint32_t open(SpanKind kind) {
        const auto index = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back(Span{now_ns(), 0, current_, kind});
        current_ = index;
        return index;
    }
    void close(std::uint32_t index) noexcept {
        spans_[index].end_ns = now_ns();
        current_ = spans_[index].parent;
    }

    void reserve(std::size_t spans) { spans_.reserve(spans); }
    [[nodiscard]] std::uint32_t run() const noexcept { return run_; }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    /// CSV rows `run,span,parent,name,start_ns,end_ns` (parent -1 = root).
    void write_csv(std::ostream& out) const;

private:
    std::uint32_t run_;
    std::uint32_t current_ = kNoParent;
    std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class Scoped {
public:
    Scoped(SpanLog* log, SpanKind kind)
        : log_(log), index_(log ? log->open(kind) : 0) {}
    ~Scoped() {
        if (log_) log_->close(index_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    SpanLog* log_;
    std::uint32_t index_;
};

/// What the scheduler wrapper counts on every schedule() call.
struct ScheduleCounts {
    std::uint64_t calls = 0;
    std::uint64_t invalid = 0;  ///< matchings not valid_for their requests
    std::uint64_t iterations = 0;
    std::uint64_t matched = 0;
    std::uint64_t matchable = 0;  ///< min(requesting inputs, requested outputs)

    ScheduleCounts& operator+=(const ScheduleCounts& o) noexcept {
        calls += o.calls;
        invalid += o.invalid;
        iterations += o.iterations;
        matched += o.matched;
        matchable += o.matchable;
        return *this;
    }
};

/// Forwards to a real scheduler, timing schedule() and
/// observe_queue_lengths() and checking every matching.
class TimedScheduler final : public lcf::sched::Scheduler {
public:
    TimedScheduler(std::unique_ptr<lcf::sched::Scheduler> inner, SpanLog& log);

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const lcf::sched::RequestMatrix& requests,
                  lcf::sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return inner_->last_iterations();
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return inner_->iteration_limit();
    }
    [[nodiscard]] bool wants_queue_lengths() const noexcept override {
        return inner_->wants_queue_lengths();
    }
    void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                               std::size_t outputs) override;

    [[nodiscard]] const ScheduleCounts& counts() const noexcept {
        return counts_;
    }

private:
    std::unique_ptr<lcf::sched::Scheduler> inner_;
    SpanLog& log_;
    ScheduleCounts counts_;
    lcf::util::BitVec requested_outputs_;
};

/// Forwards to a real traffic generator, timing arrivals()/arrival().
class TimedTraffic final : public lcf::traffic::TrafficGenerator {
public:
    TimedTraffic(std::unique_ptr<lcf::traffic::TrafficGenerator> inner,
                 SpanLog& log)
        : inner_(std::move(inner)), log_(log) {}

    std::int32_t arrival(std::size_t input, std::uint64_t slot) override;
    void arrivals(std::uint64_t slot, std::int32_t* out) override;
    [[nodiscard]] double offered_load() const noexcept override {
        return inner_->offered_load();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override {
        inner_->reset(inputs, outputs, seed);
    }

private:
    std::unique_ptr<lcf::traffic::TrafficGenerator> inner_;
    SpanLog& log_;
};

/// Per-kind totals over a set of logs: span time, self time (span time
/// minus the time of its direct children), and every span duration.
struct LayerTimes {
    std::uint64_t count[kSpanKinds] = {};
    double total_ns[kSpanKinds] = {};
    double self_ns[kSpanKinds] = {};
    std::vector<double> durations[kSpanKinds];

    void add(const SpanLog& log);
    [[nodiscard]] std::uint64_t n(SpanKind k) const noexcept {
        return count[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double total(SpanKind k) const noexcept {
        return total_ns[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double self(SpanKind k) const noexcept {
        return self_ns[static_cast<std::size_t>(k)];
    }
    /// Duration quantile in ns (0 when no span of the kind exists).
    [[nodiscard]] double quantile(SpanKind k, double q);
};

/// q-quantile (nearest rank) of `values`, reordering them; 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
/// Median of `values` (reorders them); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
