#include "trace.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::string_view span_name(SpanKind kind) noexcept {
    switch (kind) {
        case SpanKind::kPoint: return "point";
        case SpanKind::kSlot: return "slot";
        case SpanKind::kStep: return "step";
        case SpanKind::kBulkStep: return "bulk_step";
        case SpanKind::kQuickStep: return "quick_step";
        case SpanKind::kSchedule: return "schedule";
        case SpanKind::kArrivals: return "arrivals";
        case SpanKind::kProbe: return "probe";
    }
    return "unknown";
}

void SpanLog::write_csv(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << run_ << ',' << i << ','
            << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
            << ',' << span_name(s.kind) << ',' << s.start_ns << ','
            << s.end_ns << '\n';
    }
}

TimedScheduler::TimedScheduler(std::unique_ptr<lcf::sched::Scheduler> inner,
                               SpanLog& log)
    : inner_(std::move(inner)), log_(log) {}

void TimedScheduler::reset(std::size_t inputs, std::size_t outputs) {
    inner_->reset(inputs, outputs);
    requested_outputs_ = lcf::util::BitVec(outputs);
}

void TimedScheduler::schedule(const lcf::sched::RequestMatrix& requests,
                              lcf::sched::Matching& out) {
    {
        Scoped span(&log_, SpanKind::kSchedule);
        inner_->schedule(requests, out);
    }
    // Everything below is the tracer's own work inside the slot; its
    // span keeps it out of the simulator's self time.
    Scoped probe(&log_, SpanKind::kProbe);
    ++counts_.calls;
    if (!out.valid_for(requests)) ++counts_.invalid;
    counts_.iterations += inner_->last_iterations();
    std::size_t requesting_inputs = 0;
    requested_outputs_.clear();
    for (std::size_t i = 0; i < requests.inputs(); ++i) {
        const auto& row = requests.row(i);
        if (row.none()) continue;
        ++requesting_inputs;
        requested_outputs_ |= row;
    }
    counts_.matched += out.size();
    counts_.matchable += std::min(requesting_inputs, requested_outputs_.count());
}

void TimedScheduler::observe_queue_lengths(
    std::span<const std::uint32_t> lengths, std::size_t outputs) {
    Scoped span(&log_, SpanKind::kSchedule);
    inner_->observe_queue_lengths(lengths, outputs);
}

std::int32_t TimedTraffic::arrival(std::size_t input, std::uint64_t slot) {
    Scoped span(&log_, SpanKind::kArrivals);
    return inner_->arrival(input, slot);
}

void TimedTraffic::arrivals(std::uint64_t slot, std::int32_t* out) {
    Scoped span(&log_, SpanKind::kArrivals);
    inner_->arrivals(slot, out);
}

void LayerTimes::add(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
        if (s.parent != kNoParent) {
            child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto k = static_cast<std::size_t>(spans[i].kind);
        const auto dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        ++count[k];
        total_ns[k] += dur;
        self_ns[k] += dur - child_ns[i];
        durations[k].push_back(dur);
    }
}

double LayerTimes::quantile(SpanKind k, double q) {
    return perfbench::quantile(durations[static_cast<std::size_t>(k)], q);
}

double quantile(std::vector<double>& values, double q) {
    if (values.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

}  // namespace perfbench
