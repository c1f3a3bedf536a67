#include "obs/sched_observer.hpp"

#include <algorithm>

namespace lcf::obs {

SchedObserver::SchedObserver(std::size_t inputs, std::size_t outputs,
                             std::size_t trace_capacity,
                             const std::optional<ParanoidOptions>& paranoid) {
    if (trace_capacity > 0) trace_.emplace(inputs, outputs, trace_capacity);
    if (paranoid) {
        checker_.emplace(*paranoid);
        checker_->reset(inputs, outputs);
    }
}

std::size_t SchedObserver::observe(const sched::RequestMatrix& requests,
                                   const sched::Matching& matching,
                                   std::size_t last_iterations) {
    const std::size_t request_bits = requests.total();
    counters_.observe_cycle(request_bits, matching.size());
    if (trace_) trace_->record(counters_.cycles - 1, requests, matching);
    if (checker_) {
        checker_->check_cycle(requests, matching);
        checker_->check_iterations(last_iterations);
    }
    return request_bits;
}

SchedCounters SchedObserver::counters() const noexcept {
    SchedCounters c = counters_;
    if (trace_) {
        c.max_starvation_age =
            std::max(c.max_starvation_age, trace_->ages().high_watermark());
    }
    if (checker_) {
        c.max_starvation_age =
            std::max(c.max_starvation_age, checker_->max_starvation_age());
        c.paranoid_violations = checker_->violation_count();
    }
    return c;
}

}  // namespace lcf::obs
