#pragma once
// The paper's `fifo` baseline: one FIFO queue per input port (no VOQs),
// served round-robin. Each input therefore requests at most one output —
// the destination of its head-of-line packet — and suffers head-of-line
// blocking, capping uniform-traffic throughput near 58.6 % [Karol 87].

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"

#include <vector>

namespace lcf::sched {

/// Round-robin arbitration over head-of-line requests.
///
/// The simulator presents a request matrix whose rows each contain at most
/// one set bit (the HOL destination). Each output picks among its
/// contenders with a rotating grant pointer that advances past the granted
/// input, so persistent contenders share the output evenly.
class FifoRrScheduler final : public Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "fifo";
    }

private:
    std::vector<std::size_t> grant_ptr_;  // per-output rotating pointer
    std::size_t inputs_ = 0;
    Arbiter arbiter_;
};

}  // namespace lcf::sched
