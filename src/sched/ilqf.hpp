#pragma once
// Iterative Longest Queue First (iLQF, McKeown 1995) — the natural
// counterpoint to Least Choice First: where LCF grants the input with
// the *fewest alternatives*, iLQF grants the input whose VOQ for the
// contested output is *longest*, draining backlog hot spots first.
// Implemented as a request/grant/accept matcher like PIM/iSLIP, with
// queue lengths as both grant and accept weights and rotating pointers
// breaking ties. Included as an extension baseline (not in the paper's
// Figure 12) for the bench ablations.

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"

#include <vector>

namespace lcf::sched {

/// iLQF with configurable iteration count. When no queue-length
/// snapshot has been observed (standalone use on bare request
/// matrices), every request weighs 1 and the scheduler degenerates to
/// rotating-pointer request/grant/accept matching.
class IlqfScheduler final : public Scheduler {
public:
    explicit IlqfScheduler(const SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "ilqf";
    }

    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return iterations_;
    }

    [[nodiscard]] bool wants_queue_lengths() const noexcept override {
        return true;
    }
    void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                               std::size_t outputs) override;

private:
    [[nodiscard]] std::uint32_t weight(std::size_t input,
                                       std::size_t output) const noexcept;

    std::size_t iterations_;
    std::size_t last_iterations_ = 0;
    std::size_t outputs_ = 0;
    std::vector<std::uint32_t> lengths_;  // row-major snapshot, may be empty
    std::size_t cycle_ = 0;               // rotates the tie-break chains
    Arbiter arbiter_;
};

}  // namespace lcf::sched
