#pragma once
// Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker 1993):
// iterative request / grant / accept with *uniform random* selection at
// both the grant and accept steps. The direct ancestor of the distributed
// LCF scheduler, which replaces randomness with request-count priorities.

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

#include <vector>

namespace lcf::sched {

/// PIM with a configurable iteration count (paper's Figure 12 uses 4).
class PimScheduler final : public Scheduler {
public:
    explicit PimScheduler(const SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "pim";
    }
    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return iterations_;
    }

private:
    std::size_t iterations_;
    std::size_t last_iterations_ = 0;
    util::Xoshiro256 rng_;
    std::uint64_t seed_;
    Arbiter arbiter_;
    std::vector<util::BitVec> offers_;  // each input's grants this round
};

}  // namespace lcf::sched
