#pragma once
// iSLIP (McKeown 1999) and its predecessor RRM (McKeown 1995): iterative
// request / grant / accept with rotating priority pointers instead of
// PIM's randomness. Each output grants the first free requester at or
// after its grant pointer; each input accepts the first granting output
// at or after its accept pointer; pointers move one past the
// granted/accepted port, and only in the first iteration. The two
// differ only in which grant pointers move. iSLIP moves them only for
// accepted grants — the property that desynchronises the pointers and
// yields 100 % throughput under uniform traffic. RRM also moves them
// for refused grants, so under symmetric load every grant pointer moves
// in lock-step and throughput collapses toward ~63 %; it is kept as an
// ablation baseline for that synchronisation effect.

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"

#include <vector>

namespace lcf::sched {

/// Which grant pointers move after a first-iteration accept.
enum class GrantPointerRule {
    kAcceptedOnly,   ///< iSLIP: outputs whose grant was accepted
    kUnconditional,  ///< RRM: every output that granted
};

/// iSLIP (or RRM) with a configurable iteration count.
class IslipScheduler final : public Scheduler {
public:
    explicit IslipScheduler(
        const SchedulerConfig& config = {},
        GrantPointerRule rule = GrantPointerRule::kAcceptedOnly);

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return rule_ == GrantPointerRule::kAcceptedOnly ? "islip" : "rrm";
    }
    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return iterations_;
    }

private:
    std::size_t iterations_;
    GrantPointerRule rule_;
    std::size_t last_iterations_ = 0;
    Arbiter arbiter_;
    std::vector<std::size_t> grant_ptr_;   // per-output g[j]
    std::vector<std::size_t> accept_ptr_;  // per-input a[i]
};

}  // namespace lcf::sched
