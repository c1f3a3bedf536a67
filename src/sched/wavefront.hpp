#pragma once
// Wrapped Wave Front Arbiter (Tamir & Chi 1993): the request matrix is
// swept as n wrapped diagonals; the cells of one wrapped diagonal touch
// distinct rows and columns, so a hardware array evaluates each diagonal
// in a single step and the whole schedule in n steps. The diagonal that
// is swept first rotates every slot, which provides round-robin fairness.

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"

#include <vector>

namespace lcf::sched {

/// Wrapped wavefront arbiter (`wfront` in the paper's Figure 12).
///
/// The software sweep walks only the still-unmatched rows of each
/// diagonal that request something (in ascending row order, so the
/// result is identical to the naive full scan), terminating early once
/// every such input is matched.
class WavefrontScheduler final : public Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "wfront";
    }

private:
    std::size_t priority_diag_ = 0;  // diagonal swept first this slot
    util::BitVec active_;            // free inputs with a request
    std::vector<std::size_t> hits_;  // scratch: rows matching on a diagonal
    Arbiter arbiter_;
};

}  // namespace lcf::sched
