#pragma once
// The observation stage every simulated scheduling cycle passes
// through: the always-on SchedCounters, plus an optional SchedTrace
// ring and an optional ParanoidChecker. SwitchSim and the Clint bulk
// channel hand each cycle's (requests, matching) pair to one observe()
// call, and report counters(), which folds the trace's and checker's
// findings into the plain counters.

#include <cstddef>
#include <optional>

#include "obs/counters.hpp"
#include "obs/paranoid_checker.hpp"
#include "obs/sched_trace.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::obs {

class SchedObserver {
public:
    /// Observer of an inputs × outputs scheduler. A positive
    /// `trace_capacity` engages a SchedTrace ring of that many cycles;
    /// engaged `paranoid` options engage a ParanoidChecker. Neither
    /// allocates when off.
    SchedObserver(std::size_t inputs, std::size_t outputs,
                  std::size_t trace_capacity,
                  const std::optional<ParanoidOptions>& paranoid);

    /// Fold one scheduling cycle into the counters and trace, then run
    /// the checker's cycle and iteration-budget checks (which throw
    /// std::logic_error on a violation unless configured to count).
    /// `last_iterations` is the scheduler's last_iterations(). Returns
    /// requests.total(), for callers that reuse it.
    std::size_t observe(const sched::RequestMatrix& requests,
                        const sched::Matching& matching,
                        std::size_t last_iterations);

    /// Count a cycle a fault-plan stall suppressed: no scheduling ran.
    void stall() noexcept { ++counters_.stalled_cycles; }

    /// The counters, with the trace's and the checker's starvation ages
    /// and the checker's violation count folded in.
    [[nodiscard]] SchedCounters counters() const noexcept;

    [[nodiscard]] const std::optional<SchedTrace>& trace() const noexcept {
        return trace_;
    }
    [[nodiscard]] const std::optional<ParanoidChecker>& checker()
        const noexcept {
        return checker_;
    }

private:
    SchedCounters counters_;
    std::optional<SchedTrace> trace_;
    std::optional<ParanoidChecker> checker_;
};

}  // namespace lcf::obs
