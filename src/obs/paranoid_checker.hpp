#pragma once
// Cycle-level invariant checking for switch schedulers. When enabled
// (SimConfig::paranoid, BulkChannelConfig::paranoid, or directly in a
// test), every scheduling cycle is validated against the properties the
// paper's claims rest on:
//
//   1. the matching is a valid partial permutation (the two direction
//      maps are mutually consistent and no port appears twice),
//   2. every grant is backed by a request,
//   3. the request matrix's maintained per-row counts (NRQ) and column
//      counts (NGT) equal counts recomputed bit by bit from scratch,
//   4. for the rotating-diagonal LCF variants, a continuously asserted
//      request is granted within n_in * n_out cycles (n² for a square
//      switch: §3's fairness guarantee),
//   5. iteration-limited matchers never exceed their configured budget.
//
// The checker deliberately re-derives everything from first principles
// instead of calling Matching::valid_for() — an invariant checker that
// trusts the code under test is no net.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sched_trace.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::obs {

/// Checker configuration. options_for() derives the right settings from
/// a scheduler's registry name.
struct ParanoidOptions {
    /// Throw std::logic_error on the first violation (the default: fail
    /// fast and loud). When false, violations are recorded and counted
    /// instead — the mode the long-running sweeps use.
    bool throw_on_violation = true;
    /// Enforce invariant 4 over a window of n_in * n_out cycles. Only
    /// meaningful for schedulers that promise the rotating-diagonal
    /// guarantee.
    bool check_diagonal_fairness = false;
    /// Budget for invariant 5; 0 disables the check.
    std::size_t iteration_budget = 0;
};

/// Per-cycle scheduler invariant checker.
class ParanoidChecker {
public:
    explicit ParanoidChecker(const ParanoidOptions& options = {});

    /// Options appropriate for the named scheduler: diagonal fairness on
    /// for the rotating-diagonal central variants ("lcf_central_rr",
    /// "lcf_central_rr_single", "lcf_central_rr_first"), iteration
    /// budget set for the iterative matchers ("pim", "islip", "lcf_dist",
    /// "lcf_dist_rr") when `iterations` is nonzero.
    static ParanoidOptions options_for(std::string_view scheduler_name,
                                       std::size_t iterations);

    /// Prepare for a run over an inputs × outputs switch.
    void reset(std::size_t inputs, std::size_t outputs);

    /// Validate one scheduling cycle (invariants 1–4). Returns the
    /// number of new violations (always 0 when throwing is enabled —
    /// the first violation throws).
    std::size_t check_cycle(const sched::RequestMatrix& requests,
                            const sched::Matching& matching);

    /// Validate invariant 5 for the cycle just checked: `used` is the
    /// number of iterations the scheduler reports for its last
    /// schedule() call. No-op when the budget is 0.
    std::size_t check_iterations(std::size_t used);

    /// All violation messages recorded so far (empty when throwing).
    [[nodiscard]] const std::vector<std::string>& violations()
        const noexcept {
        return violations_;
    }
    [[nodiscard]] std::uint64_t violation_count() const noexcept {
        return violation_count_;
    }
    /// Cycles validated since reset().
    [[nodiscard]] std::uint64_t cycles_checked() const noexcept {
        return cycles_checked_;
    }
    /// Worst continuously-denied streak seen so far (invariant 4's
    /// measured quantity; tracked even when the fairness check is off).
    [[nodiscard]] std::uint64_t max_starvation_age() const noexcept {
        return ages_.high_watermark();
    }
    [[nodiscard]] const ParanoidOptions& options() const noexcept {
        return options_;
    }

private:
    void violation(const std::string& message);

    ParanoidOptions options_;
    std::size_t inputs_ = 0;
    std::size_t outputs_ = 0;
    StarvationAges ages_;
    std::uint64_t cycles_checked_ = 0;
    std::uint64_t violation_count_ = 0;
    std::vector<std::string> violations_;
};

}  // namespace lcf::obs
