#include "obs/paranoid_checker.hpp"

#include <stdexcept>

namespace lcf::obs {

ParanoidChecker::ParanoidChecker(const ParanoidOptions& options)
    : options_(options) {}

ParanoidOptions ParanoidChecker::options_for(std::string_view scheduler_name,
                                             std::size_t iterations) {
    ParanoidOptions opts;
    // All rotating-diagonal variants promise at least the b/n² floor:
    // the anchor position covers every [i, j] once per n² cycles, so a
    // continuously asserted request is granted within n² cycles.
    opts.check_diagonal_fairness = scheduler_name == "lcf_central_rr" ||
                                   scheduler_name == "lcf_central_rr_single" ||
                                   scheduler_name == "lcf_central_rr_first";
    const bool iterative =
        scheduler_name == "pim" || scheduler_name == "islip" ||
        scheduler_name == "lcf_dist" || scheduler_name == "lcf_dist_rr";
    if (iterative) opts.iteration_budget = iterations;
    return opts;
}

void ParanoidChecker::reset(std::size_t inputs, std::size_t outputs) {
    inputs_ = inputs;
    outputs_ = outputs;
    ages_.reset(inputs, outputs);
    cycles_checked_ = 0;
    violation_count_ = 0;
    violations_.clear();
}

void ParanoidChecker::violation(const std::string& message) {
    const std::string full = "paranoid: cycle " +
                             std::to_string(cycles_checked_) + ": " + message;
    if (options_.throw_on_violation) throw std::logic_error(full);
    ++violation_count_;
    // Keep the log bounded; the count keeps the full tally.
    if (violations_.size() < 64) violations_.push_back(full);
}

std::size_t ParanoidChecker::check_cycle(const sched::RequestMatrix& requests,
                                         const sched::Matching& matching) {
    const std::uint64_t before = violation_count_;

    // Geometry.
    if (requests.inputs() != inputs_ || requests.outputs() != outputs_) {
        violation("request matrix geometry " +
                  std::to_string(requests.inputs()) + "x" +
                  std::to_string(requests.outputs()) + " != configured " +
                  std::to_string(inputs_) + "x" + std::to_string(outputs_));
        return static_cast<std::size_t>(violation_count_ - before);
    }
    if (matching.inputs() != inputs_ || matching.outputs() != outputs_) {
        violation("matching geometry mismatch");
        return static_cast<std::size_t>(violation_count_ - before);
    }

    // Invariants 1 + 2: valid partial permutation, every grant backed by
    // a request. Both direction maps are walked independently.
    for (std::size_t i = 0; i < inputs_; ++i) {
        const std::int32_t j = matching.output_of(i);
        if (j == sched::kUnmatched) continue;
        if (j < 0 || static_cast<std::size_t>(j) >= outputs_) {
            violation("input " + std::to_string(i) +
                      " matched to out-of-range output " + std::to_string(j));
            continue;
        }
        if (matching.input_of(static_cast<std::size_t>(j)) !=
            static_cast<std::int32_t>(i)) {
            violation("direction maps disagree: input " + std::to_string(i) +
                      " -> output " + std::to_string(j) + " but output " +
                      std::to_string(j) + " -> input " +
                      std::to_string(matching.input_of(
                          static_cast<std::size_t>(j))));
        }
        if (!requests.get(i, static_cast<std::size_t>(j))) {
            violation("grant [" + std::to_string(i) + ", " +
                      std::to_string(j) + "] has no backing request");
        }
    }
    for (std::size_t j = 0; j < outputs_; ++j) {
        const std::int32_t i = matching.input_of(j);
        if (i == sched::kUnmatched) continue;
        if (i < 0 || static_cast<std::size_t>(i) >= inputs_) {
            violation("output " + std::to_string(j) +
                      " matched to out-of-range input " + std::to_string(i));
            continue;
        }
        if (matching.output_of(static_cast<std::size_t>(i)) !=
            static_cast<std::int32_t>(j)) {
            violation("direction maps disagree: output " + std::to_string(j) +
                      " -> input " + std::to_string(i) + " but input " +
                      std::to_string(i) + " -> output " +
                      std::to_string(matching.output_of(
                          static_cast<std::size_t>(i))));
        }
    }

    // Invariant 3: the maintained word-parallel counts (NRQ per row, NGT
    // per column, grand total) equal counts recomputed bit by bit.
    std::uint64_t total_bits = 0;
    std::vector<std::size_t> col_bits(outputs_, 0);
    for (std::size_t i = 0; i < inputs_; ++i) {
        std::size_t row_bits = 0;
        for (std::size_t j = 0; j < outputs_; ++j) {
            if (requests.get(i, j)) {
                ++row_bits;
                ++col_bits[j];
            }
        }
        total_bits += row_bits;
        if (requests.row_count(i) != row_bits) {
            violation("NRQ mismatch at input " + std::to_string(i) +
                      ": row_count() = " +
                      std::to_string(requests.row_count(i)) +
                      ", recomputed = " + std::to_string(row_bits));
        }
    }
    for (std::size_t j = 0; j < outputs_; ++j) {
        if (requests.col_count(j) != col_bits[j]) {
            violation("NGT mismatch at output " + std::to_string(j) +
                      ": col_count() = " +
                      std::to_string(requests.col_count(j)) +
                      ", recomputed = " + std::to_string(col_bits[j]));
        }
    }
    if (requests.total() != total_bits) {
        violation("total() = " + std::to_string(requests.total()) +
                  " != recomputed " + std::to_string(total_bits));
    }

    // Invariant 4: rotating-diagonal fairness. The age of a position is
    // its continuously-requested-and-denied streak; the anchor visits
    // every position once per n_in * n_out cycles, so the streak may
    // never exceed that window.
    const std::uint64_t worst = ages_.observe(requests, matching);
    const std::uint64_t window = static_cast<std::uint64_t>(inputs_) * outputs_;
    if (options_.check_diagonal_fairness && worst > window) {
        violation("diagonal fairness violated: a continuously requesting "
                  "position has been denied for " +
                  std::to_string(worst) + " cycles (window " +
                  std::to_string(window) + ")");
    }

    ++cycles_checked_;
    return static_cast<std::size_t>(violation_count_ - before);
}

std::size_t ParanoidChecker::check_iterations(std::size_t used) {
    if (options_.iteration_budget == 0) return 0;
    const std::uint64_t before = violation_count_;
    if (used > options_.iteration_budget) {
        violation("scheduler ran " + std::to_string(used) +
                  " iterations, exceeding its budget of " +
                  std::to_string(options_.iteration_budget));
    }
    return static_cast<std::size_t>(violation_count_ - before);
}

}  // namespace lcf::obs
