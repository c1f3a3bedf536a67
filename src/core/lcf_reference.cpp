#include "core/lcf_reference.hpp"

#include <cassert>

namespace lcf::core {

// ---------------------------------------------------------------------------
// Central reference — verbatim seed implementation of Figure 2.

LcfCentralReferenceScheduler::LcfCentralReferenceScheduler(
    const LcfCentralOptions& options)
    : options_(options) {}

std::string_view LcfCentralReferenceScheduler::name() const noexcept {
    switch (options_.variant) {
        case RrVariant::kNone:
            return "lcf_central_reference";
        case RrVariant::kSingle:
            return "lcf_central_rr_single_reference";
        case RrVariant::kInterleaved:
            return "lcf_central_rr_reference";
        case RrVariant::kDiagonalFirst:
            return "lcf_central_rr_first_reference";
    }
    return "lcf_central_reference";
}

void LcfCentralReferenceScheduler::reset(std::size_t inputs,
                                         std::size_t outputs) {
    rr_input_ = 0;
    rr_output_ = 0;
    scratch_rows_.assign(inputs, util::BitVec(outputs));
    nrq_.assign(inputs, 0);
}

void LcfCentralReferenceScheduler::set_diagonal(
    std::size_t input_offset, std::size_t output_offset) noexcept {
    rr_input_ = input_offset;
    rr_output_ = output_offset;
}

void LcfCentralReferenceScheduler::advance_diagonal() noexcept {
    const std::size_t n_in = scratch_rows_.size();
    const std::size_t n_out = scratch_rows_.empty() ? 0 : scratch_rows_[0].size();
    if (n_in == 0 || n_out == 0) return;
    rr_input_ = (rr_input_ + 1) % n_in;
    if (rr_input_ == 0) rr_output_ = (rr_output_ + 1) % n_out;
}

void LcfCentralReferenceScheduler::schedule(const sched::RequestMatrix& requests,
                                            sched::Matching& out) {
    run_lcf(requests, nullptr, nullptr, out);
    advance_diagonal();
}

void LcfCentralReferenceScheduler::run_lcf(const sched::RequestMatrix& requests,
                                           const util::BitVec* busy_inputs,
                                           const util::BitVec* busy_outputs,
                                           sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (n_in == 0 || n_out == 0) return;

    if (scratch_rows_.size() != n_in ||
        (n_in > 0 && scratch_rows_[0].size() != n_out)) {
        scratch_rows_.assign(n_in, util::BitVec(n_out));
        nrq_.assign(n_in, 0);
    }

    // Copy the request matrix (the algorithm consumes rows as it grants)
    // and mask away ports already consumed by a precalculated stage.
    for (std::size_t i = 0; i < n_in; ++i) {
        scratch_rows_[i] = requests.row(i);
        if (busy_inputs != nullptr && busy_inputs->test(i)) {
            scratch_rows_[i].clear();
        } else if (busy_outputs != nullptr) {
            scratch_rows_[i].subtract(*busy_outputs);
        }
        nrq_[i] = scratch_rows_[i].count();
    }

    // Grant a pair and maintain the NRQ bookkeeping: the winner's row
    // leaves the competition and requests for the consumed output stop
    // counting as choices.
    const auto grant = [&](std::size_t input, std::size_t col) {
        out.match(input, col);
        scratch_rows_[input].clear();
        nrq_[input] = 0;
        for (std::size_t i = 0; i < n_in; ++i) {
            if (scratch_rows_[i].test(col)) {
                assert(nrq_[i] > 0);
                --nrq_[i];
            }
        }
    };

    // Diagonal-first variant: the entire round-robin diagonal is
    // admitted before any LCF priority is consulted (§3's b/n upper
    // bound).
    if (options_.variant == RrVariant::kDiagonalFirst) {
        for (std::size_t res = 0; res < n_out; ++res) {
            const std::size_t col = (rr_output_ + res) % n_out;
            if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
            const std::size_t pos_input = (rr_input_ + res) % n_in;
            if (scratch_rows_[pos_input].test(col)) {
                grant(pos_input, col);
            }
        }
    }

    // Allocate resources one after the other (Figure 2 main loop).
    for (std::size_t res = 0; res < n_out; ++res) {
        const std::size_t col = (rr_output_ + res) % n_out;
        if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
        if (out.output_matched(col)) continue;  // diagonal-first stage

        std::int32_t gnt = sched::kUnmatched;
        const std::size_t rr_pos_input = (rr_input_ + res) % n_in;
        const bool rr_wins =
            (options_.variant == RrVariant::kInterleaved ||
             (options_.variant == RrVariant::kSingle && res == 0)) &&
            scratch_rows_[rr_pos_input].test(col);
        if (rr_wins) {
            // The round-robin position wins unconditionally.
            gnt = static_cast<std::int32_t>(rr_pos_input);
        } else {
            // LCF: grant the requester with the fewest outstanding
            // requests; the scan order starting at the round-robin offset
            // realises the rotating tie-break priority chain.
            std::size_t min_nrq = n_out + 1;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (k + rr_input_ + res) % n_in;
                if (scratch_rows_[i].test(col) && nrq_[i] < min_nrq) {
                    gnt = static_cast<std::int32_t>(i);
                    min_nrq = nrq_[i];
                }
            }
        }

        if (gnt != sched::kUnmatched) {
            grant(static_cast<std::size_t>(gnt), col);
        }
    }
}

void LcfCentralReferenceScheduler::schedule_with_precalc(
    const sched::RequestMatrix& requests, const PrecalcSchedule& precalc,
    MulticastResult& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    assert(precalc.inputs() == n_in && precalc.outputs() == n_out);

    out.fanout.assign(n_out, sched::kUnmatched);
    out.dropped.clear();

    // Stage 1: integrity-check and admit the precalculated schedule.
    util::BitVec busy_inputs(n_in);
    util::BitVec busy_outputs(n_out);
    for (std::size_t j = 0; j < n_out; ++j) {
        for (std::size_t k = 0; k < n_in; ++k) {
            const std::size_t i = (rr_input_ + k) % n_in;
            if (!precalc.claimed(i, j)) continue;
            if (out.fanout[j] == sched::kUnmatched) {
                out.fanout[j] = static_cast<std::int32_t>(i);
                busy_outputs.set(j);
            } else {
                out.dropped.emplace_back(i, j);
            }
        }
    }
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.fanout[j] != sched::kUnmatched) {
            busy_inputs.set(static_cast<std::size_t>(out.fanout[j]));
        }
    }

    // Stage 2: regular LCF over the remaining requests and free ports.
    run_lcf(requests, &busy_inputs, &busy_outputs, out.unicast);
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.unicast.input_of(j) != sched::kUnmatched) {
            out.fanout[j] = out.unicast.input_of(j);
        }
    }
    advance_diagonal();
}

// ---------------------------------------------------------------------------
// Distributed reference — verbatim seed implementation of §5.

LcfDistReferenceScheduler::LcfDistReferenceScheduler(
    const LcfDistOptions& options)
    : options_(options) {}

void LcfDistReferenceScheduler::reset(std::size_t /*inputs*/,
                                      std::size_t /*outputs*/) {
    rr_input_ = 0;
    rr_output_ = 0;
    cycle_ = 0;
}

std::size_t LcfDistReferenceScheduler::iterate(
    const sched::RequestMatrix& requests, std::size_t iterations,
    sched::Matching& out) const {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();

    std::vector<std::size_t> nrq(n_in, 0);
    std::vector<std::size_t> ngt(n_out, 0);
    std::vector<std::int32_t> grant_to(n_out, sched::kUnmatched);

    std::size_t executed = 0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        ++executed;
        // Request: NRQ of an unmatched initiator = number of its requests
        // to still-unmatched targets (its remaining choices).
        for (std::size_t i = 0; i < n_in; ++i) {
            nrq[i] = 0;
            if (out.input_matched(i)) continue;
            const auto& row = requests.row(i);
            for (std::size_t j = row.find_first(); j != util::BitVec::npos;
                 j = row.find_next(j)) {
                if (!out.output_matched(j)) ++nrq[i];
            }
        }

        // Grant: each unmatched target grants the requester with the
        // lowest NRQ; the rotating chain starting at (cycle_ + j) breaks
        // ties. NGT records how many requests the target saw.
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            grant_to[j] = sched::kUnmatched;
            ngt[j] = 0;
            if (out.output_matched(j)) continue;
            std::size_t min_nrq = n_out + 1;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (cycle_ + j + k) % n_in;
                if (out.input_matched(i) || !requests.get(i, j)) continue;
                ++ngt[j];
                if (nrq[i] < min_nrq) {
                    min_nrq = nrq[i];
                    grant_to[j] = static_cast<std::int32_t>(i);
                }
            }
            any_grant = any_grant || grant_to[j] != sched::kUnmatched;
        }
        if (!any_grant) break;  // converged

        // Accept: each initiator accepts the grant from the target with
        // the lowest NGT; rotating chain starting at (cycle_ + i) breaks
        // ties.
        for (std::size_t i = 0; i < n_in; ++i) {
            if (out.input_matched(i)) continue;
            std::int32_t best = sched::kUnmatched;
            std::size_t min_ngt = n_in + 1;
            for (std::size_t k = 0; k < n_out; ++k) {
                const std::size_t j = (cycle_ + i + k) % n_out;
                if (grant_to[j] != static_cast<std::int32_t>(i)) continue;
                if (ngt[j] < min_ngt) {
                    min_ngt = ngt[j];
                    best = static_cast<std::int32_t>(j);
                }
            }
            if (best != sched::kUnmatched) {
                out.match(i, static_cast<std::size_t>(best));
            }
        }
    }
    return executed;
}

void LcfDistReferenceScheduler::schedule(const sched::RequestMatrix& requests,
                                         sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    last_iterations_ = 0;
    if (n_in == 0 || n_out == 0) return;

    rr_input_ %= n_in;  // a shrunk switch wraps its RR position
    rr_output_ %= n_out;
    if (options_.round_robin && requests.get(rr_input_, rr_output_)) {
        // The single round-robin position is granted before regular LCF
        // iterations take place (§5).
        out.match(rr_input_, rr_output_);
    }

    last_iterations_ = iterate(requests, options_.iterations, out);

    rr_input_ = (rr_input_ + 1) % n_in;
    if (rr_input_ == 0) rr_output_ = (rr_output_ + 1) % n_out;
    ++cycle_;
}

}  // namespace lcf::core
