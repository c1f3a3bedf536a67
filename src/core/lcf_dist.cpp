#include "core/lcf_dist.hpp"

#include "sched/arbiter.hpp"

namespace lcf::core {

LcfDistScheduler::LcfDistScheduler(const LcfDistOptions& options)
    : options_(options) {}

void LcfDistScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    rr_input_ = 0;
    rr_output_ = 0;
    cycle_ = 0;
}

std::size_t LcfDistScheduler::iterate(const sched::RequestMatrix& requests,
                                      std::size_t iterations,
                                      sched::Matching& out) const {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();

    // Free-port masks: candidates of target j are col(j) ∩ free_inputs,
    // and an initiator's NRQ is one word-parallel row ∩ free_outputs
    // popcount instead of a find_next walk over every request bit.
    util::BitVec free_inputs(n_in);
    util::BitVec free_outputs(n_out);
    for (std::size_t i = 0; i < n_in; ++i) {
        if (!out.input_matched(i)) free_inputs.set(i);
    }
    for (std::size_t j = 0; j < n_out; ++j) {
        if (!out.output_matched(j)) free_outputs.set(j);
    }

    std::vector<std::size_t> nrq(n_in, 0);
    std::vector<std::size_t> ngt(n_out, 0);
    std::vector<std::int32_t> grant_to(n_out, sched::kUnmatched);
    std::vector<std::size_t> granted;  // targets that issued a grant
    granted.reserve(n_out);
    // Per-initiator accept bookkeeping, reset each iteration.
    std::vector<std::int32_t> accept_of(n_in, sched::kUnmatched);
    std::vector<std::size_t> accept_ngt(n_in, 0);
    std::vector<std::size_t> accept_rank(n_in, 0);
    util::BitVec cand(n_in);

    std::size_t executed = 0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        ++executed;
        // Request: NRQ of an unmatched initiator = number of its requests
        // to still-unmatched targets (its remaining choices).
        for (const std::size_t i : free_inputs.set_bits()) {
            nrq[i] = requests.row(i).and_count(free_outputs);
        }

        // Grant: each unmatched target grants the requester with the
        // lowest NRQ; the rotating chain starting at (cycle_ + j) breaks
        // ties. NGT records how many requests the target saw. One walk
        // of the candidate set bits replaces the rotated scan over all
        // inputs: the chain order is the (NRQ, rotated rank) minimum.
        granted.clear();
        for (const std::size_t j : free_outputs.set_bits()) {
            cand.assign_and(requests.col(j), free_inputs);
            const std::size_t seen = cand.count();
            if (seen == 0) continue;
            ngt[j] = seen;
            const std::size_t start = (cycle_ + j) % n_in;
            std::size_t best = 0;
            std::size_t best_nrq = n_out + 1;
            std::size_t best_rank = n_in;
            for (const std::size_t i : cand.set_bits()) {
                const std::size_t rank = sched::rotated_rank(i, start, n_in);
                if (nrq[i] < best_nrq ||
                    (nrq[i] == best_nrq && rank < best_rank)) {
                    best = i;
                    best_nrq = nrq[i];
                    best_rank = rank;
                }
            }
            grant_to[j] = static_cast<std::int32_t>(best);
            granted.push_back(j);
        }
        if (granted.empty()) break;  // converged

        // Accept: each initiator accepts the grant from the target with
        // the lowest NGT; rotating chain starting at (cycle_ + i) breaks
        // ties. One pass over the issued grants replaces the per-input
        // scan over all targets.
        for (const std::size_t j : granted) {
            const auto i = static_cast<std::size_t>(grant_to[j]);
            const std::size_t start = (cycle_ + i) % n_out;
            const std::size_t rank = sched::rotated_rank(j, start, n_out);
            if (accept_of[i] == sched::kUnmatched || ngt[j] < accept_ngt[i] ||
                (ngt[j] == accept_ngt[i] && rank < accept_rank[i])) {
                accept_of[i] = static_cast<std::int32_t>(j);
                accept_ngt[i] = ngt[j];
                accept_rank[i] = rank;
            }
        }
        for (const std::size_t j : granted) {
            const auto i = static_cast<std::size_t>(grant_to[j]);
            if (accept_of[i] == static_cast<std::int32_t>(j)) {
                out.match(i, j);
                free_inputs.reset(i);
                free_outputs.reset(j);
            }
        }
        for (const std::size_t j : granted) {  // reset for the next iteration
            accept_of[static_cast<std::size_t>(grant_to[j])] = sched::kUnmatched;
        }
    }
    return executed;
}

void LcfDistScheduler::schedule(const sched::RequestMatrix& requests,
                                sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    last_iterations_ = 0;
    if (n_in == 0 || n_out == 0) return;

    if (options_.round_robin && requests.get(rr_input_, rr_output_)) {
        // The single round-robin position is granted before regular LCF
        // iterations take place (§5).
        out.match(rr_input_, rr_output_);
    }

    last_iterations_ = iterate(requests, options_.iterations, out);

    // Advance per-cycle round-robin state: the RR position walks all n²
    // matrix positions; the tie-break chains rotate by one.
    rr_input_ = (rr_input_ + 1) % n_in;
    if (rr_input_ == 0) rr_output_ = (rr_output_ + 1) % n_out;
    ++cycle_;
}

}  // namespace lcf::core
