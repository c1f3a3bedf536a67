#include "core/lcf_dist.hpp"

namespace lcf::core {

LcfDistScheduler::LcfDistScheduler(const LcfDistOptions& options)
    : options_(options) {}

void LcfDistScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    rr_input_ = 0;
    rr_output_ = 0;
    cycle_ = 0;
}

void LcfDistScheduler::schedule(const sched::RequestMatrix& requests,
                                sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    arbiter_.begin(requests, out);
    last_iterations_ = 0;
    if (n_in == 0 || n_out == 0) return;

    nrq_.resize(n_in);
    ngt_.resize(n_out);
    // A switch that shrank since the last cycle keeps walking its RR
    // position inside the current geometry.
    rr_input_ = sched::wrap(rr_input_, n_in);
    rr_output_ = sched::wrap(rr_output_, n_out);
    if (options_.round_robin && requests.get(rr_input_, rr_output_)) {
        // The single round-robin position is granted before regular LCF
        // iterations take place (§5).
        arbiter_.match(rr_input_, rr_output_);
    }

    // Grant: each unmatched target grants the requester with the lowest
    // NRQ, the rotating chain starting at (cycle_ + j) breaking ties, and
    // records NGT, the number of requests it saw. Accept: each initiator
    // accepts the grant with the lowest NGT, the chain starting at
    // (cycle_ + i) breaking ties. One division per side and slot, then
    // wrap() per pick.
    const std::size_t in0 = cycle_ % n_in;
    const std::size_t out0 = cycle_ % n_out;
    const auto grant = [&](std::size_t j, const util::BitVec& cand) {
        ngt_[j] = static_cast<std::uint32_t>(cand.count());
        return sched::min_rotated(cand, sched::wrap(in0 + j, n_in),
                                  [&](std::size_t i) { return nrq_[i]; });
    };
    const auto accept = [&](std::size_t i, const util::BitVec& offers,
                            std::size_t) {
        return sched::min_rotated(offers, sched::wrap(out0 + i, n_out),
                                  [&](std::size_t j) { return ngt_[j]; });
    };
    bool granted = true;
    while (granted && last_iterations_ < options_.iterations) {
        // Request: NRQ of an unmatched initiator = number of its
        // requests to still-unmatched targets (its remaining choices).
        for (const std::size_t i : arbiter_.free_inputs().set_bits()) {
            nrq_[i] = static_cast<std::uint32_t>(
                requests.row(i).and_count(arbiter_.free_outputs()));
        }
        granted = arbiter_.round(last_iterations_++, grant, accept);
    }

    // Advance per-cycle round-robin state: the RR position walks all n²
    // matrix positions; the tie-break chains rotate by one.
    rr_input_ = sched::wrap(rr_input_ + 1, n_in);
    if (rr_input_ == 0) rr_output_ = sched::wrap(rr_output_ + 1, n_out);
    ++cycle_;
}

}  // namespace lcf::core
