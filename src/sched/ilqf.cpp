#include "sched/ilqf.hpp"

namespace lcf::sched {

IlqfScheduler::IlqfScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations) {}

void IlqfScheduler::reset(std::size_t /*inputs*/, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.clear();
    cycle_ = 0;
}

void IlqfScheduler::observe_queue_lengths(
    std::span<const std::uint32_t> lengths, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.assign(lengths.begin(), lengths.end());
}

std::uint32_t IlqfScheduler::weight(std::size_t input,
                                    std::size_t output) const noexcept {
    if (lengths_.empty()) return 1;  // standalone use: unweighted
    return lengths_[input * outputs_ + output];
}

void IlqfScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    arbiter_.begin(requests, out);
    // The chains start at cycle_ + j and cycle_ + i: one division per
    // side and slot, then wrap() per pick.
    const std::size_t in0 = n_in == 0 ? 0 : cycle_ % n_in;
    const std::size_t out0 = n_out == 0 ? 0 : cycle_ % n_out;
    // Grant to the requester with the longest VOQ, accept the grant from
    // the longest VOQ (drain the worst backlog first); chains rotating
    // with the cycle break ties. ~weight turns "longest" into the
    // smallest key.
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t j, std::size_t) {
            return min_rotated(arbiter_.candidates(j), wrap(in0 + j, n_in),
                               [&](std::size_t i) { return ~weight(i, j); });
        },
        [&](std::size_t i, std::size_t j) {
            return std::uint64_t{~weight(i, j)} << 32 |
                   rotated_rank(j, wrap(out0 + i, n_out), n_out);
        },
        [&](std::size_t i, std::uint64_t best, std::size_t) {
            return wrap(out0 + i + (best & UINT32_MAX), n_out);
        });
    ++cycle_;
}

}  // namespace lcf::sched
