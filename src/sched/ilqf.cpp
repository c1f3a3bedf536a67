#include "sched/ilqf.hpp"

namespace lcf::sched {

namespace {

/// The set bit with the largest weight; among equals, the one earliest
/// in the rotating chain from `start` — the (-weight, rotated rank)
/// minimum, as LCF's (NRQ, rank) walk.
template <class Weight>
std::size_t longest(const util::BitVec& set, std::size_t start,
                    Weight&& weight) {
    const std::size_t n = set.size();
    std::size_t best = util::BitVec::npos;
    std::uint32_t best_weight = 0;
    std::size_t best_rank = n;
    for (const std::size_t k : set.set_bits()) {
        const std::uint32_t w = weight(k);
        const std::size_t rank = rotated_rank(k, start, n);
        if (best == util::BitVec::npos || w > best_weight ||
            (w == best_weight && rank < best_rank)) {
            best = k;
            best_weight = w;
            best_rank = rank;
        }
    }
    return best;
}

}  // namespace

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
    // Grant to the requester with the longest VOQ, accept the grant from
    // the longest VOQ (drain the worst backlog first); chains rotating
    // with the cycle break ties.
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t j, const util::BitVec& cand) {
            return longest(cand, (cycle_ + j) % n_in,
                           [&](std::size_t i) { return weight(i, j); });
        },
        [&](std::size_t i, const util::BitVec& offers, std::size_t) {
            return longest(offers, (cycle_ + i) % n_out,
                           [&](std::size_t j) { return weight(i, j); });
        });
    ++cycle_;
}

}  // namespace lcf::sched
