#include "sched/pim.hpp"

namespace lcf::sched {

PimScheduler::PimScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations), rng_(config.seed), seed_(config.seed) {}

void PimScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    rng_ = util::Xoshiro256(seed_);
}

void PimScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    if (offers_.size() != requests.inputs() ||
        (!offers_.empty() && offers_[0].size() != requests.outputs())) {
        offers_.assign(requests.inputs(), util::BitVec(requests.outputs()));
    }
    arbiter_.begin(requests, out);
    // The RNG draw sequence is part of the observable behaviour (runs
    // are reproducible from the seed), so both picks draw exactly as a
    // per-bit scan would: the grant's reservoir sample draws once per
    // candidate, the first included; the accept draws only on a choice,
    // over the grants the grant callback records in offers_.
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t j, std::size_t) {
            std::size_t chosen = util::BitVec::npos;
            std::uint64_t seen = 0;
            for (const std::size_t i : arbiter_.candidates(j).set_bits()) {
                ++seen;
                if (rng_.next_below(seen) == 0) chosen = i;
            }
            if (chosen != util::BitVec::npos) offers_[chosen].set(j);
            return chosen;
        },
        [](std::size_t, std::size_t) { return std::uint64_t{0}; },
        [&](std::size_t i, std::uint64_t, std::size_t) {
            const std::size_t count = offers_[i].count();
            std::size_t j = offers_[i].find_first();
            for (auto k = count == 1 ? 0 : rng_.next_below(count); k > 0; --k) {
                j = offers_[i].find_next(j);
            }
            offers_[i].clear();
            return j;
        });
}

}  // namespace lcf::sched
