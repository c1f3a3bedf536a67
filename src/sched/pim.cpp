#include "sched/pim.hpp"

namespace lcf::sched {

PimScheduler::PimScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations), rng_(config.seed), seed_(config.seed) {}

void PimScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    rng_ = util::Xoshiro256(seed_);
}

void PimScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    arbiter_.begin(requests, out);
    // The RNG draw sequence is part of the observable behaviour (runs
    // are reproducible from the seed), so both picks draw exactly as a
    // per-bit scan would: the grant's reservoir sample draws once per
    // candidate, the first included; the accept draws only on a choice.
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t /*j*/, const util::BitVec& cand) {
            std::size_t chosen = 0;
            std::uint64_t seen = 0;
            for (const std::size_t i : cand.set_bits()) {
                ++seen;
                if (rng_.next_below(seen) == 0) chosen = i;
            }
            return chosen;
        },
        [&](std::size_t /*i*/, const util::BitVec& offers, std::size_t) {
            const std::size_t count = offers.count();
            std::size_t j = offers.find_first();
            for (auto k = count == 1 ? 0 : rng_.next_below(count); k > 0; --k) {
                j = offers.find_next(j);
            }
            return j;
        });
}

}  // namespace lcf::sched
