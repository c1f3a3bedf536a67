#include "sched/islip.hpp"

namespace lcf::sched {

IslipScheduler::IslipScheduler(const SchedulerConfig& config,
                               GrantPointerRule rule)
    : iterations_(config.iterations), rule_(rule) {}

void IslipScheduler::reset(std::size_t inputs, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
    accept_ptr_.assign(inputs, 0);
}

void IslipScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    if (grant_ptr_.size() != n_out || accept_ptr_.size() != n_in) {
        reset(n_in, n_out);
    }
    arbiter_.begin(requests, out);
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t j, const util::BitVec& cand) {
            return cand.find_first_from(grant_ptr_[j]);
        },
        [&](std::size_t i, const util::BitVec& offers, std::size_t iter) {
            const std::size_t j = offers.find_first_from(accept_ptr_[i]);
            if (iter == 0) {
                const std::size_t next = wrap(i + 1, n_in);
                grant_ptr_[j] = next;
                accept_ptr_[i] = wrap(j + 1, n_out);
                if (rule_ == GrantPointerRule::kUnconditional) {
                    for (const std::size_t g : offers.set_bits()) {
                        grant_ptr_[g] = next;  // refused grants move too
                    }
                }
            }
            return j;
        });
}

}  // namespace lcf::sched
