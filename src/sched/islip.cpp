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
    // RRM moves every granting output's pointer in the first iteration,
    // here at grant time: nothing reads it again before the next round.
    const bool move_on_grant = rule_ == GrantPointerRule::kUnconditional;
    last_iterations_ = arbiter_.iterate(
        iterations_,
        [&](std::size_t j, std::size_t iter) {
            const std::size_t i = requests.col(j).find_first_and_from(
                arbiter_.free_inputs(), grant_ptr_[j]);
            if (iter == 0 && move_on_grant && i != util::BitVec::npos) {
                grant_ptr_[j] = wrap(i + 1, n_in);
            }
            return i;
        },
        [&](std::size_t i, std::size_t j) -> std::uint64_t {
            return rotated_rank(j, accept_ptr_[i], n_out);  // key 0
        },
        [&](std::size_t i, std::uint64_t rank, std::size_t iter) {
            const std::size_t j = wrap(accept_ptr_[i] + rank, n_out);
            if (iter == 0) {
                grant_ptr_[j] = wrap(i + 1, n_in);
                accept_ptr_[i] = wrap(j + 1, n_out);
            }
            return j;
        });
}

}  // namespace lcf::sched
