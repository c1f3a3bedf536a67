#include "sched/fifo_rr.hpp"

namespace lcf::sched {

void FifoRrScheduler::reset(std::size_t inputs, std::size_t outputs) {
    inputs_ = inputs;
    grant_ptr_.assign(outputs, 0);
}

void FifoRrScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    if (inputs_ != n_in || grant_ptr_.size() != requests.outputs()) {
        reset(n_in, requests.outputs());
    }
    arbiter_.begin(requests, out);
    // In FIFO mode each input requests at most its head-of-line
    // destination, so grants never conflict on the input side. Granting
    // only free inputs makes the arbiter well-defined on general request
    // matrices too (it then acts as a greedy row-exclusive round-robin
    // arbiter).
    for (const std::size_t j : arbiter_.free_outputs().set_bits()) {
        const std::size_t i = requests.col(j).find_first_and_from(
            arbiter_.free_inputs(), grant_ptr_[j]);
        if (i == util::BitVec::npos) continue;
        arbiter_.match(i, j);
        grant_ptr_[j] = wrap(i + 1, n_in);
    }
}

}  // namespace lcf::sched
