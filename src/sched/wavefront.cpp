#include "sched/wavefront.hpp"

namespace lcf::sched {

void WavefrontScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    priority_diag_ = 0;
}

void WavefrontScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_out = requests.outputs();
    arbiter_.begin(requests, out);
    if (requests.inputs() == 0 || n_out == 0) return;

    // Wrapped diagonal d holds cells (i, j) with (i + j) mod n_out == d
    // (square switches in practice; rectangular ones sweep per-row).
    // Only still-free inputs are visited: set bits iterate in ascending
    // row order, so each diagonal matches exactly the cells the naive
    // full scan would.
    const util::BitVec& free_inputs = arbiter_.free_inputs();
    for (std::size_t step = 0; step < n_out && free_inputs.any(); ++step) {
        const std::size_t d = (priority_diag_ + step) % n_out;
        for (const std::size_t i : free_inputs.set_bits()) {
            const std::size_t j = rotated_rank(d, i % n_out, n_out);
            if (arbiter_.free_outputs().test(j) && requests.get(i, j)) {
                arbiter_.match(i, j);
            }
        }
    }
    priority_diag_ = (priority_diag_ + 1) % n_out;
}

}  // namespace lcf::sched
