#include "sched/wavefront.hpp"

namespace lcf::sched {

void WavefrontScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    priority_diag_ = 0;
}

void WavefrontScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    arbiter_.begin(requests, out);
    if (n_in == 0 || n_out == 0) return;

    // Wrapped diagonal d holds cells (i, j) with (i + j) mod n_out == d
    // (square switches in practice; rectangular ones sweep per-row).
    // Only rows that are still free and request something are visited:
    // an input with no request can never be matched. Set bits iterate in
    // ascending row order, so each diagonal matches exactly the cells
    // the naive full scan would.
    if (active_.size() != n_in) {
        active_ = util::BitVec(n_in);
        hits_.resize(n_in);
    }
    for (std::size_t i = 0; i < n_in; ++i) {
        active_.set(i, requests.row_count(i) > 0);
    }
    const util::BitVec& free_outputs = arbiter_.free_outputs();
    std::size_t d = wrap(priority_diag_, n_out);
    priority_diag_ = wrap(d + 1, n_out);
    for (std::size_t step = 0; step < n_out && active_.any();
         ++step, d = wrap(d + 1, n_out)) {
        // Collect the rows whose cell on this diagonal is requested and
        // free without a branch per cell, then match them in ascending
        // order. Two rows of a rectangular switch's diagonal can share a
        // column, so the column is checked again at the match.
        std::size_t hits = 0;
        for (const std::size_t i : active_.set_bits()) {
            const std::size_t j = rotated_rank(d, wrap(i, n_out), n_out);
            hits_[hits] = i;
            hits += static_cast<std::size_t>(free_outputs.test(j) &
                                             requests.get(i, j));
        }
        for (std::size_t h = 0; h < hits; ++h) {
            const std::size_t i = hits_[h];
            const std::size_t j = rotated_rank(d, wrap(i, n_out), n_out);
            if (free_outputs.test(j)) {
                arbiter_.match(i, j);
                active_.reset(i);
            }
        }
    }
}

}  // namespace lcf::sched
