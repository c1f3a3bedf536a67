#include "core/lcf_dist.hpp"

#include <algorithm>

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

    if (best_.size() != n_in || visit_.size() != n_out) {
        level_inputs_.assign(n_out + 1, util::BitVec(n_in));
        level_rows_.assign(n_out + 1, util::BitVec(n_out));
        used_ = util::BitVec(n_out + 1);
        visit_ = util::BitVec(n_out);
        granted_ = util::BitVec(n_in);
        best_.assign(n_in, UINT64_MAX);
    }
    // A switch that shrank since the last cycle keeps walking its RR
    // position inside the current geometry.
    rr_input_ = sched::wrap(rr_input_, n_in);
    rr_output_ = sched::wrap(rr_output_, n_out);
    if (options_.round_robin && requests.get(rr_input_, rr_output_)) {
        // The single round-robin position is granted before regular LCF
        // iterations take place (§5).
        arbiter_.match(rr_input_, rr_output_);
    }

    // Grant ties go to the rotating chain starting at (cycle_ + j),
    // accept ties to the one starting at (cycle_ + i). One division per
    // side and slot, then wrap() per pick.
    const std::size_t in0 = cycle_ % n_in;
    const std::size_t out0 = cycle_ % n_out;
    const util::BitVec& free_in = arbiter_.free_inputs();
    bool granted = true;
    for (; granted && last_iterations_ < options_.iterations;
         ++last_iterations_) {
        // Request: file each unmatched initiator under its NRQ, the
        // number of its requests to still-unmatched targets (its row
        // count while every output is free).
        const bool all_free = out.matched_outputs().none();
        for (const std::size_t i : free_in.set_bits()) {
            const std::size_t nrq =
                all_free ? requests.row_count(i)
                         : requests.row(i).and_count(arbiter_.free_outputs());
            if (nrq == 0) continue;
            level_inputs_[nrq].set(i);
            level_rows_[nrq] |= requests.row(i);
            used_.set(nrq);
        }

        // Grant: for k upwards, level k's row union ∩ the outputs not
        // yet granted are the outputs whose least-NRQ requester has NRQ
        // k. Each grants the first such requester in its chain, with NGT,
        // its request count. Accept: each input takes its least (NGT,
        // rank) grant, in ascending input order.
        visit_ = arbiter_.free_outputs();
        for (const std::size_t k : used_.set_bits()) {
            util::BitVec& hits = level_rows_[k];
            hits &= visit_;
            visit_.subtract(hits);
            for (const std::size_t j : hits.set_bits()) {
                const std::size_t i = requests.col(j).find_first_and_from(
                    level_inputs_[k], sched::wrap(in0 + j, n_in));
                const std::uint64_t ngt = requests.col(j).and_count(free_in);
                best_[i] = std::min(best_[i], ngt << 32 | sched::rotated_rank(
                    j, sched::wrap(out0 + i, n_out), n_out));
                granted_.set(i);
            }
            hits.clear();
            level_inputs_[k].clear();
        }
        used_.clear();

        granted = granted_.any();
        for (const std::size_t i : granted_.set_bits()) {
            arbiter_.match(i, sched::wrap(out0 + i + (best_[i] & UINT32_MAX),
                                          n_out));
            best_[i] = UINT64_MAX;
        }
        granted_.clear();
    }

    // Advance per-cycle round-robin state: the RR position walks all n²
    // matrix positions; the tie-break chains rotate by one.
    rr_input_ = sched::wrap(rr_input_ + 1, n_in);
    if (rr_input_ == 0) rr_output_ = sched::wrap(rr_output_ + 1, n_out);
    ++cycle_;
}

}  // namespace lcf::core
