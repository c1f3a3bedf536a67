#include "core/lcf_central.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sched/arbiter.hpp"

namespace lcf::core {

LcfCentralScheduler::LcfCentralScheduler(const LcfCentralOptions& options)
    : options_(options) {}

std::string_view LcfCentralScheduler::name() const noexcept {
    switch (options_.variant) {
        case RrVariant::kNone:
            return "lcf_central";
        case RrVariant::kSingle:
            return "lcf_central_rr_single";
        case RrVariant::kInterleaved:
            return "lcf_central_rr";
        case RrVariant::kDiagonalFirst:
            return "lcf_central_rr_first";
    }
    return "lcf_central";
}

void LcfCentralScheduler::reset(std::size_t inputs, std::size_t outputs) {
    rr_input_ = 0;
    rr_output_ = 0;
    ensure_scratch(inputs, outputs);
}

void LcfCentralScheduler::ensure_scratch(std::size_t n_in, std::size_t n_out) {
    n_in_ = n_in;
    n_out_ = n_out;
    free_inputs_ = util::BitVec(n_in);
    live_words_.resize(free_inputs_.word_count());
    masked_row_ = util::BitVec(n_out);
    busy_inputs_ = util::BitVec(n_in);
    busy_outputs_ = util::BitVec(n_out);
    nrq_.assign(n_in, 0);
}

void LcfCentralScheduler::set_diagonal(std::size_t input_offset,
                                       std::size_t output_offset) noexcept {
    rr_input_ = input_offset;
    rr_output_ = output_offset;
}

void LcfCentralScheduler::advance_diagonal() noexcept {
    // I := (I+1) mod MaxReq; if I = 0 then J := (J+1) mod MaxRes — so the
    // diagonal anchor visits all n² positions over n² scheduling cycles.
    if (n_in_ == 0 || n_out_ == 0) return;
    rr_input_ = sched::wrap(rr_input_ + 1, n_in_);
    if (rr_input_ == 0) rr_output_ = sched::wrap(rr_output_ + 1, n_out_);
}

void LcfCentralScheduler::schedule(const sched::RequestMatrix& requests,
                                   sched::Matching& out) {
    run_lcf(requests, nullptr, nullptr, out);
    advance_diagonal();
}

// One pass over column ∧ free_inputs_: the non-zero words are gathered
// first (a store per word and no branch), then only they are walked. Each
// candidate's key is read before its own decrement, so the pick sees the
// NRQ of the moment the output is scheduled, and every candidate — the
// winner too, whose count is never read again since it leaves
// free_inputs_ — loses the choice this output was.
std::size_t LcfCentralScheduler::charge(const util::BitVec& column,
                                        std::size_t start) noexcept {
    std::size_t live = 0;
    for (std::size_t w = 0; w < live_words_.size(); ++w) {
        const std::uint64_t bits = column.word(w) & free_inputs_.word(w);
        live_words_[live] = {bits, w * util::BitVec::kWordBits};
        live += bits != 0;
    }
    if (live == 0) return util::BitVec::npos;
    std::uint64_t best = UINT64_MAX;
    for (std::size_t k = 0; k < live; ++k) {
        const auto [word, base] = live_words_[k];
        for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
            const std::size_t i =
                base + static_cast<std::size_t>(std::countr_zero(bits));
            assert(nrq_[i] > 0);
            best = std::min(best, std::uint64_t{nrq_[i]--} << 32 |
                                      sched::rotated_rank(i, start, n_in_));
        }
    }
    return sched::wrap(start + (best & UINT32_MAX), n_in_);
}

void LcfCentralScheduler::run_lcf(const sched::RequestMatrix& requests,
                                  const util::BitVec* busy_inputs,
                                  const util::BitVec* busy_outputs,
                                  sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (n_in == 0 || n_out == 0) return;

    if (n_in_ != n_in || n_out_ != n_out) ensure_scratch(n_in, n_out);

    // Everyone not consumed by a precalculated stage competes; NRQ
    // starts as the row count (a popcount only when busy outputs mask
    // the row). The request matrix itself is never copied — candidate
    // sets come from its column view, masked by free_inputs_.
    free_inputs_.fill();
    if (busy_inputs != nullptr) free_inputs_.subtract(*busy_inputs);
    for (std::size_t i = 0; i < n_in; ++i) {
        if (!free_inputs_.test(i)) {
            nrq_[i] = 0;
        } else if (busy_outputs != nullptr) {
            masked_row_.assign_subtract(requests.row(i), *busy_outputs);
            nrq_[i] = static_cast<std::uint32_t>(masked_row_.count());
        } else {
            nrq_[i] = static_cast<std::uint32_t>(requests.row_count(i));
        }
    }

    // Resource res is column rr_output_ + res and its round-robin
    // position input rr_input_ + res (each mod its port count): two
    // running indices that wrap() as they step.
    const std::size_t col0 = sched::wrap(rr_output_, n_out);
    const std::size_t in0 = sched::wrap(rr_input_, n_in);

    // Diagonal-first variant: the entire round-robin diagonal is
    // admitted before any LCF priority is consulted (§3's b/n upper
    // bound).
    if (options_.variant == RrVariant::kDiagonalFirst) {
        for (std::size_t res = 0, col = col0, pos_input = in0; res < n_out;
             ++res, col = col + 1 == n_out ? 0 : col + 1,
                    pos_input = pos_input + 1 == n_in ? 0 : pos_input + 1) {
            if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
            if (free_inputs_.test(pos_input) &&
                requests.get(pos_input, col)) {
                charge(requests.col(col), pos_input);
                out.match(pos_input, col);
                free_inputs_.reset(pos_input);
            }
        }
    }

    // Allocate resources one after the other (Figure 2 main loop).
    for (std::size_t res = 0, col = col0, rr_pos_input = in0; res < n_out;
         ++res, col = col + 1 == n_out ? 0 : col + 1,
                rr_pos_input = rr_pos_input + 1 == n_in ? 0 : rr_pos_input + 1) {
        if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
        if (options_.variant == RrVariant::kDiagonalFirst &&
            out.output_matched(col)) {
            continue;
        }

        // LCF: the requester with the fewest outstanding requests wins,
        // the chain rotating from the round-robin offset breaking ties —
        // exactly the reference's priority chain — unless the round-robin
        // position itself requests this output.
        const util::BitVec& column = requests.col(col);
        const bool rr_wins =
            (options_.variant == RrVariant::kInterleaved ||
             (options_.variant == RrVariant::kSingle && res == 0)) &&
            column.test(rr_pos_input) && free_inputs_.test(rr_pos_input);
        const std::size_t least = charge(column, rr_pos_input);
        if (least == util::BitVec::npos) continue;
        const std::size_t gnt = rr_wins ? rr_pos_input : least;
        out.match(gnt, col);
        free_inputs_.reset(gnt);
    }
}

void LcfCentralScheduler::schedule_with_precalc(
    const sched::RequestMatrix& requests, const PrecalcSchedule& precalc,
    MulticastResult& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    assert(precalc.inputs() == n_in && precalc.outputs() == n_out);

    out.fanout.assign(n_out, sched::kUnmatched);
    out.dropped.clear();

    // Stage 1: integrity-check and admit the precalculated schedule. A
    // target claimed by several inputs is a violation: the first claimant
    // in the rotating priority order is accepted, the rest are dropped
    // (§4.3: "one request is accepted and the remaining ones are
    // dropped"). Each target's claimants are walked in rotated order
    // directly from the claim matrix's column.
    if (n_in_ != n_in || n_out_ != n_out) ensure_scratch(n_in, n_out);
    busy_inputs_.clear();
    busy_outputs_.clear();
    const std::size_t rot0 = n_in == 0 ? 0 : sched::wrap(rr_input_, n_in);
    for (std::size_t j = 0; j < n_out; ++j) {
        // Rotated order from the diagonal anchor: indices >= rot0 first.
        for (const int pass : {0, 1}) {
            for (const std::size_t i : precalc.col(j).set_bits()) {
                if ((i >= rot0) != (pass == 0)) continue;
                if (out.fanout[j] == sched::kUnmatched) {
                    out.fanout[j] = static_cast<std::int32_t>(i);
                    busy_outputs_.set(j);
                } else {
                    out.dropped.emplace_back(i, j);
                }
            }
        }
    }
    // An input that won any precalculated connection transmits that
    // packet this slot and does not take part in the LCF stage.
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.fanout[j] != sched::kUnmatched) {
            busy_inputs_.set(static_cast<std::size_t>(out.fanout[j]));
        }
    }

    // Stage 2: regular LCF over the remaining requests and free ports.
    run_lcf(requests, &busy_inputs_, &busy_outputs_, out.unicast);
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.unicast.input_of(j) != sched::kUnmatched) {
            out.fanout[j] = out.unicast.input_of(j);
        }
    }
    advance_diagonal();
}

}  // namespace lcf::core
