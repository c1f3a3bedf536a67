#pragma once
// Shared core of the iterative request / grant / accept matchers
// (iSLIP/RRM, PIM, iLQF, FIFO) and of the wavefront sweep: the free-port
// sets (all that distributed LCF uses), each output's candidate set and
// each input's received grants. A scheduler supplies only its pick
// rules; a pick over a candidate or grant set is a word-parallel BitVec
// query ("first set bit at or after the pointer" via find_first_from)
// or a min_rotated() over the set bits, instead of a per-bit
// `(ptr + k) % n` probe loop; pointers move with wrap(), not `%`.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "util/bitvec.hpp"

namespace lcf::sched {

/// Position of `idx` in the rotating priority chain that starts at
/// `start` (both < n): 0 for the start position itself, n-1 for the one
/// just before it. Turns a rotated scan into a (key, rank) minimum over
/// set bits, with one conditional subtraction per bit.
constexpr std::size_t rotated_rank(std::size_t idx, std::size_t start,
                                   std::size_t n) noexcept {
    return idx >= start ? idx - start : idx + n - start;
}

/// x mod n for the sums rotating pointers form, a pointer below n plus
/// a step of at most n: a compare and a subtraction, dividing only when
/// x >= 2n (a pointer left over from a larger geometry, or a step as
/// long as a wider side of a rectangular switch).
constexpr std::size_t wrap(std::size_t x, std::size_t n) noexcept {
    return x < n ? x : x - n < n ? x - n : x % n;
}

/// The set bit of the non-empty `set` minimising (key(bit),
/// rotated_rank(bit, start, set.size())): the lowest key, ties going to
/// the bit earliest in the rotating chain from `start`. Keys must fit in
/// 32 bits; each bit is scored as one packed `(key << 32) | rank` word,
/// so the minimum costs a single compare per bit.
template <class Key>
std::size_t min_rotated(const util::BitVec& set, std::size_t start,
                        Key&& key) {
    const std::size_t n = set.size();
    std::uint64_t best = UINT64_MAX;
    for (const std::size_t k : set.set_bits()) {
        const std::uint64_t v = key(k);
        assert(v <= UINT32_MAX);
        best = std::min(best, v << 32 | rotated_rank(k, start, n));
    }
    assert(best != UINT64_MAX);
    const std::size_t idx = start + (best & UINT32_MAX);
    return idx >= n ? idx - n : idx;
}

/// Per-slot request / grant / accept state, sized from the request
/// matrix by begin() when the geometry changes; the grant/offer state
/// only round() touches is sized by its first call after such a change,
/// so users that never run a round (distributed LCF, the wavefront,
/// FIFO) do not carry it. Holds non-owning pointers to the request
/// matrix and matching of the current schedule() call.
class Arbiter {
public:
    /// Start a slot: reset `out` to the empty matching over the
    /// request matrix's geometry and mark every port free.
    void begin(const RequestMatrix& requests, Matching& out) {
        const std::size_t n_in = requests.inputs();
        const std::size_t n_out = requests.outputs();
        requests_ = &requests;
        out_ = &out;
        out.reset(n_in, n_out);
        if (free_inputs_.size() != n_in || free_outputs_.size() != n_out) {
            free_inputs_ = cand_ = util::BitVec(n_in);
            free_outputs_ = util::BitVec(n_out);
            offers_.clear();  // round() sizes its state on first use
        }
        free_inputs_.fill();
        free_outputs_.fill();
    }

    [[nodiscard]] const util::BitVec& free_inputs() const noexcept {
        return free_inputs_;
    }
    [[nodiscard]] const util::BitVec& free_outputs() const noexcept {
        return free_outputs_;
    }

    /// Output j's candidates: its requesters that are still unmatched.
    /// The reference stays valid until the next candidates() call.
    [[nodiscard]] const util::BitVec& candidates(std::size_t j) noexcept {
        cand_.assign_and(requests_->col(j), free_inputs_);
        return cand_;
    }

    /// Pair input i with output j and take both off the free sets.
    void match(std::size_t i, std::size_t j) noexcept {
        out_->match(i, j);
        free_inputs_.reset(i);
        free_outputs_.reset(j);
    }

    /// One request / grant / accept round; returns false when it
    /// issues no grant (the matcher has converged). Every free output
    /// with candidates grants `grant(j, candidates)`; then every input
    /// holding grants, in ascending order, accepts
    /// `accept(i, offers, iter)` out of its set of granting outputs.
    template <class Grant, class Accept>
    bool round(std::size_t iter, Grant&& grant, Accept&& accept) {
        if (offers_.size() != free_inputs_.size()) {
            granted_ = util::BitVec(free_inputs_.size());
            offers_.assign(free_inputs_.size(),
                           util::BitVec(free_outputs_.size()));
        }
        for (const std::size_t j : free_outputs_.set_bits()) {
            if (candidates(j).none()) continue;
            const std::size_t i = grant(j, cand_);
            offers_[i].set(j);
            granted_.set(i);
        }
        if (granted_.none()) return false;
        for (const std::size_t i : granted_.set_bits()) {
            match(i, accept(i, offers_[i], iter));
            offers_[i].clear();
        }
        granted_.clear();
        return true;
    }

    /// Up to `iterations` rounds; returns the number executed (a round
    /// that issues no grant is the last).
    template <class Grant, class Accept>
    std::size_t iterate(std::size_t iterations, Grant&& grant,
                        Accept&& accept) {
        std::size_t iter = 0;
        while (iter < iterations && round(iter++, grant, accept)) {
        }
        return iter;
    }

private:
    const RequestMatrix* requests_ = nullptr;
    Matching* out_ = nullptr;
    util::BitVec free_inputs_;
    util::BitVec free_outputs_;
    util::BitVec cand_;                // scratch: candidates(j)
    util::BitVec granted_;             // round(): inputs holding grants
    std::vector<util::BitVec> offers_;  // round(): each input's grants
};

}  // namespace lcf::sched
