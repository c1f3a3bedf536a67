#pragma once
// Shared core of the iterative request / grant / accept matchers
// (iSLIP/RRM, PIM, iLQF, FIFO) and of the wavefront sweep: the free-port
// sets (all that distributed LCF uses) and the grant/accept round. A
// scheduler supplies only its pick rules: word-parallel BitVec queries
// (find_first_and_from) or a min_rotated() over the candidates, and a
// running minimum of packed `key << 32 | rotated rank` words for the
// accept; pointers move with wrap(), not `%`.

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

/// The set bit of `set` minimising (key(bit), rotated_rank(bit, start,
/// set.size())): the lowest key, ties going to the bit earliest in the
/// rotating chain from `start`; npos when `set` is empty. Keys must fit
/// in 32 bits; each bit is scored as one packed `(key << 32) | rank`
/// word, so the minimum costs a single compare per bit.
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
    return best == UINT64_MAX ? util::BitVec::npos
                              : wrap(start + (best & UINT32_MAX), n);
}

/// Per-slot request / grant / accept state, sized from the request
/// matrix by begin() when the geometry changes; round()'s own state
/// (live outputs, each input's least grant score; no offer sets) is
/// sized by its first call after such a change. Holds non-owning
/// pointers to the request matrix and matching of the current call.
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

    /// One request / grant / accept round; false when it issues no
    /// grant. Every live output j grants `grant(j, iter)`: an input, or
    /// npos when no free input requests j, which then sits out the slot
    /// (free inputs only shrink). Each input keeps the least score(i, j)
    /// of its grants; inputs accept `accept(i, least, iter)` in order.
    template <class Grant, class Score, class Accept>
    bool round(std::size_t iter, Grant&& grant, Score&& score,
               Accept&& accept) {
        if (iter == 0) live_ = free_outputs_;
        if (free_inputs_.none()) return false;
        if (best_.size() != free_inputs_.size()) {
            best_.assign(free_inputs_.size(), UINT64_MAX);
            granted_ = util::BitVec(free_inputs_.size());
        }
        for (const std::size_t j : live_.set_bits()) {
            const std::size_t i = grant(j, iter);
            if (i == util::BitVec::npos) {
                live_.reset(j);
                continue;
            }
            best_[i] = std::min(best_[i], score(i, j));
            granted_.set(i);
        }
        if (granted_.none()) return false;
        for (const std::size_t i : granted_.set_bits()) {
            const std::size_t j = accept(i, best_[i], iter);
            match(i, j);
            live_.reset(j);
            best_[i] = UINT64_MAX;
        }
        granted_.clear();
        return true;
    }

    /// Up to `iterations` rounds; returns the number executed (a round
    /// that issues no grant is the last).
    template <class Grant, class Score, class Accept>
    std::size_t iterate(std::size_t iterations, Grant&& grant, Score&& score,
                        Accept&& accept) {
        std::size_t iter = 0;
        while (iter < iterations && round(iter++, grant, score, accept)) {
        }
        return iter;
    }

private:
    const RequestMatrix* requests_ = nullptr;
    Matching* out_ = nullptr;
    util::BitVec free_inputs_;
    util::BitVec free_outputs_;
    util::BitVec cand_;                // scratch: candidates(j)
    util::BitVec live_;                // round(): outputs still requested
    util::BitVec granted_;             // round(): inputs holding grants
    std::vector<std::uint64_t> best_;  // round(): each input's least score
};

}  // namespace lcf::sched
