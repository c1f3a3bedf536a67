#pragma once
// A conflict-free schedule for one time slot: a (partial) matching of
// inputs to outputs. Both directions of the map are maintained so the
// crossbar and the metrics code can query either side in O(1).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

class RequestMatrix;

/// Sentinel for "unmatched" in Matching.
inline constexpr std::int32_t kUnmatched = -1;

/// Partial bipartite matching between inputs and outputs.
/// Invariant: in_to_out[i] == j  <=>  out_to_in[j] == i.
class Matching {
public:
    Matching() = default;
    /// Empty matching over `inputs` × `outputs` ports.
    Matching(std::size_t inputs, std::size_t outputs);
    explicit Matching(std::size_t ports) : Matching(ports, ports) {}

    [[nodiscard]] std::size_t inputs() const noexcept { return in_to_out_.size(); }
    [[nodiscard]] std::size_t outputs() const noexcept { return out_to_in_.size(); }

    /// Reset all pairs to unmatched; also used to resize between slots.
    void reset(std::size_t inputs, std::size_t outputs);

    /// Connect input i to output j (both must currently be unmatched).
    void match(std::size_t input, std::size_t output) noexcept {
        assert(in_to_out_[input] == kUnmatched);
        assert(out_to_in_[output] == kUnmatched);
        in_to_out_[input] = static_cast<std::int32_t>(output);
        out_to_in_[output] = static_cast<std::int32_t>(input);
        matched_outputs_.set(output);
    }
    /// Remove the pair containing `input` if present.
    void unmatch_input(std::size_t input) noexcept;

    /// Output matched to `input`, or kUnmatched.
    [[nodiscard]] std::int32_t output_of(std::size_t input) const noexcept {
        return in_to_out_[input];
    }
    /// Input matched to `output`, or kUnmatched.
    [[nodiscard]] std::int32_t input_of(std::size_t output) const noexcept {
        return out_to_in_[output];
    }
    [[nodiscard]] bool input_matched(std::size_t input) const noexcept {
        return in_to_out_[input] != kUnmatched;
    }
    [[nodiscard]] bool output_matched(std::size_t output) const noexcept {
        return out_to_in_[output] != kUnmatched;
    }

    /// Bit j set iff output j is matched — maintained incrementally so
    /// the crossbar's transfer loop can scan only the matched outputs
    /// (matched_outputs().set_bits()) instead of probing all n.
    [[nodiscard]] const util::BitVec& matched_outputs() const noexcept {
        return matched_outputs_;
    }

    /// Number of matched pairs.
    [[nodiscard]] std::size_t size() const noexcept {
        return matched_outputs_.count();
    }

    /// True when every matched pair is backed by a request in `requests`
    /// and the two direction maps are mutually consistent.
    [[nodiscard]] bool valid_for(const RequestMatrix& requests) const noexcept;

    /// True when no request pair (i, j) exists with both i and j
    /// unmatched — i.e. the matching is maximal w.r.t. `requests`.
    [[nodiscard]] bool maximal_for(const RequestMatrix& requests) const noexcept;

    /// "0->2 1->- ..." rendering for diagnostics.
    [[nodiscard]] std::string to_string() const;

    friend bool operator==(const Matching&, const Matching&) = default;

private:
    std::vector<std::int32_t> in_to_out_;
    std::vector<std::int32_t> out_to_in_;
    util::BitVec matched_outputs_;
};

}  // namespace lcf::sched
