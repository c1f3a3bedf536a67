#pragma once
// Precalculated schedules (§4.3): hosts may pre-schedule connections —
// including multicast fan-outs — ahead of the regular LCF pass. The
// scheduler does not trust the hosts: it verifies the schedule's
// integrity (at most one input per target) and drops conflicting claims.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::core {

/// A precalculated schedule: for each input, the set of outputs it claims
/// this slot. A row with more than one bit is a multicast connection.
/// Held as a claim matrix, so each target's claimants are a column.
class PrecalcSchedule {
public:
    PrecalcSchedule() = default;
    /// Empty schedule over `inputs` × `outputs` ports.
    PrecalcSchedule(std::size_t inputs, std::size_t outputs)
        : claims_(inputs, outputs) {}
    explicit PrecalcSchedule(std::size_t ports)
        : PrecalcSchedule(ports, ports) {}

    [[nodiscard]] std::size_t inputs() const noexcept { return claims_.inputs(); }
    [[nodiscard]] std::size_t outputs() const noexcept { return claims_.outputs(); }

    /// Claim output `output` for input `input`.
    void claim(std::size_t input, std::size_t output) noexcept {
        claims_.set(input, output);
    }
    /// Make input `input`'s claims equal to `outputs` (a row-sized set).
    void assign_row(std::size_t input, const util::BitVec& outputs) noexcept {
        claims_.assign_row(input, outputs);
    }
    [[nodiscard]] bool claimed(std::size_t input, std::size_t output) const noexcept {
        return claims_.get(input, output);
    }
    [[nodiscard]] const util::BitVec& row(std::size_t input) const noexcept {
        return claims_.row(input);
    }
    /// The inputs claiming output `output`.
    [[nodiscard]] const util::BitVec& col(std::size_t output) const noexcept {
        return claims_.col(output);
    }
    /// True when no input claims any output.
    [[nodiscard]] bool empty() const noexcept { return claims_.total() == 0; }
    /// Withdraw every claim.
    void clear() noexcept { claims_.clear(); }

private:
    sched::RequestMatrix claims_;
};

/// Result of a two-stage (precalculated + LCF) scheduling cycle.
///
/// `fanout[j]` is the input that drives output j this slot (kUnmatched if
/// idle) — an input may drive several outputs when a multicast connection
/// was admitted. `unicast` holds the strictly one-to-one part (the LCF
/// stage plus unicast precalc rows), `dropped` the precalc claims rejected
/// by the integrity check.
struct MulticastResult {
    std::vector<std::int32_t> fanout;
    sched::Matching unicast;
    std::vector<std::pair<std::size_t, std::size_t>> dropped;

    /// Number of driven outputs.
    [[nodiscard]] std::size_t connections() const noexcept;
    /// True when no two outputs claim conflicting state and unicast is
    /// consistent with fanout.
    [[nodiscard]] bool consistent() const noexcept;
};

}  // namespace lcf::core
