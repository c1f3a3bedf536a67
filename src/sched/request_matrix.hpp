#pragma once
// The n_in × n_out boolean request matrix R: R[i,j] is set when input
// (requester/initiator) i has at least one packet queued for output
// (resource/target) j. This is the sole input every scheduler sees,
// mirroring the paper's model where each initiator sends a request
// vector per scheduling cycle.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

/// Boolean request matrix held as four views that every mutation keeps
/// exact: the rows, the transposed columns, the per-row counts (NRQ)
/// and the total.
///
/// Row r is the request vector of input r (one bit per output), so
/// schedulers can intersect/scan rows word-parallel. Output-centric
/// algorithms (wavefront, central LCF, the distributed grant stage) use
/// col(): column j is the bit vector of j's requesters. A mutation pays
/// only for the bits it changes — set() of a bit that already holds the
/// value is a no-op — so an owner that mirrors its queues bit by bit as
/// they turn empty or non-empty never rebuilds a view.
class RequestMatrix {
public:
    RequestMatrix() = default;
    /// All-clear matrix with `inputs` rows and `outputs` columns.
    RequestMatrix(std::size_t inputs, std::size_t outputs);
    /// Square all-clear matrix (the common case: n × n switch).
    explicit RequestMatrix(std::size_t ports)
        : RequestMatrix(ports, ports) {}

    [[nodiscard]] std::size_t inputs() const noexcept { return rows_.size(); }
    [[nodiscard]] std::size_t outputs() const noexcept { return cols_.size(); }

    /// Read request bit [input, output].
    [[nodiscard]] bool get(std::size_t input, std::size_t output) const noexcept {
        return rows_[input].test(output);
    }
    /// Write request bit [input, output]; no-op when it already holds
    /// `value`.
    void set(std::size_t input, std::size_t output, bool value = true) noexcept {
        if (rows_[input].test(output) == value) return;
        rows_[input].set(output, value);
        cols_[output].set(input, value);
        if (value) {
            ++row_counts_[input];
            ++total_;
        } else {
            --row_counts_[input];
            --total_;
        }
    }
    /// Make row `input` equal to `bits` (same size as a row), touching
    /// only the bits that differ.
    void assign_row(std::size_t input, const util::BitVec& bits) noexcept;
    /// Clear every bit.
    void clear() noexcept;
    /// Degraded-mode masking for a square matrix: ports set in `down`
    /// vanish as initiators (their rows are cleared) and as targets
    /// (their columns are cleared), so a scheduler never wastes a grant
    /// on a connection nobody can terminate.
    void mask_down_ports(const util::BitVec& down) noexcept;

    /// Row `input` as a bit vector over outputs.
    [[nodiscard]] const util::BitVec& row(std::size_t input) const noexcept {
        return rows_[input];
    }
    /// Column `output` as a bit vector over inputs.
    [[nodiscard]] const util::BitVec& col(std::size_t output) const noexcept {
        return cols_[output];
    }

    /// Number of requests issued by `input` (NRQ in the paper); O(1).
    [[nodiscard]] std::size_t row_count(std::size_t input) const noexcept {
        return row_counts_[input];
    }
    /// Number of requesters of `output` (NGT in the paper).
    [[nodiscard]] std::size_t col_count(std::size_t output) const noexcept {
        return cols_[output].count();
    }
    /// Total number of set request bits; O(1).
    [[nodiscard]] std::size_t total() const noexcept { return total_; }

    /// Equality of every view: matrices with the same bits are equal
    /// unless one's columns or counts have drifted from its rows.
    friend bool operator==(const RequestMatrix& a,
                           const RequestMatrix& b) noexcept = default;

private:
    /// set() each bit `mask` selects in word `wi` of row `input`.
    void set_masked(std::size_t input, std::size_t wi, std::uint64_t mask,
                    bool value) noexcept;

    std::vector<util::BitVec> rows_;
    std::vector<util::BitVec> cols_;
    std::vector<std::size_t> row_counts_;
    std::size_t total_ = 0;
};

/// Build a matrix from an initializer-style vector of (input, output)
/// pairs — convenient in tests for transcribing the paper's figures.
RequestMatrix make_requests(std::size_t ports,
                            const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

}  // namespace lcf::sched
