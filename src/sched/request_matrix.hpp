#pragma once
// The n_in × n_out boolean request matrix R: R[i,j] is set when input
// (requester/initiator) i has at least one packet queued for output
// (resource/target) j. This is the sole input every scheduler sees,
// mirroring the paper's model where each initiator sends a request
// vector per scheduling cycle.

#include <cstddef>
#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

/// Boolean request matrix with per-row bit vectors.
///
/// Row r is the request vector of input r (one bit per output), so
/// schedulers can intersect/scan rows word-parallel. Output-centric
/// algorithms (wavefront, central LCF, the distributed grant stage) use
/// col(): a lazily maintained transposed view whose column j is the bit
/// vector of j's requesters, rebuilt at most once per mutation burst so
/// a scheduling cycle pays O(requests) for all its column scans instead
/// of O(n) single-bit tests per column.
class RequestMatrix {
public:
    RequestMatrix() = default;
    /// All-clear matrix with `inputs` rows and `outputs` columns.
    RequestMatrix(std::size_t inputs, std::size_t outputs);
    /// Square all-clear matrix (the common case: n × n switch).
    explicit RequestMatrix(std::size_t ports)
        : RequestMatrix(ports, ports) {}

    [[nodiscard]] std::size_t inputs() const noexcept { return rows_.size(); }
    [[nodiscard]] std::size_t outputs() const noexcept { return outputs_; }

    /// Read request bit [input, output].
    [[nodiscard]] bool get(std::size_t input, std::size_t output) const noexcept {
        return rows_[input].test(output);
    }
    /// Write request bit [input, output].
    void set(std::size_t input, std::size_t output, bool value = true) noexcept {
        rows_[input].set(output, value);
        if (cols_valid_) cols_[output].set(input, value);
    }
    /// Clear every bit.
    void clear() noexcept;
    /// Degraded-mode masking for a square matrix: ports set in `down`
    /// vanish as initiators (their rows are cleared) and as targets (one
    /// and-not of `down` per surviving row), so a scheduler never wastes
    /// a grant on a connection nobody can terminate.
    void mask_down_ports(const util::BitVec& down) noexcept;

    /// Row `input` as a bit vector over outputs.
    [[nodiscard]] const util::BitVec& row(std::size_t input) const noexcept {
        return rows_[input];
    }
    /// Mutable row access (the simulator rebuilds rows in place).
    /// Invalidates the column view — it is rebuilt on the next col() call.
    [[nodiscard]] util::BitVec& row(std::size_t input) noexcept {
        cols_valid_ = false;
        return rows_[input];
    }

    /// Column `output` as a bit vector over inputs, from the transposed
    /// view (rebuilt lazily after mutations). The reference is
    /// invalidated by any mutation. Like all lazy caches this is not
    /// safe against concurrent first reads — every simulated switch owns
    /// its matrix, so sharing a matrix across threads requires an
    /// explicit sync_columns() beforehand.
    [[nodiscard]] const util::BitVec& col(std::size_t output) const noexcept {
        if (!cols_valid_) rebuild_columns();
        return cols_[output];
    }
    /// Force the column view up to date (e.g. before sharing the matrix
    /// read-only across threads).
    void sync_columns() const {
        if (!cols_valid_) rebuild_columns();
    }

    /// Number of requests issued by `input` (NRQ in the paper).
    [[nodiscard]] std::size_t row_count(std::size_t input) const noexcept {
        return rows_[input].count();
    }
    /// Number of requesters of `output` (NGT in the paper).
    [[nodiscard]] std::size_t col_count(std::size_t output) const noexcept;
    /// Total number of set request bits.
    [[nodiscard]] std::size_t total() const noexcept;

    /// Equality over the request bits (the lazily built column cache is
    /// not observable state).
    friend bool operator==(const RequestMatrix& a,
                           const RequestMatrix& b) noexcept {
        return a.outputs_ == b.outputs_ && a.rows_ == b.rows_;
    }

private:
    void rebuild_columns() const;

    std::vector<util::BitVec> rows_;
    std::size_t outputs_ = 0;
    // Transposed view, maintained lazily: rebuilt on first col() access
    // after a mutation through clear()/row(); set() updates it in place.
    mutable std::vector<util::BitVec> cols_;
    mutable bool cols_valid_ = false;
};

/// Build a matrix from an initializer-style vector of (input, output)
/// pairs — convenient in tests for transcribing the paper's figures.
RequestMatrix make_requests(std::size_t ports,
                            const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

}  // namespace lcf::sched
