#include "sched/request_matrix.hpp"

namespace lcf::sched {

RequestMatrix::RequestMatrix(std::size_t inputs, std::size_t outputs)
    : rows_(inputs, util::BitVec(outputs)), outputs_(outputs) {}

void RequestMatrix::clear() noexcept {
    for (auto& r : rows_) r.clear();
    if (cols_valid_) {
        for (auto& c : cols_) c.clear();
    }
}

void RequestMatrix::mask_down_ports(const util::BitVec& down) noexcept {
    if (down.none()) return;
    cols_valid_ = false;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (down.test(i)) {
            rows_[i].clear();
        } else {
            rows_[i].subtract(down);
        }
    }
}

void RequestMatrix::rebuild_columns() const {
    const std::size_t n_in = rows_.size();
    if (cols_.size() != outputs_ ||
        (outputs_ > 0 && cols_[0].size() != n_in)) {
        cols_.assign(outputs_, util::BitVec(n_in));
    } else {
        for (auto& c : cols_) c.clear();
    }
    for (std::size_t i = 0; i < n_in; ++i) {
        for (const std::size_t j : rows_[i].set_bits()) {
            cols_[j].set(i);
        }
    }
    cols_valid_ = true;
}

std::size_t RequestMatrix::col_count(std::size_t output) const noexcept {
    return col(output).count();
}

std::size_t RequestMatrix::total() const noexcept {
    std::size_t n = 0;
    for (const auto& r : rows_) n += r.count();
    return n;
}

RequestMatrix make_requests(
    std::size_t ports,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
    RequestMatrix m(ports);
    for (const auto& [i, j] : pairs) m.set(i, j);
    return m;
}

}  // namespace lcf::sched
