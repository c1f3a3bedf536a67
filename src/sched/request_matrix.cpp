#include "sched/request_matrix.hpp"

#include <bit>

namespace lcf::sched {

RequestMatrix::RequestMatrix(std::size_t inputs, std::size_t outputs)
    : rows_(inputs, util::BitVec(outputs)),
      cols_(outputs, util::BitVec(inputs)),
      row_counts_(inputs, 0) {}

void RequestMatrix::set_masked(std::size_t input, std::size_t wi,
                               std::uint64_t mask, bool value) noexcept {
    for (; mask != 0; mask &= mask - 1) {
        set(input,
            wi * util::BitVec::kWordBits +
                static_cast<std::size_t>(std::countr_zero(mask)),
            value);
    }
}

void RequestMatrix::assign_row(std::size_t input,
                               const util::BitVec& bits) noexcept {
    const util::BitVec& row = rows_[input];
    for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
        const std::uint64_t old_word = row.word(wi);
        const std::uint64_t new_word = bits.word(wi);
        set_masked(input, wi, old_word & ~new_word, false);
        set_masked(input, wi, new_word & ~old_word, true);
    }
}

void RequestMatrix::clear() noexcept {
    for (auto& r : rows_) r.clear();
    for (auto& c : cols_) c.clear();
    for (auto& n : row_counts_) n = 0;
    total_ = 0;
}

void RequestMatrix::mask_down_ports(const util::BitVec& down) noexcept {
    if (down.none()) return;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const bool row_down = down.test(i);
        for (std::size_t wi = 0; wi < rows_[i].word_count(); ++wi) {
            const std::uint64_t gone =
                row_down ? rows_[i].word(wi) : rows_[i].word(wi) & down.word(wi);
            set_masked(i, wi, gone, false);
        }
    }
}

RequestMatrix make_requests(
    std::size_t ports,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
    RequestMatrix m(ports);
    for (const auto& [i, j] : pairs) m.set(i, j);
    return m;
}

}  // namespace lcf::sched
