#include "sched/matching.hpp"

#include "sched/request_matrix.hpp"

namespace lcf::sched {

Matching::Matching(std::size_t inputs, std::size_t outputs)
    : in_to_out_(inputs, kUnmatched),
      out_to_in_(outputs, kUnmatched),
      matched_outputs_(outputs) {}

void Matching::reset(std::size_t inputs, std::size_t outputs) {
    in_to_out_.assign(inputs, kUnmatched);
    out_to_in_.assign(outputs, kUnmatched);
    if (matched_outputs_.size() == outputs) {
        matched_outputs_.clear();
    } else {
        matched_outputs_ = util::BitVec(outputs);
    }
}

void Matching::unmatch_input(std::size_t input) noexcept {
    const std::int32_t out = in_to_out_[input];
    if (out != kUnmatched) {
        out_to_in_[static_cast<std::size_t>(out)] = kUnmatched;
        in_to_out_[input] = kUnmatched;
        matched_outputs_.reset(static_cast<std::size_t>(out));
    }
}

bool Matching::valid_for(const RequestMatrix& requests) const noexcept {
    if (in_to_out_.size() != requests.inputs() ||
        out_to_in_.size() != requests.outputs()) {
        return false;
    }
    for (std::size_t i = 0; i < in_to_out_.size(); ++i) {
        const std::int32_t j = in_to_out_[i];
        if (j == kUnmatched) continue;
        const auto ju = static_cast<std::size_t>(j);
        if (ju >= out_to_in_.size()) return false;
        if (out_to_in_[ju] != static_cast<std::int32_t>(i)) return false;
        if (!requests.get(i, ju)) return false;
    }
    for (std::size_t j = 0; j < out_to_in_.size(); ++j) {
        const std::int32_t i = out_to_in_[j];
        if (i == kUnmatched) continue;
        const auto iu = static_cast<std::size_t>(i);
        if (iu >= in_to_out_.size()) return false;
        if (in_to_out_[iu] != static_cast<std::int32_t>(j)) return false;
    }
    return true;
}

bool Matching::maximal_for(const RequestMatrix& requests) const noexcept {
    for (std::size_t i = 0; i < in_to_out_.size(); ++i) {
        if (in_to_out_[i] != kUnmatched) continue;
        const auto& row = requests.row(i);
        for (std::size_t j = row.find_first(); j != util::BitVec::npos;
             j = row.find_next(j)) {
            if (out_to_in_[j] == kUnmatched) return false;
        }
    }
    return true;
}

std::string Matching::to_string() const {
    std::string s;
    for (std::size_t i = 0; i < in_to_out_.size(); ++i) {
        if (i != 0) s += ' ';
        s += std::to_string(i);
        s += "->";
        if (in_to_out_[i] == kUnmatched) {
            s += '-';
        } else {
            s += std::to_string(in_to_out_[i]);
        }
    }
    return s;
}

}  // namespace lcf::sched
