#include "util/bitvec.hpp"

namespace lcf::util {

BitVec::BitVec(std::size_t size) : size_(size), words_(word_count(), 0) {}

std::string BitVec::to_string() const {
    std::string s;
    s.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) s.push_back(test(i) ? '1' : '0');
    return s;
}

}  // namespace lcf::util
