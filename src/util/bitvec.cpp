#include "util/bitvec.hpp"

#include <bit>

namespace lcf::util {

BitVec::BitVec(std::size_t size) : size_(size), words_(word_count(), 0) {}

void BitVec::clear() noexcept {
    for (auto& w : words_) w = 0;
}

void BitVec::fill() noexcept {
    for (auto& w : words_) w = ~std::uint64_t{0};
    trim();
}

void BitVec::trim() noexcept {
    const std::size_t tail = size_ % kWordBits;
    if (tail != 0 && !words_.empty()) {
        words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
}

void BitVec::set_word(std::size_t wi, std::uint64_t bits) noexcept {
    LCF_BITVEC_ASSERT(wi < words_.size());
    words_[wi] = bits;
    if (wi + 1 == words_.size()) trim();
}

std::size_t BitVec::count() const noexcept { return and_count(*this); }  // w & w = w

std::size_t BitVec::find_first() const noexcept {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
        if (words_[wi] != 0) {
            return wi * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(words_[wi]));
        }
    }
    return npos;
}

std::size_t BitVec::find_next(std::size_t pos) const noexcept {
    // Guard before the +1: pos >= size() (including pos == npos) has no
    // successor, and npos + 1 would otherwise wrap to 0 and rescan.
    if (pos >= size_ || pos + 1 >= size_) return npos;
    std::size_t wi = (pos + 1) / kWordBits;
    const std::size_t bi = (pos + 1) % kWordBits;
    std::uint64_t w = words_[wi] & (~std::uint64_t{0} << bi);
    while (true) {
        if (w != 0) {
            return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
        }
        if (++wi >= words_.size()) return npos;
        w = words_[wi];
    }
}

std::size_t BitVec::find_first_from(std::size_t pos) const noexcept {
    if (size_ == 0) return npos;
    LCF_BITVEC_ASSERT(pos < size_);
    if (pos >= size_) pos = 0;
    // Tail segment [pos, size()): like find_next(pos - 1) but inclusive.
    std::size_t wi = pos / kWordBits;
    const std::size_t bi = pos % kWordBits;
    std::uint64_t w = words_[wi] & (~std::uint64_t{0} << bi);
    while (true) {
        if (w != 0) {
            return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
        }
        if (++wi >= words_.size()) break;
        w = words_[wi];
    }
    // Wrapped segment [0, pos).
    for (wi = 0; wi <= pos / kWordBits; ++wi) {
        w = words_[wi];
        if (wi == pos / kWordBits) w &= (std::uint64_t{1} << bi) - 1;
        if (w != 0) {
            return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
        }
    }
    return npos;
}

std::size_t BitVec::and_count(const BitVec& other) const noexcept {
    LCF_BITVEC_ASSERT(size_ == other.size_);
    // Branch-free SWAR popcount: for the baseline x86-64 target (no
    // -mpopcnt) g++ lowers std::popcount to a libgcc call per word.
    std::size_t total = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        std::uint64_t w = words_[i] & other.words_[i];
        w -= (w >> 1) & 0x5555555555555555ULL;
        w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
        w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
        total += static_cast<std::size_t>((w * 0x0101010101010101ULL) >> 56);
    }
    return total;
}

BitVec& BitVec::operator&=(const BitVec& other) noexcept {
    LCF_BITVEC_ASSERT(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) noexcept {
    LCF_BITVEC_ASSERT(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
}

BitVec& BitVec::subtract(const BitVec& other) noexcept {
    LCF_BITVEC_ASSERT(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
}

void BitVec::assign_and(const BitVec& src, const BitVec& mask) noexcept {
    LCF_BITVEC_ASSERT(size_ == src.size_ && size_ == mask.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] = src.words_[i] & mask.words_[i];
    }
}

void BitVec::assign_subtract(const BitVec& src, const BitVec& mask) noexcept {
    LCF_BITVEC_ASSERT(size_ == src.size_ && size_ == mask.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] = src.words_[i] & ~mask.words_[i];
    }
}

std::string BitVec::to_string() const {
    std::string s;
    s.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) s.push_back(test(i) ? '1' : '0');
    return s;
}

}  // namespace lcf::util
