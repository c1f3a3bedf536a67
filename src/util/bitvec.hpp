#pragma once
// Dynamic fixed-capacity bit vector used for request-matrix rows and
// port masks. Sized at construction; word-parallel set operations and
// fast first-set/next-set scans are the operations the schedulers need.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Precondition checking for the hot bit accessors. Defaults to on in
// debug builds (plain assert) and off in release; define
// LCF_BITVEC_CHECKS to 0/1 to force either way, e.g. when hunting an
// out-of-range index in an optimized build.
#ifndef LCF_BITVEC_CHECKS
#ifndef NDEBUG
#define LCF_BITVEC_CHECKS 1
#else
#define LCF_BITVEC_CHECKS 0
#endif
#endif

#if LCF_BITVEC_CHECKS
#define LCF_BITVEC_ASSERT(cond) assert(cond)
#else
#define LCF_BITVEC_ASSERT(cond) ((void)0)
#endif

namespace lcf::util {

/// A fixed-size vector of bits with word-parallel bulk operations.
///
/// Unlike std::vector<bool> it exposes find_first()/find_next() scans and
/// set-algebra operators, and unlike std::bitset its size is a runtime
/// value (switch radix n is a configuration parameter everywhere in this
/// library). Bits beyond size() are kept zero as a class invariant.
class BitVec {
public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    /// Bits per storage word, for callers that fill vectors word-at-a-time.
    static constexpr std::size_t kWordBits = 64;

    BitVec() = default;
    /// Construct with `size` bits, all cleared.
    explicit BitVec(std::size_t size);

    /// Number of addressable bits.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// True when size() == 0.
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /// Read bit `i` (precondition: i < size()).
    [[nodiscard]] bool test(std::size_t i) const noexcept {
        LCF_BITVEC_ASSERT(i < size_);
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1U;
    }
    /// Set bit `i` to `value` (precondition: i < size()).
    void set(std::size_t i, bool value = true) noexcept {
        LCF_BITVEC_ASSERT(i < size_);
        const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
        if (value) {
            words_[i / kWordBits] |= mask;
        } else {
            words_[i / kWordBits] &= ~mask;
        }
    }
    /// Clear bit `i` (precondition: i < size()).
    void reset(std::size_t i) noexcept { set(i, false); }
    /// Clear all bits.
    void clear() noexcept {
        for (auto& w : words_) w = 0;
    }
    /// Set all bits in [0, size()).
    void fill() noexcept {
        for (auto& w : words_) w = ~std::uint64_t{0};
        trim();
    }

    /// Number of set bits.
    [[nodiscard]] std::size_t count() const noexcept {
        return and_count(*this);  // w & w = w
    }
    /// True when no bit is set.
    [[nodiscard]] bool none() const noexcept {
        for (const auto w : words_) {
            if (w != 0) return false;
        }
        return true;
    }
    /// True when at least one bit is set.
    [[nodiscard]] bool any() const noexcept { return !none(); }

    /// Index of the lowest set bit, or npos when none() holds.
    [[nodiscard]] std::size_t find_first() const noexcept {
        return first_set_from(0, ~std::uint64_t{0});
    }
    /// Index of the lowest set bit strictly greater than `pos`, or npos.
    /// Safe for any `pos` (including npos): out-of-range positions have
    /// no successor.
    [[nodiscard]] std::size_t find_next(std::size_t pos) const noexcept {
        // Guard before the +1: pos >= size() (including pos == npos) has
        // no successor, and npos + 1 would otherwise wrap to 0 and rescan.
        if (pos >= size_ || pos + 1 >= size_) return npos;
        return first_set_from((pos + 1) / kWordBits,
                              ~std::uint64_t{0} << ((pos + 1) % kWordBits));
    }
    /// Index of the first set bit at or after `pos`, wrapping around to
    /// [0, pos) when the tail holds none — the rotating-priority scan
    /// every round-robin tie-break in the schedulers needs, without any
    /// per-element `(k + offset) % n` arithmetic. Returns npos when the
    /// vector is empty or no bit is set. Precondition: pos < size() (an
    /// out-of-range pos is treated as 0 in release builds).
    [[nodiscard]] std::size_t find_first_from(std::size_t pos) const noexcept {
        return find_first_and_from(*this, pos);  // w & w = w
    }
    /// find_first_from(pos) of (*this & mask) without materializing the
    /// intersection; both operands must have equal size.
    [[nodiscard]] std::size_t find_first_and_from(
        const BitVec& mask, std::size_t pos) const noexcept {
        LCF_BITVEC_ASSERT(size_ == mask.size_);
        if (size_ == 0) return npos;
        LCF_BITVEC_ASSERT(pos < size_);
        if (pos >= size_) pos = 0;
        const std::size_t wi = pos / kWordBits;
        const std::uint64_t below = (std::uint64_t{1} << (pos % kWordBits)) - 1;
        // [pos, size()), the other words from wi + 1 round, then [0, pos).
        const std::uint64_t first = words_[wi] & mask.words_[wi];
        if ((first & ~below) != 0) return lowest(wi, first & ~below);
        const std::size_t last = words_.size() - 1;
        for (std::size_t k = wi == last ? 0 : wi + 1; k != wi;
             k = k == last ? 0 : k + 1) {
            const std::uint64_t w = words_[k] & mask.words_[k];
            if (w != 0) return lowest(k, w);
        }
        return (first & below) != 0 ? lowest(wi, first & below) : npos;
    }

    /// Popcount of (*this & other) without materializing the
    /// intersection; both operands must have equal size.
    [[nodiscard]] std::size_t and_count(const BitVec& other) const noexcept {
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

    /// In-place set intersection; both operands must have equal size.
    BitVec& operator&=(const BitVec& other) noexcept {
        assign_and(*this, other);
        return *this;
    }
    /// In-place set union; both operands must have equal size.
    BitVec& operator|=(const BitVec& other) noexcept {
        LCF_BITVEC_ASSERT(size_ == other.size_);
        for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
        return *this;
    }
    /// In-place set subtraction (this &= ~other); equal sizes required.
    BitVec& subtract(const BitVec& other) noexcept {
        assign_subtract(*this, other);
        return *this;
    }

    /// Masked assign without a temporary: *this = src & mask. All three
    /// vectors must have equal size (this may alias src or mask).
    void assign_and(const BitVec& src, const BitVec& mask) noexcept {
        LCF_BITVEC_ASSERT(size_ == src.size_ && size_ == mask.size_);
        for (std::size_t i = 0; i < words_.size(); ++i) {
            words_[i] = src.words_[i] & mask.words_[i];
        }
    }
    /// Masked assign without a temporary: *this = src & ~mask.
    void assign_subtract(const BitVec& src, const BitVec& mask) noexcept {
        LCF_BITVEC_ASSERT(size_ == src.size_ && size_ == mask.size_);
        for (std::size_t i = 0; i < words_.size(); ++i) {
            words_[i] = src.words_[i] & ~mask.words_[i];
        }
    }

    /// Number of 64-bit storage words.
    [[nodiscard]] std::size_t word_count() const noexcept {
        return (size_ + kWordBits - 1) / kWordBits;
    }
    /// Raw storage word `wi` (precondition: wi < word_count()).
    [[nodiscard]] std::uint64_t word(std::size_t wi) const noexcept {
        LCF_BITVEC_ASSERT(wi < words_.size());
        return words_[wi];
    }
    /// Overwrite storage word `wi`; bits beyond size() are masked off so
    /// the class invariant holds. Lets generators fill 64 bits per call.
    void set_word(std::size_t wi, std::uint64_t bits) noexcept {
        LCF_BITVEC_ASSERT(wi < words_.size());
        words_[wi] = bits;
        if (wi + 1 == words_.size()) trim();
    }

    /// Word-level set-bit iterator: visits the indices of set bits in
    /// ascending order, consuming one word at a time with countr_zero
    /// instead of testing individual bits.
    class SetBitIterator {
    public:
        using value_type = std::size_t;

        SetBitIterator() = default;
        SetBitIterator(const std::uint64_t* words, std::size_t word_count,
                       std::size_t wi) noexcept
            : words_(words), word_count_(word_count), wi_(wi) {
            if (wi_ < word_count_) {
                current_ = words_[wi_];
                skip_zero_words();
            }
        }

        [[nodiscard]] std::size_t operator*() const noexcept {
            LCF_BITVEC_ASSERT(current_ != 0);
            return wi_ * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(current_));
        }
        SetBitIterator& operator++() noexcept {
            current_ &= current_ - 1;  // clear the lowest set bit
            skip_zero_words();
            return *this;
        }
        friend bool operator==(const SetBitIterator& a,
                               const SetBitIterator& b) noexcept {
            return a.wi_ == b.wi_ && a.current_ == b.current_;
        }

    private:
        void skip_zero_words() noexcept {
            while (current_ == 0 && ++wi_ < word_count_) {
                current_ = words_[wi_];
            }
            if (wi_ >= word_count_) {
                wi_ = word_count_;
                current_ = 0;
            }
        }

        const std::uint64_t* words_ = nullptr;
        std::size_t word_count_ = 0;
        std::size_t wi_ = 0;
        std::uint64_t current_ = 0;  // words_[wi_] with consumed bits cleared
    };

    /// Range over the indices of set bits: `for (std::size_t j : v.set_bits())`.
    /// Clearing already-visited bits (including the one just yielded) is
    /// allowed mid-iteration — the iterator works on a cached copy of the
    /// current word — and the scheduler sweeps rely on it. Setting bits,
    /// or clearing bits the iterator has not reached yet, is unspecified.
    class SetBitRange {
    public:
        explicit SetBitRange(const BitVec& v) noexcept : v_(&v) {}
        [[nodiscard]] SetBitIterator begin() const noexcept {
            return {v_->words_.data(), v_->words_.size(), 0};
        }
        [[nodiscard]] SetBitIterator end() const noexcept {
            return {v_->words_.data(), v_->words_.size(), v_->words_.size()};
        }

    private:
        const BitVec* v_;
    };
    [[nodiscard]] SetBitRange set_bits() const noexcept {
        return SetBitRange(*this);
    }

    friend bool operator==(const BitVec& a, const BitVec& b) noexcept = default;

    /// "0101..." rendering, bit 0 first; for diagnostics and tests.
    [[nodiscard]] std::string to_string() const;

private:
    // Re-establish the bits-beyond-size()-are-zero invariant.
    void trim() noexcept {
        const std::size_t tail = size_ % kWordBits;
        if (tail != 0 && !words_.empty()) {
            words_.back() &= (std::uint64_t{1} << tail) - 1;
        }
    }
    static std::size_t lowest(std::size_t wi, std::uint64_t w) noexcept {
        return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
    }
    // Lowest set bit of word wi masked by `mask`, or of a later word.
    [[nodiscard]] std::size_t first_set_from(std::size_t wi,
                                             std::uint64_t mask) const noexcept {
        for (; wi < words_.size(); ++wi, mask = ~std::uint64_t{0}) {
            const std::uint64_t w = words_[wi] & mask;
            if (w != 0) return lowest(wi, w);
        }
        return npos;
    }

    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace lcf::util
