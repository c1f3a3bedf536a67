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
    void clear() noexcept;
    /// Set all bits in [0, size()).
    void fill() noexcept;

    /// Number of set bits.
    [[nodiscard]] std::size_t count() const noexcept;
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
    [[nodiscard]] std::size_t find_first() const noexcept;
    /// Index of the lowest set bit strictly greater than `pos`, or npos.
    /// Safe for any `pos` (including npos): out-of-range positions have
    /// no successor.
    [[nodiscard]] std::size_t find_next(std::size_t pos) const noexcept;
    /// Index of the first set bit at or after `pos`, wrapping around to
    /// [0, pos) when the tail holds none — the rotating-priority scan
    /// every round-robin tie-break in the schedulers needs, without any
    /// per-element `(k + offset) % n` arithmetic. Returns npos when the
    /// vector is empty or no bit is set. Precondition: pos < size() (an
    /// out-of-range pos is treated as 0 in release builds).
    [[nodiscard]] std::size_t find_first_from(std::size_t pos) const noexcept;

    /// Popcount of (*this & other) without materializing the
    /// intersection; both operands must have equal size.
    [[nodiscard]] std::size_t and_count(const BitVec& other) const noexcept;

    /// In-place set intersection; both operands must have equal size.
    BitVec& operator&=(const BitVec& other) noexcept;
    /// In-place set union; both operands must have equal size.
    BitVec& operator|=(const BitVec& other) noexcept;
    /// In-place set subtraction (this &= ~other); equal sizes required.
    BitVec& subtract(const BitVec& other) noexcept;

    /// Masked assign without a temporary: *this = src & mask. All three
    /// vectors must have equal size (this may alias src or mask).
    void assign_and(const BitVec& src, const BitVec& mask) noexcept;
    /// Masked assign without a temporary: *this = src & ~mask.
    void assign_subtract(const BitVec& src, const BitVec& mask) noexcept;

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
    void set_word(std::size_t wi, std::uint64_t bits) noexcept;

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
    void trim() noexcept;  // re-establish the bits-beyond-size()-are-zero invariant

    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace lcf::util
