#pragma once
// Independent random bit flips over a byte buffer, sampled with geometric
// skips: instead of one Bernoulli draw per bit (8 draws per byte), draw
// the gap to the next flipped bit directly from the geometric
// distribution Geom(p). The cost is O(flips), not O(bits) — at the low
// bit-error rates the Clint links model (1e-6 .. 1e-3), that is a
// thousand-fold reduction in RNG work per packet. Shared by
// clint::ErrorLink and fault::FaultInjector so both fault paths flip
// bits with identical (exact, unquantised) per-bit semantics.
//
// Most buffers flip nothing: the first gap floor(ln(1-U) / ln(1-p))
// passes the end of a b-bit buffer exactly when the first draw U is at
// least T = 1-(1-p)^b. BitFlipper computes T once per (rate, size) and
// settles U above T(1 + 1e-9) with one compare instead of two log1p
// calls; the relative guard band of 1e-9 dwarfs the ~1e-16 rounding of T
// and of the formula. A U inside or below the band runs the formula on
// that same U, so every flip and every draw stays the formula's.

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/rng.hpp"

namespace lcf::util {

/// Flips at rate `p` over buffers of one size, in two steps: clean()
/// makes the first draw and settles the no-flip case without the buffer,
/// flip() does the rest. p <= 0 or an empty buffer flips nothing, p >= 1
/// flips every bit; neither draws.
class BitFlipper {
public:
    /// Relative width of the guard band above T.
    static constexpr double kGuardBand = 1e-9;

    /// Flips nothing and draws nothing.
    BitFlipper() = default;
    /// Rate `p` over buffers of `bytes` bytes; computes T once.
    BitFlipper(double p, std::size_t bytes) noexcept;

    [[nodiscard]] double rate() const noexcept { return p_; }
    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

    /// Step 1: the first draw, if any. True when no bit flips; otherwise
    /// flip() must follow with the same `rng`.
    [[nodiscard]] bool clean(Xoshiro256& rng) noexcept {
        if (p_ <= 0.0 || bytes_ == 0) return true;
        if (p_ >= 1.0) return false;
        return clean(rng.next_double());
    }
    /// Step 1 with the first draw `u` given: true above T's guard band.
    [[nodiscard]] bool clean(double u) noexcept {
        u_ = u;
        return u > clean_above_;
    }
    /// Step 2: flip the bits the first draw and later gaps select in
    /// `bytes` (bytes() of them); returns the flip count.
    std::uint64_t flip(std::span<std::uint8_t> bytes,
                       Xoshiro256& rng) const noexcept;

    /// Both steps over one buffer.
    std::uint64_t operator()(std::span<std::uint8_t> bytes,
                             Xoshiro256& rng) noexcept {
        return clean(rng) ? 0 : flip(bytes, rng);
    }

private:
    double p_ = 0.0;
    std::size_t bytes_ = 0;
    double clean_above_ = 1.0;  // T * (1 + kGuardBand); 1 before it is known
    double u_ = 0.0;            // the first draw clean() made
};

/// Flip each bit of `bytes` independently with probability `p`, drawing
/// from `rng`. Returns the number of bits flipped. Bit k of the buffer
/// is bit (k % 8) of byte (k / 8), matching a bit-serial wire. p <= 0
/// flips nothing; p >= 1 flips every bit. Computes T per call; callers
/// flipping many buffers of one size keep a BitFlipper.
std::uint64_t flip_bits(std::span<std::uint8_t> bytes, double p,
                        Xoshiro256& rng) noexcept;

}  // namespace lcf::util
