#pragma once
// Serial link with independent random bit errors. Clint's protocol
// detects corruption through per-packet CRCs and reports it via the
// linkErr/CRCErr grant-packet flags; this model provides the faults.

#include <cassert>
#include <cstdint>
#include <span>

#include "util/bitflip.hpp"
#include "util/rng.hpp"

namespace lcf::clint {

/// A unidirectional link that flips each transmitted bit independently
/// with probability `bit_error_rate`.
class ErrorLink {
public:
    ErrorLink(double bit_error_rate, std::uint64_t seed);

    /// Transmit a packet: flips its corrupted bits in place and
    /// increments the error statistics when there are any.
    void transmit(std::span<std::uint8_t> wire) {
        util::BitFlipper flips(ber_, wire.size());
        if (!clean(flips)) corrupt(wire, flips);
    }
    /// First half of transmit(): the first draw of a packet of
    /// flips.bytes() bytes, `flips` being this link's rate over that size
    /// with its threshold computed once by the caller. True when no bit
    /// flips, so the packet need not be encoded; otherwise corrupt() must
    /// follow with the packet and the same `flips`.
    [[nodiscard]] bool clean(util::BitFlipper& flips) {
        assert(flips.rate() == ber_);
        return flips.clean(rng_);
    }
    /// Second half: flip the bits the first draw did not clear.
    void corrupt(std::span<std::uint8_t> wire, const util::BitFlipper& flips);

    /// Packets that suffered at least one bit flip so far.
    [[nodiscard]] std::uint64_t corrupted_packets() const noexcept {
        return corrupted_;
    }
    /// Total bit flips injected so far.
    [[nodiscard]] std::uint64_t flipped_bits() const noexcept {
        return flipped_bits_;
    }
    [[nodiscard]] double bit_error_rate() const noexcept { return ber_; }

private:
    double ber_;
    util::Xoshiro256 rng_;
    std::uint64_t corrupted_ = 0;
    std::uint64_t flipped_bits_ = 0;
};

}  // namespace lcf::clint
