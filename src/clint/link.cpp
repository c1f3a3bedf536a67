#include "clint/link.hpp"

#include <stdexcept>

#include "util/bitflip.hpp"

namespace lcf::clint {

ErrorLink::ErrorLink(double bit_error_rate, std::uint64_t seed)
    : ber_(bit_error_rate), rng_(seed) {
    if (bit_error_rate < 0.0 || bit_error_rate > 1.0) {
        throw std::invalid_argument("bit_error_rate must be in [0, 1]");
    }
}

void ErrorLink::transmit(std::span<std::uint8_t> wire) {
    if (ber_ <= 0.0) return;
    // Geometric skip sampling (util::flip_bits): O(flips) RNG work per
    // packet instead of the previous 8 Bernoulli draws per byte, with
    // identical independent-flip semantics.
    const std::uint64_t flips = util::flip_bits(wire, ber_, rng_);
    if (flips > 0) {
        flipped_bits_ += flips;
        ++corrupted_;
    }
}

}  // namespace lcf::clint
