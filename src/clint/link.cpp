#include "clint/link.hpp"

#include <stdexcept>

namespace lcf::clint {

ErrorLink::ErrorLink(double bit_error_rate, std::uint64_t seed)
    : ber_(bit_error_rate), rng_(seed) {
    if (!(bit_error_rate >= 0.0 && bit_error_rate <= 1.0)) {
        throw std::invalid_argument("bit_error_rate must be in [0, 1]");
    }
}

void ErrorLink::corrupt(std::span<std::uint8_t> wire,
                        const util::BitFlipper& flips) {
    // Geometric skip sampling (util::BitFlipper): O(flips) RNG work per
    // packet instead of 8 Bernoulli draws per byte.
    const std::uint64_t flipped = flips.flip(wire, rng_);
    if (flipped > 0) {
        flipped_bits_ += flipped;
        ++corrupted_;
    }
}

}  // namespace lcf::clint
