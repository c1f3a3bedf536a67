#include "util/bitflip.hpp"

#include <cassert>
#include <cmath>

namespace lcf::util {

BitFlipper::BitFlipper(double p, std::size_t bytes) noexcept
    : p_(p), bytes_(bytes) {
    if (p <= 0.0 || p >= 1.0 || bytes == 0) return;  // clean() draws nothing
    // T = 1-(1-p)^bits, in a form that keeps its precision when T is tiny.
    const double t =
        -std::expm1(static_cast<double>(bytes) * 8.0 * std::log1p(-p));
    clean_above_ = t * (1.0 + kGuardBand);
}

std::uint64_t BitFlipper::flip(std::span<std::uint8_t> bytes,
                               Xoshiro256& rng) const noexcept {
    assert(bytes.size() == bytes_);
    const std::uint64_t total_bits =
        static_cast<std::uint64_t>(bytes.size()) * 8;
    if (p_ >= 1.0) {
        for (auto& byte : bytes) byte = static_cast<std::uint8_t>(~byte);
        return total_bits;
    }
    // Geometric skip sampling: the gap G >= 0 to the next flipped bit
    // satisfies P(G = k) = (1-p)^k p, i.e. G = floor(ln(1-U) / ln(1-p))
    // for U uniform in [0, 1). Each draw advances past exactly one flip;
    // the first is the one clean() made.
    const double denom = std::log1p(-p_);  // ln(1-p) < 0
    std::uint64_t flips = 0;
    std::uint64_t bit = 0;
    for (double u = u_;; u = rng.next_double()) {
        const double gap = std::floor(std::log1p(-u) / denom);
        // A huge gap (or the +inf from U == 0 being impossible but the
        // division underflowing) means no further flip in this buffer.
        if (gap >= static_cast<double>(total_bits - bit)) break;
        bit += static_cast<std::uint64_t>(gap);
        bytes[bit >> 3] =
            static_cast<std::uint8_t>(bytes[bit >> 3] ^ (1U << (bit & 7)));
        ++flips;
        if (++bit >= total_bits) break;
    }
    return flips;
}

std::uint64_t flip_bits(std::span<std::uint8_t> bytes, double p,
                        Xoshiro256& rng) noexcept {
    BitFlipper flipper(p, bytes.size());
    return flipper(bytes, rng);
}

}  // namespace lcf::util
