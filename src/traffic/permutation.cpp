#include "traffic/permutation.hpp"

#include <numeric>
#include <stdexcept>

namespace lcf::traffic {

void PermutationTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                                  std::uint64_t seed) {
    if (outputs < inputs) {
        throw std::invalid_argument(
            "permutation traffic requires outputs >= inputs");
    }
    perm_.resize(outputs);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    util::Xoshiro256 rng(util::derive_seed(seed, 0xFEED));
    for (std::size_t i = outputs; i > 1; --i) {  // Fisher–Yates
        const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
        std::swap(perm_[i - 1], perm_[j]);
    }
    perm_.resize(inputs);
    rng_.clear();
    rng_.reserve(inputs);
    for (std::size_t i = 0; i < inputs; ++i) {
        rng_.emplace_back(util::derive_seed(seed, i));
    }
}

}  // namespace lcf::traffic
