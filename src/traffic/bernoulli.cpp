#include "traffic/bernoulli.hpp"

namespace lcf::traffic {

void BernoulliUniform::do_reset(std::size_t inputs, std::size_t outputs,
                                std::uint64_t seed) {
    outputs_ = outputs;
    rng_.clear();
    rng_.reserve(inputs);
    for (std::size_t i = 0; i < inputs; ++i) {
        rng_.emplace_back(util::derive_seed(seed, i));
    }
}

}  // namespace lcf::traffic
