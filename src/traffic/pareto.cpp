#include "traffic/pareto.hpp"

#include <cmath>
#include <stdexcept>

namespace lcf::traffic {

ParetoBurstTraffic::ParetoBurstTraffic(double load, double alpha,
                                       double max_burst)
    : load_(checked_probability(load, "load")),
      alpha_(alpha),
      max_burst_(max_burst) {
    if (!(alpha > 1.0)) {
        throw std::invalid_argument("alpha must exceed 1 for a finite mean");
    }
    if (!(max_burst >= 1.0)) {
        throw std::invalid_argument("max_burst must be >= 1");
    }
    // Mean of bounded Pareto(alpha, L=1, H=max_burst):
    //   E = (alpha L^alpha / (alpha-1)) * (1 - (L/H)^(alpha-1))
    //       / (1 - (L/H)^alpha)
    const double lh = 1.0 / max_burst_;
    mean_burst_ = alpha_ / (alpha_ - 1.0) *
                  (1.0 - std::pow(lh, alpha_ - 1.0)) /
                  (1.0 - std::pow(lh, alpha_));
    if (load_ <= 0.0) {
        p_start_ = 0.0;
    } else if (load_ >= 1.0) {
        p_start_ = 1.0;
    } else {
        const double mean_idle = mean_burst_ * (1.0 - load_) / load_;
        p_start_ = 1.0 / mean_idle;
    }
}

double ParetoBurstTraffic::sample_burst(util::Xoshiro256& rng) const noexcept {
    // Inverse-CDF sampling of the bounded Pareto: with U uniform,
    //   X = (1 - U (1 - (L/H)^alpha))^(-1/alpha), L = 1.
    const double u = rng.next_double();
    const double tail = std::pow(1.0 / max_burst_, alpha_);
    return std::pow(1.0 - u * (1.0 - tail), -1.0 / alpha_);
}

void ParetoBurstTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                                  std::uint64_t seed) {
    outputs_ = outputs;
    ports_.assign(inputs, PortState{});
    for (std::size_t i = 0; i < inputs; ++i) {
        ports_[i].rng = util::Xoshiro256(util::derive_seed(seed, i));
    }
}

}  // namespace lcf::traffic
