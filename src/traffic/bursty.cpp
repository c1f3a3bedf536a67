#include "traffic/bursty.hpp"

#include <stdexcept>

namespace lcf::traffic {

BurstyTraffic::BurstyTraffic(double load, double mean_burst)
    : load_(checked_probability(load, "load")), mean_burst_(mean_burst) {
    if (!(mean_burst >= 1.0)) {
        throw std::invalid_argument("mean_burst must be >= 1");
    }
    p_end_burst_ = 1.0 / mean_burst_;
    // Long-run fraction of ON slots is E[on] / (E[on] + E[off]) = load,
    // with E[on] = mean_burst. Solving gives E[off] and its geometric
    // parameter; load <= 0 or >= 1 degenerate to always-off/always-on.
    if (load_ <= 0.0) {
        p_start_burst_ = 0.0;
    } else if (load_ >= 1.0) {
        p_start_burst_ = 1.0;
        p_end_burst_ = 0.0;
    } else {
        const double mean_idle = mean_burst_ * (1.0 - load_) / load_;
        p_start_burst_ = 1.0 / mean_idle;
    }
}

void BurstyTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                             std::uint64_t seed) {
    outputs_ = outputs;
    ports_.assign(inputs, PortState{});
    for (std::size_t i = 0; i < inputs; ++i) {
        ports_[i].rng = util::Xoshiro256(util::derive_seed(seed, i));
    }
}

}  // namespace lcf::traffic
