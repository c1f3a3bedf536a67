#pragma once
// Bernoulli arrivals with uniformly distributed destinations — the
// traffic model of the paper's Figure 12 ("Load is the probability that
// a host generates a packet in a given time slot. The destinations of
// the packets are uniformly distributed.").

#include "traffic/traffic.hpp"

#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// i.i.d. Bernoulli(load) arrivals, destination uniform over all outputs
/// (self-traffic included; see DESIGN.md §6.4).
class BernoulliUniform final : public PerInputTraffic<BernoulliUniform> {
public:
    explicit BernoulliUniform(double load)
        : load_(checked_probability(load, "load")) {}

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        auto& rng = rng_[input];
        if (!rng.next_bool(load_)) return kNoArrival;
        return static_cast<std::int32_t>(rng.next_below(outputs_));
    }
    [[nodiscard]] double offered_load() const noexcept override { return load_; }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "uniform";
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    double load_;
    std::size_t outputs_ = 0;
    std::vector<util::Xoshiro256> rng_;  // one independent stream per input
};

}  // namespace lcf::traffic
