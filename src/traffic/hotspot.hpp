#pragma once
// Hotspot traffic: a configurable fraction of all packets target one hot
// output port; the remainder are uniform. Stresses the schedulers'
// behaviour under asymmetric contention.

#include "traffic/traffic.hpp"

#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// Bernoulli arrivals; destination is the hotspot with probability
/// `hot_fraction`, otherwise uniform over all outputs.
class HotspotTraffic final : public PerInputTraffic<HotspotTraffic> {
public:
    HotspotTraffic(double load, double hot_fraction = 0.3,
                   std::size_t hot_port = 0)
        : load_(checked_probability(load, "load")),
          hot_fraction_(checked_probability(hot_fraction, "hot_fraction")),
          hot_port_(hot_port) {}

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        auto& rng = rng_[input];
        if (!rng.next_bool(load_)) return kNoArrival;
        if (rng.next_bool(hot_fraction_)) {
            return static_cast<std::int32_t>(hot_port_);
        }
        return static_cast<std::int32_t>(rng.next_below(outputs_));
    }
    [[nodiscard]] double offered_load() const noexcept override { return load_; }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "hotspot";
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    double load_;
    double hot_fraction_;
    std::size_t hot_port_;
    std::size_t outputs_ = 0;
    std::vector<util::Xoshiro256> rng_;
};

}  // namespace lcf::traffic
