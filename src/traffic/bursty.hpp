#pragma once
// Two-state (on/off) Markov-modulated bursty traffic. During an ON burst
// the input generates one packet per slot, all to the same destination;
// OFF periods are idle. Burst and idle lengths are geometric with means
// chosen so the long-run offered load equals the configured value — the
// classic model for evaluating VOQ schedulers under correlated arrivals.

#include "traffic/traffic.hpp"

#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// On/off bursty traffic with geometric burst lengths.
class BurstyTraffic final : public PerInputTraffic<BurstyTraffic> {
public:
    /// `mean_burst` is the average ON period in packets (>= 1).
    BurstyTraffic(double load, double mean_burst = 16.0);

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        PortState& p = ports_[input];
        if (!p.on) {
            if (!p.rng.next_bool(p_start_burst_)) return kNoArrival;
            p.on = true;
            p.burst_dst = static_cast<std::int32_t>(p.rng.next_below(outputs_));
        }
        const std::int32_t dst = p.burst_dst;
        if (p.rng.next_bool(p_end_burst_)) p.on = false;
        return dst;
    }
    [[nodiscard]] double offered_load() const noexcept override { return load_; }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "bursty";
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    struct PortState {
        util::Xoshiro256 rng{0};
        bool on = false;
        std::int32_t burst_dst = 0;
    };

    double load_;
    double mean_burst_;
    double p_end_burst_;   // P(burst ends after a slot)
    double p_start_burst_; // P(idle ends after a slot)
    std::size_t outputs_ = 0;
    std::vector<PortState> ports_;
};

}  // namespace lcf::traffic
