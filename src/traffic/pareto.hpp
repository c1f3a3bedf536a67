#pragma once
// Heavy-tailed on/off traffic: burst lengths drawn from a bounded
// Pareto distribution. Aggregates of such sources exhibit the
// self-similarity observed in real LAN traffic (Leland et al. 1994) —
// a harsher regime than the geometric bursts of BurstyTraffic and far
// harsher than the paper's Bernoulli model.

#include "traffic/traffic.hpp"

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// On/off source with bounded-Pareto(alpha, 1, max_burst) ON periods
/// (one packet per slot to a per-burst destination) and geometric OFF
/// periods calibrated so the long-run load matches.
class ParetoBurstTraffic final : public PerInputTraffic<ParetoBurstTraffic> {
public:
    /// `alpha` in (1, 2] gives finite mean but very high variance;
    /// default 1.5 with bursts capped at 10 000 slots.
    explicit ParetoBurstTraffic(double load, double alpha = 1.5,
                                double max_burst = 10000.0);

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        PortState& p = ports_[input];
        if (p.remaining_burst == 0) {
            if (!p.rng.next_bool(p_start_)) return kNoArrival;
            p.remaining_burst = static_cast<std::uint64_t>(
                std::llround(sample_burst(p.rng)));
            if (p.remaining_burst == 0) p.remaining_burst = 1;
            p.burst_dst = static_cast<std::int32_t>(p.rng.next_below(outputs_));
        }
        --p.remaining_burst;
        return p.burst_dst;
    }
    [[nodiscard]] double offered_load() const noexcept override {
        return load_;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "pareto";
    }

    /// Mean of the bounded Pareto(alpha, 1, max_burst) distribution.
    [[nodiscard]] double mean_burst() const noexcept { return mean_burst_; }

    /// One bounded-Pareto draw (exposed for the distribution tests).
    [[nodiscard]] double sample_burst(util::Xoshiro256& rng) const noexcept;

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    struct PortState {
        util::Xoshiro256 rng{0};
        std::uint64_t remaining_burst = 0;
        std::int32_t burst_dst = 0;
    };

    double load_;
    double alpha_;
    double max_burst_;
    double mean_burst_ = 1.0;
    double p_start_ = 0.0;  // P(burst starts per idle slot)
    std::size_t outputs_ = 0;
    std::vector<PortState> ports_;
};

}  // namespace lcf::traffic
