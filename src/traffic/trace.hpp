#pragma once
// Trace replay: a deterministic list of (slot, input, destination)
// arrivals. Used by tests that need exact arrival patterns and available
// to users who want to feed recorded workloads through the simulator.

#include "traffic/traffic.hpp"

#include <map>
#include <utility>
#include <vector>

namespace lcf::traffic {

/// One recorded arrival.
struct TraceEntry {
    std::uint64_t slot;
    std::size_t input;
    std::size_t destination;
};

/// Replays a fixed arrival trace; at most one arrival per (slot, input).
class TraceTraffic final : public PerInputTraffic<TraceTraffic> {
public:
    explicit TraceTraffic(std::vector<TraceEntry> entries);

    std::int32_t arrival(std::size_t input, std::uint64_t slot) override {
        const auto it = arrivals_.find({slot, input});
        if (it == arrivals_.end()) return kNoArrival;
        return static_cast<std::int32_t>(it->second);
    }
    /// Offered load is trace-dependent; reports arrivals per (input,
    /// slot) over the trace's span once reset() has validated it.
    [[nodiscard]] double offered_load() const noexcept override {
        return offered_;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "trace";
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    std::map<std::pair<std::uint64_t, std::size_t>, std::size_t> arrivals_;
    double offered_ = 0.0;
};

}  // namespace lcf::traffic
