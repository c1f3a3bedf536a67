#include "traffic/trace.hpp"

#include <stdexcept>

namespace lcf::traffic {

TraceTraffic::TraceTraffic(std::vector<TraceEntry> entries) {
    for (const auto& e : entries) {
        const auto [it, inserted] =
            arrivals_.emplace(std::make_pair(e.slot, e.input), e.destination);
        if (!inserted) {
            throw std::invalid_argument(
                "trace has two arrivals for one (slot, input)");
        }
    }
}

void TraceTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                            std::uint64_t /*seed*/) {
    std::uint64_t max_slot = 0;
    for (const auto& [key, dst] : arrivals_) {
        if (key.second >= inputs) {
            throw std::invalid_argument("trace input out of range");
        }
        if (dst >= outputs) {
            throw std::invalid_argument("trace destination out of range");
        }
        max_slot = std::max(max_slot, key.first);
    }
    const double span = static_cast<double>((max_slot + 1) * inputs);
    offered_ = span > 0 ? static_cast<double>(arrivals_.size()) / span : 0.0;
}

}  // namespace lcf::traffic
