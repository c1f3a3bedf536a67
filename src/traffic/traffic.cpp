#include "traffic/traffic.hpp"

#include <stdexcept>

#include "traffic/bernoulli.hpp"
#include "traffic/bursty.hpp"
#include "traffic/pareto.hpp"
#include "traffic/diagonal.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/permutation.hpp"

namespace lcf::traffic {

TrafficGenerator::~TrafficGenerator() = default;

void TrafficGenerator::reset(std::size_t inputs, std::size_t outputs,
                             std::uint64_t seed) {
    if (inputs == 0 || outputs == 0) {
        throw std::invalid_argument(
            std::string(name()) +
            " traffic requires a non-empty switch geometry");
    }
    do_reset(inputs, outputs, seed);
    inputs_ = inputs;
}

double checked_probability(double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(std::string(what) + " must be in [0, 1]");
    }
    return p;
}

std::unique_ptr<TrafficGenerator> make_traffic(std::string_view name,
                                               double load) {
    if (name == "uniform") return std::make_unique<BernoulliUniform>(load);
    if (name == "bursty") return std::make_unique<BurstyTraffic>(load);
    if (name == "pareto") return std::make_unique<ParetoBurstTraffic>(load);
    if (name == "hotspot") return std::make_unique<HotspotTraffic>(load);
    if (name == "diagonal") return std::make_unique<DiagonalTraffic>(load);
    if (name == "permutation") return std::make_unique<PermutationTraffic>(load);
    std::string message = "unknown traffic name: " + std::string(name) +
                          " (valid names:";
    for (const auto& valid : traffic_names()) message += " " + valid;
    throw std::invalid_argument(message + ")");
}

const std::vector<std::string>& traffic_names() {
    static const std::vector<std::string> names = {
        "uniform", "bursty", "pareto", "hotspot", "diagonal", "permutation",
    };
    return names;
}

bool is_traffic_name(std::string_view name) {
    for (const auto& valid : traffic_names()) {
        if (valid == name) return true;
    }
    return false;
}

}  // namespace lcf::traffic
