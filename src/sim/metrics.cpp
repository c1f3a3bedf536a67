#include "sim/metrics.hpp"

namespace lcf::sim {

namespace {
// Delay histogram resolution: delays up to PQ+VOQ worst cases fit; the
// rest land in the overflow bucket but still contribute exactly to the
// mean via the histogram's total accounting.
constexpr std::size_t kDelayBuckets = 1 << 14;
}  // namespace

MetricsCollector::MetricsCollector(std::size_t inputs, std::size_t outputs,
                                   std::uint64_t warmup_slot,
                                   bool record_service_matrix)
    : warmup_slot_(warmup_slot),
      delay_(kDelayBuckets),
      outputs_(outputs),
      service_(record_service_matrix ? inputs * outputs : 0, 0) {}

std::uint64_t MetricsCollector::service(std::size_t input,
                                        std::size_t output) const noexcept {
    return service_.empty() ? 0 : service_[input * outputs_ + output];
}

}  // namespace lcf::sim
