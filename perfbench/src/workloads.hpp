#pragma once
// The benchmark's three workloads. Each is a closed batch of
// slot-synchronous simulation whose inputs derive from one seed; the
// offered load is the simulated arrival rate, not a request stream.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_path;  ///< where the traced run writes its spans
};

/// What one workload run measured and checked.
struct Report {
    /// Simulator runs completed, and those that failed a correctness
    /// check (conservation, determinism, matching validity).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
    /// Workload parameters, stamped into the manifest.
    std::vector<std::pair<std::string, std::string>> config;
    std::size_t workers = 1;
    /// Span logs of the traced run, one per simulator run.
    std::vector<std::unique_ptr<SpanLog>> spans;

    /// Count one simulator run; `problems` lists its failed checks.
    void run_checked(const std::vector<std::string>& problems);
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run `options.workload`; throws std::invalid_argument for an unknown
/// name. Per-layer numbers are filled only when options.trace is set.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
