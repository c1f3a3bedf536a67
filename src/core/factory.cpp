#include "core/factory.hpp"

#include <stdexcept>

#include "core/lcf_central.hpp"
#include "core/lcf_dist.hpp"
#include "core/lcf_reference.hpp"
#include "sched/fifo_rr.hpp"
#include "sched/ilqf.hpp"
#include "sched/islip.hpp"
#include "sched/maxsize.hpp"
#include "sched/pim.hpp"
#include "sched/wavefront.hpp"

namespace lcf::core {

std::unique_ptr<sched::Scheduler> make_scheduler(
    std::string_view name, const sched::SchedulerConfig& config) {
    if (name == "fifo") return std::make_unique<sched::FifoRrScheduler>();
    if (name == "pim") return std::make_unique<sched::PimScheduler>(config);
    if (name == "islip") return std::make_unique<sched::IslipScheduler>(config);
    if (name == "wfront") return std::make_unique<sched::WavefrontScheduler>();
    if (name == "ilqf") return std::make_unique<sched::IlqfScheduler>(config);
    if (name == "rrm") {
        return std::make_unique<sched::IslipScheduler>(
            config, sched::GrantPointerRule::kUnconditional);
    }
    if (name == "maxsize") return std::make_unique<sched::MaxSizeScheduler>();
    if (name == "lcf_central") {
        return std::make_unique<LcfCentralScheduler>(
            LcfCentralOptions{.variant = RrVariant::kNone});
    }
    if (name == "lcf_central_rr") {
        return std::make_unique<LcfCentralScheduler>(
            LcfCentralOptions{.variant = RrVariant::kInterleaved});
    }
    if (name == "lcf_central_rr_single") {
        return std::make_unique<LcfCentralScheduler>(
            LcfCentralOptions{.variant = RrVariant::kSingle});
    }
    if (name == "lcf_central_rr_first") {
        return std::make_unique<LcfCentralScheduler>(
            LcfCentralOptions{.variant = RrVariant::kDiagonalFirst});
    }
    if (name == "lcf_dist") {
        return std::make_unique<LcfDistScheduler>(LcfDistOptions{
            .iterations = config.iterations, .round_robin = false});
    }
    if (name == "lcf_dist_rr") {
        return std::make_unique<LcfDistScheduler>(LcfDistOptions{
            .iterations = config.iterations, .round_robin = true});
    }
    // Pre-optimization twins: per-bit transcriptions kept as differential
    // oracles for the equivalence suite and as perf-baseline "before"
    // lines. Deliberately absent from scheduler_names() so sweeps and
    // figure harnesses do not enumerate them.
    if (name == "lcf_central_reference") {
        return std::make_unique<LcfCentralReferenceScheduler>(
            LcfCentralOptions{.variant = RrVariant::kNone});
    }
    if (name == "lcf_central_rr_reference") {
        return std::make_unique<LcfCentralReferenceScheduler>(
            LcfCentralOptions{.variant = RrVariant::kInterleaved});
    }
    if (name == "lcf_central_rr_single_reference") {
        return std::make_unique<LcfCentralReferenceScheduler>(
            LcfCentralOptions{.variant = RrVariant::kSingle});
    }
    if (name == "lcf_central_rr_first_reference") {
        return std::make_unique<LcfCentralReferenceScheduler>(
            LcfCentralOptions{.variant = RrVariant::kDiagonalFirst});
    }
    if (name == "lcf_dist_reference") {
        return std::make_unique<LcfDistReferenceScheduler>(LcfDistOptions{
            .iterations = config.iterations, .round_robin = false});
    }
    if (name == "lcf_dist_rr_reference") {
        return std::make_unique<LcfDistReferenceScheduler>(LcfDistOptions{
            .iterations = config.iterations, .round_robin = true});
    }
    std::string message = "unknown scheduler name: " + std::string(name) +
                          " (valid names:";
    for (const auto& valid : scheduler_names()) message += " " + valid;
    throw std::invalid_argument(message + ")");
}

bool is_scheduler_name(std::string_view name) {
    for (const auto& s : scheduler_names()) {
        if (s == name) return true;
    }
    for (const auto& s : reference_scheduler_names()) {
        if (s == name) return true;
    }
    return false;
}

const std::vector<std::string>& reference_scheduler_names() {
    static const std::vector<std::string> names = {
        "lcf_central_reference",           "lcf_central_rr_reference",
        "lcf_central_rr_single_reference", "lcf_central_rr_first_reference",
        "lcf_dist_reference",              "lcf_dist_rr_reference"};
    return names;
}

const std::vector<std::string>& scheduler_names() {
    static const std::vector<std::string> names = {
        "lcf_central",           "lcf_central_rr", "lcf_dist_rr",
        "lcf_dist",              "pim",            "islip",
        "wfront",                "fifo",           "maxsize",
        "lcf_central_rr_single", "lcf_central_rr_first",
        "ilqf",                  "rrm"};
    return names;
}

const std::vector<std::string>& figure12_names() {
    static const std::vector<std::string> names = {
        "lcf_central", "lcf_central_rr", "lcf_dist_rr", "lcf_dist",
        "pim",         "islip",          "wfront",      "fifo",
        "outbuf"};
    return names;
}

}  // namespace lcf::core
