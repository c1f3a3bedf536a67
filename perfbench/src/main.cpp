// perfbench: runs one benchmark workload and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, timed untraced; with
// --trace 1 they are the per-layer ones from a separate traced run.
// perfbench/run.py builds this program and is the way to call it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using Metric = std::pair<std::string, std::string>;  // name, unit

const std::vector<Metric>& end_to_end_metrics() {
    static const std::vector<Metric> metrics = {
        {"slots_per_s", "1/s"},
        {"slots_per_s.lcf_central", "1/s"},
        {"slots_per_s.lcf_dist", "1/s"},
        {"slots_per_s.islip", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"mean_delay_slots", "slots"},
        {"p99_delay_slots", "slots"},
        {"goodput", "pkt/port/slot"},
    };
    return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
    static const std::vector<Metric> metrics = [] {
        std::vector<Metric> m;
        for (const char* name : {"lcf_central", "lcf_central_rr", "lcf_dist_rr",
                                 "lcf_dist", "pim", "islip", "wfront", "fifo"}) {
            const std::string p = std::string("sched.") + name + ".";
            m.insert(m.end(), {{p + "schedule_ns_p50", "ns"},
                               {p + "schedule_ns_p99", "ns"},
                               {p + "share", "fraction"},
                               {p + "iterations_mean", "iterations"},
                               {p + "match_ratio", "fraction"}});
        }
        m.insert(m.end(), {
            {"sim.self_ns_per_slot", "ns"},
            {"sim.step_ns_p50", "ns"},
            {"sim.step_ns_p99", "ns"},
            {"sim.share", "fraction"},
            {"sim.voq_occupancy_mean", "packets"},
            {"sim.pq_depth_max", "packets"},
            {"sim.drops", "count"},
            {"traffic.arrivals_ns_per_slot", "ns"},
            {"traffic.share", "fraction"},
            {"pool.efficiency", "fraction"},
            {"pool.point_s_p50", "s"},
            {"pool.point_s_max", "s"},
            {"pool.tail_s", "s"},
            {"clint.bulk_step_ns_p50", "ns"},
            {"clint.bulk_step_ns_p99", "ns"},
            {"clint.quick_step_ns_p50", "ns"},
            {"clint.bulk_share", "fraction"},
            {"clint.retransmissions", "count"},
            {"clint.config_crc_errors", "count"},
            {"clint.grant_crc_errors", "count"},
            {"clint.duplicate_deliveries", "count"},
            {"clint.first_try_ratio", "fraction"},
            {"clint.quick_collisions", "count"},
            {"clint.control_preemptions", "count"},
            {"fault.bits_flipped", "count"},
            {"fault.packets_dropped", "count"},
            {"fault.crashes", "count"},
            {"fault.stalled_slots", "count"},
            {"loss_fraction", "fraction"},
            {"trace.overhead", "fraction"},
            {"trace.probe_ns_per_slot", "ns"},
        });
        return m;
    }();
    return metrics;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
              << "                 [--spans FILE] [--git-rev REV] [--src-digest HEX]\n"
              << "workloads:";
    for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
    std::cerr << '\n';
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    std::string git_rev = "unavailable";
    std::string src_digest = "unavailable";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (arg == "--spans") {
                options.spans_path = value;
            } else if (arg == "--git-rev") {
                git_rev = value;
            } else if (arg == "--src-digest") {
                src_digest = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
    }
    bool known = false;
    for (const auto& name : perfbench::workload_names()) known |= name == options.workload;
    if (!known) usage("unknown workload " + options.workload);

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::cerr << "\n************************************************************\n"
                  << "WARNING: perfbench was built as '" << build_type << "', not Release.\n"
                  << "Its timings are not comparable with Release baselines.\n"
                  << "************************************************************\n\n";
    }

    perfbench::Report report;
    try {
        report = perfbench::run_workload(options);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << '\n';
        return 1;
    }

    std::string manifest = "{\"workload\": " + json_string(options.workload) +
                           ", \"seed\": " + std::to_string(options.seed) +
                           ", \"seconds\": " + json_number(options.seconds) +
                           ", \"trace\": " + (options.trace ? "1" : "0") +
                           ", \"git_rev\": " + json_string(git_rev) +
                           ", \"src_sha256\": " + json_string(src_digest) +
                           ", \"build_type\": " + json_string(build_type) +
                           ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                           ", \"nproc\": " +
                           std::to_string(std::thread::hardware_concurrency()) +
                           ", \"workers\": " + std::to_string(report.workers) +
                           ", \"config\": {";
    for (std::size_t i = 0; i < report.config.size(); ++i) {
        manifest += (i ? ", " : "") + json_string(report.config[i].first) + ": " +
                    json_string(report.config[i].second);
    }
    manifest += "}}";
    std::cout << "{\"manifest\": " << manifest << "}\n";

    if (options.trace && !options.spans_path.empty()) {
        std::ofstream out(options.spans_path);
        out << "# manifest " << manifest << "\nrun,span,parent,name,start_ns,end_ns\n";
        for (const auto& log : report.spans) log->write_csv(out);
        if (!out) std::cerr << "perfbench: could not write " << options.spans_path << '\n';
    }

    // Print exactly the declared metrics of this mode; a layer the
    // workload does not exercise reads 0.
    const auto& declared = options.trace ? per_layer_metrics() : end_to_end_metrics();
    auto& values = options.trace ? report.per_layer : report.end_to_end;
    std::set<std::string> names;
    for (const auto& [name, unit] : declared) names.insert(name);
    for (const auto& [name, value] : values) {
        if (names.count(name) == 0) {
            report.failures.push_back("undeclared metric " + name);
            ++report.failed;
        }
    }
    std::string metrics;
    for (const auto& [name, unit] : declared) {
        double value = 0.0;
        if (const auto it = values.find(name); it != values.end()) {
            value = it->second;
        } else if (!options.trace) {
            report.failures.push_back("end-to-end metric " + name + " missing");
            ++report.failed;
        }
        if (!std::isfinite(value)) {
            report.failures.push_back("metric " + name + " is not finite");
            ++report.failed;
            value = 0.0;
        }
        metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
                   ": {\"value\": " + json_number(value) +
                   ", \"unit\": " + json_string(unit) + "}";
    }
    for (const auto& failure : report.failures) {
        std::cerr << "perfbench: check failed: " << failure << '\n';
    }
    const bool correct = report.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics
              << "}}" << std::endl;
    return correct ? 0 : 1;
}
