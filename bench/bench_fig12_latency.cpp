// Regenerates Figure 12 of the paper: mean queuing delay versus offered
// load for the nine switch/scheduler configurations (12a), and the same
// data relative to the output-buffered switch (12b).
//
// Paper parameters (§6.3): 16 ports, VOQ = 256 entries, PQ = 1000
// entries, 4 iterations for the iterative schedulers, 256-entry output
// buffers, uniform Bernoulli traffic.
//
//   ./bench_fig12_latency                  # paper configuration
//   ./bench_fig12_latency --slots 20000    # quicker, noisier
//   ./bench_fig12_latency --csv fig12.csv  # machine-readable series

#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "core/factory.hpp"
#include "sim/runner.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using lcf::util::AsciiTable;

int run(int argc, const char* const* argv) {
    std::uint64_t ports = 16;
    std::uint64_t slots = 100000;
    std::uint64_t iterations = 4;
    std::uint64_t seed = 42;
    std::uint64_t threads = 0;
    std::string traffic = "uniform";
    std::string csv_path;
    bool paranoid = false;
    std::string trace_path;

    lcf::util::CliParser cli(
        "Figure 12: mean queuing delay vs load, nine configurations");
    cli.flag("ports", "switch radix n", &ports)
        .flag("slots", "simulated slots per point", &slots)
        .flag("iterations", "iterations for pim/lcf_dist[_rr]/islip",
              &iterations)
        .flag("seed", "simulation seed", &seed)
        .flag("threads", "worker threads (0 = all cores)", &threads)
        .flag("traffic", "traffic pattern", &traffic)
        .flag("csv", "also write the series to this CSV file", &csv_path)
        .flag("paranoid", "validate scheduler invariants every cycle",
              &paranoid)
        .flag("trace",
              "record the lcf_central_rr run at the highest load and write "
              "its per-cycle trace to this CSV file",
              &trace_path);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = slots;
    config.warmup_slots = slots / 10;
    config.seed = seed;
    config.paranoid = paranoid;

    const auto names = lcf::core::figure12_names();
    const auto loads = lcf::sim::figure12_loads();
    std::cout << "Figure 12 reproduction: " << ports << "-port switch, "
              << slots << " slots/point, " << traffic << " traffic, "
              << iterations << " iterations\n\n";

    const auto points = lcf::sim::sweep(
        names, loads, config, traffic,
        lcf::sched::SchedulerConfig{.iterations = iterations, .seed = seed},
        threads);

    // Index results: delay[config][load].
    std::map<std::string, std::map<double, double>> delay;
    for (const auto& p : points) {
        delay[p.config_name][p.load] = p.result.mean_delay;
    }

    AsciiTable fig12a;
    {
        std::vector<std::string> header = {"load"};
        header.insert(header.end(), names.begin(), names.end());
        fig12a.header(header);
        for (const double load : loads) {
            std::vector<std::string> row = {AsciiTable::num(load, 2)};
            for (const auto& name : names) {
                row.push_back(AsciiTable::num(delay[name][load], 2));
            }
            fig12a.add_row(row);
        }
    }
    std::cout << "Figure 12a: mean queuing delay [packet time slots]\n";
    fig12a.print(std::cout);

    AsciiTable fig12b;
    {
        std::vector<std::string> header = {"load"};
        header.insert(header.end(), names.begin(), names.end());
        fig12b.header(header);
        for (const double load : loads) {
            std::vector<std::string> row = {AsciiTable::num(load, 2)};
            const double base = delay["outbuf"][load];
            for (const auto& name : names) {
                row.push_back(base > 0.0
                                  ? AsciiTable::num(delay[name][load] / base, 3)
                                  : "-");
            }
            fig12b.add_row(row);
        }
    }
    std::cout << "\nFigure 12b: latency relative to outbuf\n";
    fig12b.print(std::cout);

    // Render both panels as the paper draws them (12a clipped to the
    // published 0..25-slot axis; 12b to the 1..3 band).
    {
        lcf::util::AsciiPlot plot(76, 24);
        plot.y_label("Figure 12a (plot): latency [packets], axis clipped "
                     "at 25 as published");
        plot.x_label("load");
        plot.y_limit(25.0);
        for (const auto& name : names) {
            lcf::util::PlotSeries s{name, {}};
            for (const double load : loads) {
                s.points.emplace_back(load, delay[name][load]);
            }
            plot.add_series(std::move(s));
        }
        std::cout << '\n';
        plot.print(std::cout);
    }
    {
        lcf::util::AsciiPlot plot(76, 18);
        plot.y_label("Figure 12b (plot): latency relative to outbuf, "
                     "clipped at 3 as published");
        plot.x_label("load");
        plot.y_limit(3.0);
        for (const auto& name : names) {
            if (name == "fifo") continue;  // off the published axis
            lcf::util::PlotSeries s{name, {}};
            for (const double load : loads) {
                const double base = delay["outbuf"][load];
                if (base > 0) s.points.emplace_back(load, delay[name][load] / base);
            }
            plot.add_series(std::move(s));
        }
        std::cout << '\n';
        plot.print(std::cout);
    }

    // The paper's headline comparisons, extracted from the sweep.
    const double hi = 0.9;
    std::cout << "\nHeadline checks (load " << hi << "):\n"
              << "  lcf_central / outbuf latency ratio: "
              << AsciiTable::num(delay["lcf_central"][hi] / delay["outbuf"][hi],
                                 2)
              << "  (paper: ~1.4 at high load)\n"
              << "  lcf_dist vs pim: "
              << AsciiTable::num(delay["lcf_dist"][hi], 2) << " vs "
              << AsciiTable::num(delay["pim"][hi], 2)
              << "  (paper: lcf_dist lower up to ~0.9)\n"
              << "  islip vs wfront: "
              << AsciiTable::num(delay["islip"][hi], 2) << " vs "
              << AsciiTable::num(delay["wfront"][hi], 2)
              << "  (paper: similar)\n";

    if (paranoid) {
        const auto totals = lcf::sim::aggregate_counters(points);
        std::cout << "\nParanoid mode: " << totals.cycles
                  << " scheduling cycles validated, "
                  << totals.paranoid_violations << " violations, max "
                  << "starvation age " << totals.max_starvation_age << "\n";
    }

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
            std::cerr << "error: cannot write CSV file " << csv_path << "\n";
            return 1;
        }
        lcf::util::CsvWriter csv(out);
        csv.row("traffic", "scheduler", "load", "mean_delay", "p99_delay",
                "throughput", "dropped", "sched_cycles", "mean_matching",
                "max_starvation_age");
        for (const auto& p : points) {
            csv.row(traffic, p.config_name, p.load, p.result.mean_delay,
                    p.result.p99_delay, p.result.throughput,
                    p.result.dropped, p.result.sched.cycles,
                    p.result.sched.mean_matching(),
                    p.result.sched.max_starvation_age);
        }
        std::cout << "\nCSV series written to " << csv_path << "\n";
    }

    if (!trace_path.empty()) {
        // One extra instrumented run: the paper's flagship scheduler at
        // the sweep's highest load, with the trace ring sized to keep
        // every cycle.
        lcf::sim::SimConfig traced = config;
        traced.trace_capacity = traced.slots;
        auto scheduler = lcf::core::make_scheduler(
            "lcf_central_rr",
            lcf::sched::SchedulerConfig{.iterations = iterations, .seed = seed});
        auto gen = lcf::traffic::make_traffic(traffic, loads.back());
        lcf::sim::SwitchSim sim(traced, std::move(scheduler), std::move(gen));
        sim.run();
        std::ofstream out(trace_path);
        if (!out) {
            std::cerr << "error: cannot write trace file " << trace_path
                      << "\n";
            return 1;
        }
        sim.observer().trace()->export_csv(out);
        std::cout << "Per-cycle trace of lcf_central_rr at load "
                  << AsciiTable::num(loads.back(), 2) << " written to "
                  << trace_path << " (" << sim.observer().trace()->size()
                  << " cycles)\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
