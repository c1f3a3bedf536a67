// Quickstart: schedule one cycle of a 4x4 switch by hand with the
// central LCF scheduler (the paper's Figure 3 example), then run a
// complete 16-port switch simulation under uniform traffic and print
// the headline metrics.
//
//   $ cmake -B build -G Ninja && cmake --build build
//   $ ./build/examples/quickstart

#include <fstream>
#include <iostream>
#include <string_view>

#include "core/factory.hpp"
#include "core/lcf_central.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace lcf;

    bool paranoid = false;
    std::string trace_path;
    util::CliParser cli("Quickstart: Figure 3 by hand + a 16-port simulation");
    cli.flag("paranoid", "validate scheduler invariants every cycle",
             &paranoid)
        .flag("trace", "write lcf_central's per-cycle trace to this JSONL file",
              &trace_path);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    // ------------------------------------------------------------------
    // 1. One scheduling cycle, by hand — the paper's Figure 3.
    //
    // Initiators (inputs) request targets (outputs):
    //   I0 -> {T1, T2}    I1 -> {T0, T2, T3}
    //   I2 -> {T0, T2, T3}    I3 -> {T1}
    sched::RequestMatrix requests(4);
    requests.set(0, 1);
    requests.set(0, 2);
    requests.set(1, 0);
    requests.set(1, 2);
    requests.set(1, 3);
    requests.set(2, 0);
    requests.set(2, 2);
    requests.set(2, 3);
    requests.set(3, 1);

    core::LcfCentralScheduler scheduler;  // lcf_central_rr by default
    scheduler.reset(4, 4);
    scheduler.set_diagonal(1, 0);  // Figure 3's round-robin diagonal

    sched::Matching matching;
    scheduler.schedule(requests, matching);

    std::cout << "Figure 3 schedule (input -> output): "
              << matching.to_string() << "\n";
    std::cout << "  granted " << matching.size() << "/4 connections; "
              << "maximal: " << std::boolalpha
              << matching.maximal_for(requests) << "\n\n";

    // ------------------------------------------------------------------
    // 2. A full switch simulation: 16 ports, uniform Bernoulli traffic
    //    at 90% load — the high-load regime where Figure 12 separates
    //    the schedulers.
    sim::SimConfig config;          // paper defaults: VOQ 256, PQ 1000
    config.ports = 16;
    config.slots = 50000;
    config.warmup_slots = 5000;
    config.paranoid = paranoid;

    for (const auto* name : {"lcf_central", "islip", "outbuf"}) {
        const auto result = sim::run_named(name, config, "uniform", 0.9);
        std::cout << name << ": mean delay "
                  << util::AsciiTable::num(result.mean_delay, 2)
                  << " slots, p99 "
                  << util::AsciiTable::num(result.p99_delay, 0)
                  << ", throughput "
                  << util::AsciiTable::num(result.throughput, 3) << "\n";
        if (paranoid && name != std::string_view("outbuf")) {
            std::cout << "  paranoid: " << result.sched.cycles
                      << " cycles validated, "
                      << result.sched.paranoid_violations << " violations\n";
        }
    }

    if (!trace_path.empty()) {
        sim::SimConfig traced = config;
        traced.slots = 1000;
        traced.warmup_slots = 0;
        traced.trace_capacity = traced.slots;
        sim::SwitchSim sim(traced, core::make_scheduler("lcf_central"),
                           traffic::make_traffic("uniform", 0.9));
        sim.run();
        std::ofstream out(trace_path);
        if (!out) {
            std::cerr << "error: cannot write trace file " << trace_path
                      << "\n";
            return 1;
        }
        sim.observer().trace()->export_jsonl(out);
        std::cout << "\nPer-cycle trace (" << sim.observer().trace()->size()
                  << " cycles) written to " << trace_path << "\n";
    }
    std::cout << "\nThe LCF scheduler tracks the output-buffered ideal far "
                 "closer than iSLIP at high load -- the paper's headline "
                 "result.\n";
    return 0;
}
