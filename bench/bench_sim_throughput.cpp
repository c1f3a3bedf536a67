// google-benchmark end-to-end simulation throughput: whole SwitchSim
// runs (arrivals -> PQ/VOQ -> scheduling -> transfer -> metrics) in
// slots per second, not just raw schedule() calls. This is the number a
// Figure 12 sweep, a replication batch, or a soak run actually pays
// per grid point, and the regression gate for the batched-arrival /
// hot-slot-path work (see docs/performance.md).
//
// Grid: VOQ lcf_central / lcf_dist / islip, n in {16, 64, 256},
// uniform and bursty traffic, offered loads 0.7 / 0.9 / 1.0, plus
// ilqf/uniform/{16,256}/90: iLQF is the one scheduler that weighs VOQ
// lengths, so only its rows run SwitchSim's queue-length bookkeeping.
// Plus {wfront,pim}/uniform/16/{20,90}: the wavefront's sweep at low
// load and PIM's random draws, where a 16-port slot pays per-call and
// per-division overhead rather than bit work.
// Benchmark names encode the point as
//   BM_SimThroughput/<scheduler>/<traffic>/<n>/<load%>
// and each run reports items/sec == simulated slots/sec.
//
// Clint rows: BM_QuickChannel/<hosts> (16 and 256 hosts, uniform load
// 0.5) and BM_BulkChannel/16 (uniform load 0.6, 8 retries with
// exponential backoff), both at bit-error rate 1e-5. The quick channel
// has no host limit, so its 256-host row is where arbitration that is
// not linear in hosts would show.
//
// Usage: bench_sim_throughput [--json <path>] [google-benchmark flags...]
// --json <path> is shorthand for
// --benchmark_out=<path> --benchmark_out_format=json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "sim/runner.hpp"
#include "traffic/traffic.hpp"

namespace {

// One benchmark iteration simulates this many slots: enough to amortise
// construction and fill the queues past the warm-up transient, small
// enough that google-benchmark still gets several iterations per repeat.
constexpr std::uint64_t kSlots = 2048;
constexpr std::uint64_t kWarmup = 256;

// An n=256 iteration takes 60-190 ms, so at a small
// --benchmark_min_time such a row is one or two runs and a 1.5x
// scheduler change hides in their noise. These rows run at least this
// long (it overrides the flag), which is 10 or more iterations each.
constexpr double kMinTime256 = 2.5;

void run_sim_point(benchmark::State& state, const std::string& sched,
                   const std::string& traffic, std::size_t ports,
                   double load) {
    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    const lcf::sched::SchedulerConfig sched_config{.iterations = 4,
                                                   .seed = 17};
    for (auto _ : state) {
        const auto result =
            lcf::sim::run_named(sched, config, traffic, load, sched_config);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void run_quick_point(benchmark::State& state, std::size_t hosts) {
    lcf::clint::QuickChannelConfig config;
    config.hosts = hosts;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    config.bit_error_rate = 1e-5;
    for (auto _ : state) {
        lcf::clint::QuickChannelSim sim(
            config, lcf::traffic::make_traffic("uniform", 0.5));
        const auto result = sim.run();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void run_bulk_point(benchmark::State& state, std::size_t hosts) {
    lcf::clint::BulkChannelConfig config;
    config.hosts = hosts;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    config.bit_error_rate = 1e-5;
    config.max_retries = 8;
    config.exponential_backoff = true;
    for (auto _ : state) {
        lcf::clint::BulkChannelSim sim(
            config, lcf::traffic::make_traffic("uniform", 0.6));
        const auto result = sim.run();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void register_grid() {
    const std::vector<std::string> scheds = {"lcf_central", "lcf_dist",
                                             "islip"};
    const std::vector<std::string> traffics = {"uniform", "bursty"};
    const std::vector<std::size_t> radices = {16, 64, 256};
    const std::vector<int> load_pcts = {70, 90, 100};
    for (const auto& sched : scheds) {
        for (const auto& traffic : traffics) {
            for (const std::size_t n : radices) {
                for (const int pct : load_pcts) {
                    const std::string name =
                        "BM_SimThroughput/" + sched + "/" + traffic + "/" +
                        std::to_string(n) + "/" + std::to_string(pct);
                    auto* bench = benchmark::RegisterBenchmark(
                        name.c_str(),
                        [sched, traffic, n, pct](benchmark::State& state) {
                            run_sim_point(state, sched, traffic, n,
                                          static_cast<double>(pct) / 100.0);
                        });
                    bench->Unit(benchmark::kMillisecond);
                    if (n == 256) bench->MinTime(kMinTime256);
                }
            }
        }
    }
    for (const std::size_t n : {std::size_t{16}, std::size_t{256}}) {
        auto* bench = benchmark::RegisterBenchmark(
            ("BM_SimThroughput/ilqf/uniform/" + std::to_string(n) + "/90")
                .c_str(),
            [n](benchmark::State& state) {
                run_sim_point(state, "ilqf", "uniform", n, 0.9);
            });
        bench->Unit(benchmark::kMillisecond);
        if (n == 256) bench->MinTime(kMinTime256);
    }
    for (const std::string sched : {"wfront", "pim"}) {
        for (const int pct : {20, 90}) {
            benchmark::RegisterBenchmark(
                ("BM_SimThroughput/" + sched + "/uniform/16/" +
                 std::to_string(pct))
                    .c_str(),
                [sched, pct](benchmark::State& state) {
                    run_sim_point(state, sched, "uniform", 16,
                                  static_cast<double>(pct) / 100.0);
                })
                ->Unit(benchmark::kMillisecond);
        }
    }
    for (const std::size_t hosts : {std::size_t{16}, std::size_t{256}}) {
        benchmark::RegisterBenchmark(
            ("BM_QuickChannel/" + std::to_string(hosts)).c_str(),
            [hosts](benchmark::State& state) { run_quick_point(state, hosts); })
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        "BM_BulkChannel/16",
        [](benchmark::State& state) { run_bulk_point(state, 16); })
        ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
    // Translate the repo-conventional `--json <path>` into
    // google-benchmark's output flags before Initialize() sees argv.
    std::vector<std::string> storage;
    storage.reserve(static_cast<std::size_t>(argc) + 2);
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
            storage.emplace_back(std::string("--benchmark_out=") + argv[i + 1]);
            storage.emplace_back("--benchmark_out_format=json");
            ++i;
        } else {
            storage.emplace_back(argv[i]);
        }
    }
    std::vector<char*> args;
    args.reserve(storage.size());
    for (auto& s : storage) args.push_back(s.data());
    int new_argc = static_cast<int>(args.size());
    register_grid();
    benchmark::Initialize(&new_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
