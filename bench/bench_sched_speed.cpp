// google-benchmark microbenchmarks: raw schedule() computation cost per
// scheduler and radix, on random request matrices of fixed density.
// This is the software analogue of §6.2's speed comparison (O(n)
// sequential central scheduler vs O(log n)-iteration distributed one).
//
// Every row runs at density 0.35 except the BM_*Sparse rows, which run
// at 0.02: about five requests per row at n=256, the density SwitchSim
// presents to the scheduler at load 0.9 there (few requests, many NRQ
// levels), where the dense rows would overstate per-candidate costs.
//
// The BM_*Reference benchmarks run the pre-optimization per-bit LCF
// transcriptions kept behind the factory's `*_reference` names, so one
// run of this binary yields matched before/after numbers for the
// word-parallel rewrite (see docs/performance.md).
//
// Usage: bench_sched_speed [--json <path>] [google-benchmark flags...]
// --json <path> is shorthand for
// --benchmark_out=<path> --benchmark_out_format=json.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/factory.hpp"
#include "hw/rtl_central.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using lcf::sched::Matching;
using lcf::sched::RequestMatrix;

std::vector<RequestMatrix> make_inputs(std::size_t n, double density,
                                       std::size_t count) {
    lcf::util::Xoshiro256 rng(n * 1000 + 17);
    std::vector<RequestMatrix> inputs;
    inputs.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        RequestMatrix r(n);
        lcf::util::BitVec row(n);
        for (std::size_t i = 0; i < n; ++i) {
            // 64 Bernoulli(density) bits per draw; set_word() trims the
            // bits beyond the row length.
            for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                row.set_word(wi, rng.next_bernoulli_word(density));
            }
            r.assign_row(i, row);
        }
        inputs.push_back(std::move(r));
    }
    return inputs;
}

constexpr double kDensity = 0.35;
constexpr double kSparseDensity = 0.02;

void run_scheduler(benchmark::State& state, const std::string& name,
                   double density = kDensity) {
    const auto n = static_cast<std::size_t>(state.range(0));
    auto s = lcf::core::make_scheduler(
        name, lcf::sched::SchedulerConfig{.iterations = 4, .seed = 2});
    s->reset(n, n);
    const auto inputs = make_inputs(n, density, 32);
    Matching m;
    std::size_t k = 0;
    for (auto _ : state) {
        s->schedule(inputs[k], m);
        benchmark::DoNotOptimize(m);
        k = (k + 1) % inputs.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LcfCentral(benchmark::State& state) {
    run_scheduler(state, "lcf_central");
}
void BM_LcfCentralRr(benchmark::State& state) {
    run_scheduler(state, "lcf_central_rr");
}
void BM_LcfDist(benchmark::State& state) { run_scheduler(state, "lcf_dist"); }
void BM_LcfDistRr(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_rr");
}
void BM_LcfCentralReference(benchmark::State& state) {
    run_scheduler(state, "lcf_central_reference");
}
void BM_LcfCentralRrReference(benchmark::State& state) {
    run_scheduler(state, "lcf_central_rr_reference");
}
void BM_LcfDistReference(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_reference");
}
void BM_LcfDistRrReference(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_rr_reference");
}
void BM_LcfCentralSparse(benchmark::State& state) {
    run_scheduler(state, "lcf_central", kSparseDensity);
}
void BM_LcfDistSparse(benchmark::State& state) {
    run_scheduler(state, "lcf_dist", kSparseDensity);
}
void BM_LcfDistRrSparse(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_rr", kSparseDensity);
}
void BM_IslipSparse(benchmark::State& state) {
    run_scheduler(state, "islip", kSparseDensity);
}
void BM_Pim(benchmark::State& state) { run_scheduler(state, "pim"); }
void BM_Islip(benchmark::State& state) { run_scheduler(state, "islip"); }
void BM_Rrm(benchmark::State& state) { run_scheduler(state, "rrm"); }
// No queue-length snapshot is fed, so this times iLQF's unweighted
// fallback (every request weighs 1; the rotating chain decides).
void BM_Ilqf(benchmark::State& state) { run_scheduler(state, "ilqf"); }
void BM_Fifo(benchmark::State& state) { run_scheduler(state, "fifo"); }
void BM_Wavefront(benchmark::State& state) { run_scheduler(state, "wfront"); }
void BM_MaxSize(benchmark::State& state) { run_scheduler(state, "maxsize"); }

void BM_RtlDatapath(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    lcf::hw::RtlCentralScheduler s;
    s.reset(n, n);
    const auto inputs = make_inputs(n, kDensity, 32);
    Matching m;
    std::size_t k = 0;
    for (auto _ : state) {
        s.schedule(inputs[k], m);
        benchmark::DoNotOptimize(m);
        k = (k + 1) % inputs.size();
    }
}

constexpr std::int64_t kRadices[] = {8, 16, 32, 64, 128, 256};

void radix_args(benchmark::internal::Benchmark* b) {
    for (const auto n : kRadices) b->Arg(n);
}

void sparse_args(benchmark::internal::Benchmark* b) {
    b->Arg(16)->Arg(64)->Arg(256);
}

BENCHMARK(BM_LcfCentral)->Apply(radix_args);
BENCHMARK(BM_LcfCentralRr)->Apply(radix_args);
BENCHMARK(BM_LcfDist)->Apply(radix_args);
BENCHMARK(BM_LcfDistRr)->Apply(radix_args);
BENCHMARK(BM_LcfCentralReference)->Apply(radix_args);
BENCHMARK(BM_LcfCentralRrReference)->Apply(radix_args);
BENCHMARK(BM_LcfDistReference)->Apply(radix_args);
BENCHMARK(BM_LcfDistRrReference)->Apply(radix_args);
BENCHMARK(BM_LcfCentralSparse)->Apply(sparse_args);
BENCHMARK(BM_LcfDistSparse)->Apply(sparse_args);
BENCHMARK(BM_LcfDistRrSparse)->Apply(sparse_args);
BENCHMARK(BM_IslipSparse)->Apply(sparse_args);
BENCHMARK(BM_Pim)->Apply(radix_args);
BENCHMARK(BM_Islip)->Apply(radix_args);
BENCHMARK(BM_Rrm)->Apply(radix_args);
BENCHMARK(BM_Ilqf)->Apply(radix_args);
BENCHMARK(BM_Fifo)->Apply(radix_args);
BENCHMARK(BM_Wavefront)->Apply(radix_args);
BENCHMARK(BM_MaxSize)->Apply(radix_args);
BENCHMARK(BM_RtlDatapath)->Arg(8)->Arg(16)->Arg(32);

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
    benchmark::Initialize(&new_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
