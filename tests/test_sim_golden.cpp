// Golden SimResult pins: end-to-end simulation outputs for every
// traffic model, captured before the batched-arrival / hot-slot-path
// rework (PR 4) and asserted bit-identical ever since. Any change to
// per-(input, slot) RNG draw order, queue mechanics, or metrics
// accounting shows up here as an exact-value mismatch.
//
// Also pins that sweep() and replicate() are deterministic functions of
// their seeds alone: thread count (1 vs 8 vs the shared pool) must not
// change a single bit of any result.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/replicate.hpp"
#include "sim/runner.hpp"

namespace lcf {
namespace {

sim::SimResult run_golden_point(const std::string& sched,
                                const std::string& traffic,
                                std::size_t speedup = 1) {
    sim::SimConfig c;
    c.ports = 16;
    c.speedup = speedup;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 7777;
    return sim::run_named(sched, c, traffic, 0.85,
                          sched::SchedulerConfig{.iterations = 4,
                                                 .seed = 7777});
}

struct Golden {
    std::uint64_t generated, delivered, dropped, measured, grants;
    double mean_delay, p99_delay, throughput, mean_choices;
};

void expect_matches_golden(const sim::SimResult& r, const Golden& g) {
    EXPECT_EQ(r.generated, g.generated);
    EXPECT_EQ(r.delivered, g.delivered);
    EXPECT_EQ(r.dropped, g.dropped);
    EXPECT_EQ(r.measured, g.measured);
    EXPECT_EQ(r.sched.grants, g.grants);
    EXPECT_DOUBLE_EQ(r.mean_delay, g.mean_delay);
    EXPECT_DOUBLE_EQ(r.p99_delay, g.p99_delay);
    EXPECT_DOUBLE_EQ(r.throughput, g.throughput);
    EXPECT_DOUBLE_EQ(r.mean_choices, g.mean_choices);
}

TEST(SimGolden, UniformLcfCentralRr) {
    expect_matches_golden(
        run_golden_point("lcf_central_rr", "uniform"),
        {67804, 67747, 0, 60926, 67747, 4.6792830647014023, 30.0,
         0.84687500000000004, 3.1769583333333333});
}

TEST(SimGolden, BurstyLcfDistRr) {
    expect_matches_golden(
        run_golden_point("lcf_dist_rr", "bursty"),
        {71963, 69550, 0, 62417, 69550, 104.57823990259186, 992.0,
         0.87836111111111115, 4.6505833333333335});
}

TEST(SimGolden, ParetoIslip) {
    expect_matches_golden(
        run_golden_point("islip", "pareto"),
        {80000, 74302, 0, 66302, 74302, 211.24608609091615, 1533.0,
         0.93647222222222226, 10.577125000000001});
}

TEST(SimGolden, HotspotLcfCentral) {
    expect_matches_golden(
        run_golden_point("lcf_central", "hotspot"),
        {67831, 22535, 25211, 15735, 22535, 1186.3505560851568, 3791.0,
         0.24447222222222223, 1.4029166666666666});
}

TEST(SimGolden, DiagonalLcfCentral) {
    expect_matches_golden(
        run_golden_point("lcf_central", "diagonal"),
        {67804, 67767, 0, 60946, 67767, 3.2406064384864899, 14.0,
         0.84698611111111111, 1.3698611111111112});
}

// iLQF weighs every VOQ by its length, so these two pin the queue-length
// path from SwitchSim into the scheduler end to end; at speedup 2 the
// second phase of each slot must see the lengths the first one left.
TEST(SimGolden, UniformIlqf) {
    expect_matches_golden(run_golden_point("ilqf", "uniform"),
                          {67804, 67742, 0, 60921, 67742, 5.6090346514338121,
                           29.0, 0.84698611111111111, 4.482013888888889});
}

TEST(SimGolden, HotspotIlqfSpeedup2) {
    expect_matches_golden(run_golden_point("ilqf", "hotspot", 2),
                          {67831, 23104, 24397, 16761, 28105, 896.35546805083436,
                           3067.0, 0.25237500000000002, 1.2575555555555555});
}

TEST(SimGolden, PermutationIslip) {
    expect_matches_golden(
        run_golden_point("islip", "permutation"),
        {67730, 67730, 0, 60917, 67730, 1.0, 1.0, 0.84606944444444443,
         0.84606944444444443});
}

// The benchmark's geometry (256 ports, uniform 0.9): multi-word bitsets,
// and requests that persist from slot to slot in the VOQs, so iSLIP's
// and RRM's grant-pointer rules steer later slots apart.
sim::SimResult run_n256_point(const std::string& sched) {
    sim::SimConfig c;
    c.ports = 256;
    c.slots = 400;
    c.warmup_slots = 100;
    c.seed = 7777;
    return sim::run_named(sched, c, "uniform", 0.9,
                          sched::SchedulerConfig{.iterations = 4,
                                                 .seed = 7777});
}

TEST(SimGolden, Uniform256Islip) {
    expect_matches_golden(run_n256_point("islip"),
                          {92280, 90131, 0, 67019, 90131, 9.4478431489577979,
                           40.0, 0.89397135416666662, 8.4745442708333325});
}

TEST(SimGolden, Uniform256Rrm) {
    expect_matches_golden(run_n256_point("rrm"),
                          {92280, 90247, 0, 67135, 90247, 9.0445520220450835,
                           48.0, 0.89523437500000003, 8.1879817708333338});
}

TEST(SimGolden, Uniform256LcfCentral) {
    expect_matches_golden(run_n256_point("lcf_central"),
                          {92280, 90926, 0, 67814, 90926, 6.1577845282685377,
                           57.0, 0.89858072916666665, 5.8213541666666666});
}

TEST(SimGolden, Uniform256LcfDist) {
    expect_matches_golden(run_n256_point("lcf_dist"),
                          {92280, 91024, 0, 67912, 91024, 5.744522323006291,
                           57.0, 0.89856770833333333, 5.4396744791666665});
}

// ---------------------------------------------------------------------
// sweep(): golden values and thread-count independence.

std::vector<sim::SweepPoint> run_golden_sweep(std::size_t threads) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 4242;
    return sim::sweep({"lcf_central_rr", "islip"}, {0.5, 0.9}, c, "uniform",
                      sched::SchedulerConfig{.iterations = 4, .seed = 11},
                      threads);
}

TEST(SimGolden, SweepPinnedValues) {
    const auto pts = run_golden_sweep(2);
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].result.generated, 23944u);
    EXPECT_EQ(pts[0].result.delivered, 23942u);
    EXPECT_DOUBLE_EQ(pts[0].result.mean_delay, 1.6251621872103788);
    EXPECT_DOUBLE_EQ(pts[0].result.throughput, 0.49974537037037037);
    EXPECT_EQ(pts[1].result.generated, 43151u);
    EXPECT_EQ(pts[1].result.delivered, 43075u);
    EXPECT_DOUBLE_EQ(pts[1].result.mean_delay, 7.259918485270612);
    EXPECT_DOUBLE_EQ(pts[1].result.throughput, 0.89932870370370366);
    EXPECT_EQ(pts[2].result.delivered, 23941u);
    EXPECT_DOUBLE_EQ(pts[2].result.mean_delay, 1.7139348440613515);
    EXPECT_EQ(pts[3].result.delivered, 43016u);
    EXPECT_DOUBLE_EQ(pts[3].result.mean_delay, 10.95471103417986);
    EXPECT_DOUBLE_EQ(pts[3].result.throughput, 0.89918981481481486);
}

void expect_results_identical(const sim::SimResult& a,
                              const sim::SimResult& b) {
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.measured, b.measured);
    EXPECT_EQ(a.sched, b.sched);
    // Exact (not approximate) comparison: determinism means the same
    // bits, not close values.
    EXPECT_EQ(a.mean_delay, b.mean_delay);
    EXPECT_EQ(a.p50_delay, b.p50_delay);
    EXPECT_EQ(a.p99_delay, b.p99_delay);
    EXPECT_EQ(a.max_delay, b.max_delay);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.mean_choices, b.mean_choices);
}

TEST(SimGolden, SweepIsThreadCountIndependent) {
    const auto one = run_golden_sweep(1);
    const auto eight = run_golden_sweep(8);
    const auto shared = run_golden_sweep(0);  // process-wide shared pool
    ASSERT_EQ(one.size(), eight.size());
    ASSERT_EQ(one.size(), shared.size());
    for (std::size_t k = 0; k < one.size(); ++k) {
        SCOPED_TRACE(one[k].config_name + "@" +
                     std::to_string(one[k].load));
        EXPECT_EQ(one[k].config_name, eight[k].config_name);
        EXPECT_EQ(one[k].load, eight[k].load);
        expect_results_identical(one[k].result, eight[k].result);
        expect_results_identical(one[k].result, shared[k].result);
    }
}

// ---------------------------------------------------------------------
// replicate(): golden values and thread-count independence.

analysis::ReplicatedResult run_golden_replicate(std::size_t threads) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 2000;
    c.warmup_slots = 200;
    c.seed = 99;
    return analysis::replicate(
        "lcf_dist", c, "bursty", 0.8, 4,
        sched::SchedulerConfig{.iterations = 4, .seed = 5}, threads);
}

TEST(SimGolden, ReplicatePinnedValues) {
    const auto rep = run_golden_replicate(2);
    EXPECT_DOUBLE_EQ(rep.mean_delay.mean, 59.706054542383505);
    EXPECT_DOUBLE_EQ(rep.mean_delay.half_width, 16.353563329291976);
    EXPECT_DOUBLE_EQ(rep.throughput.mean, 0.81801215277777783);
}

TEST(SimGolden, ReplicateIsThreadCountIndependent) {
    const auto one = run_golden_replicate(1);
    const auto eight = run_golden_replicate(8);
    ASSERT_EQ(one.runs.size(), eight.runs.size());
    for (std::size_t k = 0; k < one.runs.size(); ++k) {
        SCOPED_TRACE("replication " + std::to_string(k));
        expect_results_identical(one.runs[k], eight.runs[k]);
    }
    EXPECT_EQ(one.mean_delay.mean, eight.mean_delay.mean);
    EXPECT_EQ(one.mean_delay.half_width, eight.mean_delay.half_width);
    EXPECT_EQ(one.throughput.mean, eight.throughput.mean);
    EXPECT_EQ(one.throughput.half_width, eight.throughput.half_width);
}

}  // namespace
}  // namespace lcf
