// Tests for the extension baselines: iLQF (longest-queue-first
// iterative matching with VOQ-occupancy weights) and RRM (iSLIP's
// synchronisation-prone predecessor, iSLIP with the unconditional
// grant-pointer rule).

#include <gtest/gtest.h>

#include "sched/ilqf.hpp"
#include "sched/islip.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace lcf::sched {
namespace {

TEST(Ilqf, GrantsLongestQueue) {
    IlqfScheduler s(SchedulerConfig{.iterations = 1});
    s.reset(4, 4);
    // Both I0 and I1 request T2; I1's VOQ is longer.
    std::vector<std::uint32_t> lengths(16, 0);
    lengths[0 * 4 + 2] = 3;
    lengths[1 * 4 + 2] = 9;
    s.observe_queue_lengths(lengths, 4);
    Matching m;
    s.schedule(make_requests(4, {{0, 2}, {1, 2}}), m);
    EXPECT_EQ(m.input_of(2), 1);
}

TEST(Ilqf, AcceptsLongestQueueAmongGrants) {
    IlqfScheduler s(SchedulerConfig{.iterations = 1});
    s.reset(4, 4);
    // I0 requests T1 and T3, uncontested: both grant. Longer VOQ wins.
    std::vector<std::uint32_t> lengths(16, 0);
    lengths[0 * 4 + 1] = 2;
    lengths[0 * 4 + 3] = 7;
    s.observe_queue_lengths(lengths, 4);
    Matching m;
    s.schedule(make_requests(4, {{0, 1}, {0, 3}}), m);
    EXPECT_EQ(m.output_of(0), 3);
}

TEST(Ilqf, UnweightedFallbackStillValidAndIterative) {
    IlqfScheduler s(SchedulerConfig{.iterations = 8});
    s.reset(8, 8);
    util::Xoshiro256 rng(3);
    Matching m;
    for (int trial = 0; trial < 300; ++trial) {
        RequestMatrix r(8);
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
                if (rng.next_bool(0.35)) r.set(i, j);
            }
        }
        s.schedule(r, m);
        EXPECT_TRUE(m.valid_for(r));
        EXPECT_TRUE(m.maximal_for(r));
    }
}

TEST(Ilqf, WantsQueueLengths) {
    EXPECT_TRUE(IlqfScheduler().wants_queue_lengths());
    EXPECT_FALSE(
        IslipScheduler({}, GrantPointerRule::kUnconditional)
            .wants_queue_lengths());
}

TEST(Ilqf, DrainsBacklogHotspotInSimulation) {
    // End-to-end: under uniform traffic iLQF keeps a sane delay profile
    // (the simulator feeds it real VOQ occupancy each slot).
    sim::SimConfig config;
    config.ports = 16;
    config.slots = 20000;
    config.warmup_slots = 2000;
    const auto r = sim::run_named("ilqf", config, "uniform", 0.9);
    EXPECT_NEAR(r.throughput, 0.9, 0.02);
    EXPECT_LT(r.mean_delay, 20.0);
}

TEST(Rrm, ValidMatchingsAndDeterminism) {
    util::Xoshiro256 rng(5);
    IslipScheduler a(SchedulerConfig{.iterations = 4},
                     GrantPointerRule::kUnconditional);
    IslipScheduler b(SchedulerConfig{.iterations = 4},
                     GrantPointerRule::kUnconditional);
    a.reset(8, 8);
    b.reset(8, 8);
    Matching ma, mb;
    for (int trial = 0; trial < 300; ++trial) {
        RequestMatrix r(8);
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
                if (rng.next_bool(0.4)) r.set(i, j);
            }
        }
        a.schedule(r, ma);
        b.schedule(r, mb);
        EXPECT_TRUE(ma.valid_for(r));
        EXPECT_EQ(ma, mb);
    }
}

TEST(Rrm, PointerSynchronisationHurtsFullLoadThroughput) {
    // The textbook RRM pathology: under all-ones requests with one
    // iteration, the grant pointers move in lock-step and the matching
    // stays far from perfect — while iSLIP reaches 100 % after desync.
    RequestMatrix full(8);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 8; ++j) full.set(i, j);
    }
    IslipScheduler rrm(SchedulerConfig{.iterations = 1},
                       GrantPointerRule::kUnconditional);
    rrm.reset(8, 8);
    Matching m;
    double rrm_total = 0;
    for (int slot = 0; slot < 200; ++slot) {
        rrm.schedule(full, m);
        rrm_total += static_cast<double>(m.size());
    }
    // Under deterministic all-ones saturation the lock-step is total:
    // every grant pointer points at the same input, exactly one pair is
    // matched per slot. (With Bernoulli arrivals the collapse is the
    // milder ~63 % McKeown reports; see the simulation test below.)
    EXPECT_LT(rrm_total / 200.0, 0.8 * 8);
    EXPECT_GE(rrm_total / 200.0, 1.0);
}

TEST(Rrm, SimulationSaturatesBelowIslip) {
    sim::SimConfig config;
    config.ports = 16;
    config.slots = 20000;
    config.warmup_slots = 2000;
    const auto rrm =
        sim::run_named("rrm", config, "uniform", 0.95,
                       SchedulerConfig{.iterations = 1});
    const auto islip =
        sim::run_named("islip", config, "uniform", 0.95,
                       SchedulerConfig{.iterations = 1});
    EXPECT_GT(rrm.mean_delay, islip.mean_delay);
}

}  // namespace
}  // namespace lcf::sched
