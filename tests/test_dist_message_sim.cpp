// Tests for the message-level distributed scheduler: matching
// equivalence with core::LcfDistScheduler across long randomised
// sequences, and message/bit accounting against the §6.2 analytic
// bound.

#include "hw/dist_message_sim.hpp"

#include <gtest/gtest.h>

#include "core/lcf_dist.hpp"
#include "hw/comm_model.hpp"
#include "util/rng.hpp"

namespace lcf::hw {
namespace {

using sched::Matching;
using sched::RequestMatrix;

TEST(DistMessageSim, MatchesBehaviouralSchedulerOverRandomSequences) {
    // 65 and 130 ports take two and three words per row and column.
    for (const std::size_t n : {4u, 7u, 16u, 65u, 130u}) {
        core::LcfDistScheduler behav(
            core::LcfDistOptions{.iterations = 4, .round_robin = false});
        DistMessageSim msg(4);
        behav.reset(n, n);
        msg.reset(n, n);
        util::Xoshiro256 rng(n * 31);
        Matching mb, mm;
        for (int cycle = 0; cycle < 500; ++cycle) {
            RequestMatrix r(n);
            const double density = rng.next_double();
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    if (rng.next_bool(density)) r.set(i, j);
                }
            }
            behav.schedule(r, mb);
            msg.schedule(r, mm);
            ASSERT_EQ(mb, mm) << "n=" << n << " cycle=" << cycle;
        }
    }
}

TEST(DistMessageSim, BitCountNeverExceedsTheAnalyticBound) {
    // §6.2's i·n²(2·log2 n + 3) counts the worst case (every pair
    // exchanges request+grant+accept every iteration); the measured
    // traffic must stay at or below it on every cycle.
    constexpr std::size_t kN = 16;
    constexpr std::size_t kIters = 4;
    DistMessageSim msg(kIters);
    msg.reset(kN, kN);
    util::Xoshiro256 rng(77);
    Matching m;
    std::uint64_t prev_bits = 0;
    const std::uint64_t bound = CommModel::distributed_bits(kN, kIters);
    for (int cycle = 0; cycle < 300; ++cycle) {
        RequestMatrix r(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            for (std::size_t j = 0; j < kN; ++j) {
                if (rng.next_bool(0.5)) r.set(i, j);
            }
        }
        msg.schedule(r, m);
        const std::uint64_t cycle_bits = msg.stats().bits - prev_bits;
        prev_bits = msg.stats().bits;
        EXPECT_LE(cycle_bits, bound);
    }
    EXPECT_GT(msg.bits_per_cycle(), 0.0);
    EXPECT_LE(msg.bits_per_cycle(), static_cast<double>(bound));
}

TEST(DistMessageSim, SaturatedFirstIterationMatchesWorstCasePerPair) {
    // All-ones requests, first iteration: every initiator messages all
    // n targets -> n² request messages in iteration 1.
    constexpr std::size_t kN = 8;
    DistMessageSim msg(1);
    msg.reset(kN, kN);
    RequestMatrix full(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) full.set(i, j);
    }
    Matching m;
    msg.schedule(full, m);
    EXPECT_EQ(msg.stats().request_messages, kN * kN);
    EXPECT_EQ(msg.stats().grant_messages, kN);  // one grant per target
    EXPECT_GE(msg.stats().accept_messages, 1u);
}

TEST(DistMessageSim, NoTrafficWithoutRequests) {
    DistMessageSim msg(4);
    msg.reset(8, 8);
    Matching m;
    msg.schedule(RequestMatrix(8), m);
    EXPECT_EQ(msg.stats().total_messages(), 0u);
    EXPECT_EQ(msg.stats().bits, 0u);
    EXPECT_EQ(m.size(), 0u);
}

TEST(DistMessageSim, SparseTrafficCostsFarLessThanTheBound) {
    // Light load is where the analytic worst case most overstates real
    // traffic — quantify the gap.
    constexpr std::size_t kN = 16;
    DistMessageSim msg(4);
    msg.reset(kN, kN);
    util::Xoshiro256 rng(5);
    Matching m;
    for (int cycle = 0; cycle < 200; ++cycle) {
        RequestMatrix r(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            if (rng.next_bool(0.5)) {
                r.set(i, static_cast<std::size_t>(rng.next_below(kN)));
            }
        }
        msg.schedule(r, m);
    }
    EXPECT_LT(msg.bits_per_cycle(),
              0.1 * static_cast<double>(CommModel::distributed_bits(kN, 4)));
}

}  // namespace
}  // namespace lcf::hw
