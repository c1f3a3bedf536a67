// Tests for the distributed iterative LCF scheduler (§5): grant/accept
// priority rules, iterative augmentation, the round-robin position, and
// convergence behaviour. Figure 9's unambiguous statements are encoded
// directly (I0 wins T2 against higher-NRQ contenders; grants are
// accepted from the target with the lowest NGT).

#include "core/lcf_dist.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace lcf::core {
namespace {

using sched::make_requests;
using sched::Matching;
using sched::RequestMatrix;

TEST(LcfDist, GrantPrefersLowestNrq) {
    // Figure 9, request step of iteration 0: "T2 receives requests from
    // I0, I1, and I2. With one request, I0 has the highest priority and,
    // therefore, receives a grant."
    const RequestMatrix r = make_requests(
        4, {{0, 2},                          // I0: one request
            {1, 0}, {1, 2}, {1, 3},          // I1: three requests
            {2, 0}, {2, 2}, {2, 3}});        // I2: three requests
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1});
    sched.reset(4, 4);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.output_of(0), 2);
}

TEST(LcfDist, AcceptPrefersLowestNgt) {
    // An initiator holding two grants accepts the target that received
    // fewer requests. I0 requests T0 and T1; T0 is also requested by two
    // other initiators (NGT 3) while T1 is requested by I0 alone
    // (NGT 1). Both targets grant I0 (it has the lowest NRQ everywhere),
    // and I0 must accept T1.
    const RequestMatrix r = make_requests(
        4, {{0, 0}, {0, 1},
            {1, 0}, {1, 2}, {1, 3},
            {2, 0}, {2, 2}, {2, 3}});
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1});
    sched.reset(4, 4);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.output_of(0), 1);
}

TEST(LcfDist, Figure9TwoIterationExample) {
    // Figure 9 reconstructed from its annotations: the NRQ column reads
    // 1, 3, 3, 2 and the prose fixes the grant/accept decisions —
    // "T2 receives requests from I0, I1, and I2; with one request I0
    // has the highest priority" and "I3 receives grants from T1 and T3
    // and accepts the grant from T1 since it has the higher priority".
    // The unique request set consistent with all of that:
    //   I0:{T2}, I1:{T0,T2,T3}, I2:{T0,T2,T3}, I3:{T1,T3}.
    const RequestMatrix r = make_requests(
        4, {{0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3}, {3, 1},
            {3, 3}});
    ASSERT_EQ(r.row_count(0), 1u);  // the published NRQ column
    ASSERT_EQ(r.row_count(1), 3u);
    ASSERT_EQ(r.row_count(2), 3u);
    ASSERT_EQ(r.row_count(3), 2u);

    // Iteration 0 alone: I0 wins T2, I3 accepts T1 (declining T3's
    // grant), and one of I1/I2 takes T0 — three matches.
    {
        LcfDistScheduler one(LcfDistOptions{.iterations = 1});
        one.reset(4, 4);
        Matching m;
        one.schedule(r, m);
        EXPECT_EQ(m.output_of(0), 2);
        EXPECT_EQ(m.output_of(3), 1);
        EXPECT_EQ(m.size(), 3u);
        EXPECT_EQ(m.output_of(3), 1) << "I3 must prefer NGT(T1)=1 over "
                                        "NGT(T3)=3";
    }
    // "Figure 9 gives an example of a schedule calculated ... in two
    // iterations": the second iteration matches the remaining initiator
    // with T3, completing a perfect schedule.
    {
        LcfDistScheduler two(LcfDistOptions{.iterations = 2});
        two.reset(4, 4);
        Matching m;
        two.schedule(r, m);
        EXPECT_EQ(m.size(), 4u);
        EXPECT_EQ(m.output_of(0), 2);
        EXPECT_EQ(m.output_of(3), 1);
        // I1 and I2 share T0 and T3 (the tie-break decides which way).
        const auto o1 = m.output_of(1);
        const auto o2 = m.output_of(2);
        EXPECT_TRUE((o1 == 0 && o2 == 3) || (o1 == 3 && o2 == 0));
    }
}

TEST(LcfDist, SecondIterationAugmentsTheMatching) {
    // With everything requesting everything, iteration 1 of an n-port
    // switch matches at least one pair; further iterations must extend,
    // never shrink, the matching.
    RequestMatrix full(4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) full.set(i, j);
    }
    std::size_t prev = 0;
    for (std::size_t iters = 1; iters <= 4; ++iters) {
        LcfDistScheduler sched(LcfDistOptions{.iterations = iters});
        sched.reset(4, 4);
        Matching m;
        sched.schedule(full, m);
        EXPECT_GE(m.size(), prev);
        prev = m.size();
    }
    EXPECT_EQ(prev, 4u);
}

TEST(LcfDist, IterateExtendsAPartialMatching) {
    const RequestMatrix r = make_requests(4, {{0, 0}, {0, 1}, {1, 0}});
    LcfDistScheduler sched(LcfDistOptions{.iterations = 4, .round_robin = true});
    sched.reset(4, 4);
    sched.set_rr_position(0, 0);  // pre-matched: iterations must respect it
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.output_of(0), 0);
    EXPECT_EQ(m.size(), 1u);  // I1's only choice T0 is taken
}

TEST(LcfDist, RoundRobinPositionPreMatches) {
    // lcf_dist_rr grants the rotating position before iterating. Place
    // requests so pure LCF would give T0 to I0; the RR position [I1, T0]
    // must override.
    const RequestMatrix r = make_requests(4, {{0, 0}, {1, 0}, {1, 1}});
    LcfDistScheduler sched(LcfDistOptions{.iterations = 4, .round_robin = true});
    sched.reset(4, 4);
    sched.set_rr_position(1, 0);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.input_of(0), 1);
}

TEST(LcfDist, RoundRobinPositionWalksAllMatrixPositions) {
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1, .round_robin = true});
    sched.reset(4, 4);
    const RequestMatrix empty(4);
    Matching m;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (int c = 0; c < 16; ++c) {
        seen.insert(sched.rr_position());
        sched.schedule(empty, m);
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(LcfDist, ValidityOnRandomMatrices) {
    util::Xoshiro256 rng(321);
    for (const bool rr : {false, true}) {
        LcfDistScheduler sched(
            LcfDistOptions{.iterations = 4, .round_robin = rr});
        sched.reset(8, 8);
        Matching m;
        for (int trial = 0; trial < 500; ++trial) {
            RequestMatrix r(8);
            for (std::size_t i = 0; i < 8; ++i) {
                for (std::size_t j = 0; j < 8; ++j) {
                    if (rng.next_bool(0.35)) r.set(i, j);
                }
            }
            sched.schedule(r, m);
            EXPECT_TRUE(m.valid_for(r));
        }
    }
}

TEST(LcfDist, EnoughIterationsReachMaximality) {
    // One iteration matches at least one pair per connected component;
    // n iterations always reach a maximal matching (each iteration
    // matches at least one pair while any free-free request edge
    // remains).
    util::Xoshiro256 rng(55);
    LcfDistScheduler sched(LcfDistOptions{.iterations = 8});
    sched.reset(8, 8);
    Matching m;
    for (int trial = 0; trial < 300; ++trial) {
        RequestMatrix r(8);
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
                if (rng.next_bool(0.3)) r.set(i, j);
            }
        }
        sched.schedule(r, m);
        EXPECT_TRUE(m.maximal_for(r));
    }
}

TEST(LcfDist, FourIterationsUsuallySufficeAt16Ports) {
    // §5: "a small number of iterations is normally sufficient to find a
    // near-optimal schedule" — quantify: over random 16-port matrices,
    // 4 iterations must reach a maximal matching in the vast majority of
    // cases.
    util::Xoshiro256 rng(99);
    LcfDistScheduler four(LcfDistOptions{.iterations = 4});
    four.reset(16, 16);
    Matching m;
    int maximal = 0;
    constexpr int kTrials = 300;
    for (int trial = 0; trial < kTrials; ++trial) {
        RequestMatrix r(16);
        for (std::size_t i = 0; i < 16; ++i) {
            for (std::size_t j = 0; j < 16; ++j) {
                if (rng.next_bool(0.25)) r.set(i, j);
            }
        }
        four.schedule(r, m);
        if (m.maximal_for(r)) ++maximal;
    }
    EXPECT_GT(maximal, kTrials * 9 / 10);
}

TEST(LcfDist, EmptyAndSingleRequest) {
    LcfDistScheduler sched;
    sched.reset(4, 4);
    Matching m;
    sched.schedule(RequestMatrix(4), m);
    EXPECT_EQ(m.size(), 0u);
    sched.schedule(make_requests(4, {{2, 3}}), m);
    EXPECT_EQ(m.output_of(2), 3);
    EXPECT_EQ(m.size(), 1u);
}

TEST(LcfDist, NamesReflectConfiguration) {
    EXPECT_EQ(LcfDistScheduler(LcfDistOptions{.round_robin = false}).name(),
              "lcf_dist");
    EXPECT_EQ(LcfDistScheduler(LcfDistOptions{.round_robin = true}).name(),
              "lcf_dist_rr");
}

}  // namespace
}  // namespace lcf::core
