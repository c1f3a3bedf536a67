// Rectangular (inputs != outputs) switch support: the request-matrix
// and matching types are rectangular by design; verify the schedulers
// that support non-square geometries behave correctly there (the RTL
// model is square-only by hardware construction and rejects).

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sched/maxsize.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

using sched::Matching;
using sched::RequestMatrix;

RequestMatrix random_rect(util::Xoshiro256& rng, std::size_t inputs,
                          std::size_t outputs, double density) {
    RequestMatrix r(inputs, outputs);
    for (std::size_t i = 0; i < inputs; ++i) {
        for (std::size_t j = 0; j < outputs; ++j) {
            if (rng.next_bool(density)) r.set(i, j);
        }
    }
    return r;
}

TEST(Rectangular, SchedulersStayValidOnWideAndTallMatrices) {
    // Concentrators (more inputs than outputs) and expanders (fewer),
    // plus a switch that grows and one that shrinks after a few cycles
    // at the reset() geometry: schedule() must size its own state from
    // the request matrix, never from the last reset() or earlier calls.
    struct Case {
        std::size_t reset_in, reset_out, n_in, n_out;
    };
    util::Xoshiro256 rng(404);
    for (const auto& [reset_in, reset_out, n_in, n_out] :
         {Case{8, 3, 8, 3}, Case{3, 8, 3, 8}, Case{16, 4, 16, 4},
          Case{2, 12, 2, 12}, Case{4, 4, 8, 8}, Case{8, 8, 4, 4}}) {
        for (const auto& name : core::scheduler_names()) {
            auto s = core::make_scheduler(
                name, sched::SchedulerConfig{.iterations = 8, .seed = 5});
            s->reset(reset_in, reset_out);
            Matching m;
            for (int warm = 0; warm < 7; ++warm) {
                s->schedule(random_rect(rng, reset_in, reset_out, 0.4), m);
            }
            for (int trial = 0; trial < 100; ++trial) {
                const auto r = random_rect(rng, n_in, n_out, 0.4);
                s->schedule(r, m);
                ASSERT_TRUE(m.valid_for(r))
                    << name << " " << n_in << "x" << n_out;
                ASSERT_LE(m.size(), std::min(n_in, n_out));
            }
        }
    }
}

TEST(Rectangular, LcfCentralMaximalOnRectangles) {
    util::Xoshiro256 rng(405);
    auto s = core::make_scheduler("lcf_central_rr");
    s->reset(6, 10);
    Matching m;
    for (int trial = 0; trial < 200; ++trial) {
        const auto r = random_rect(rng, 6, 10, 0.3);
        s->schedule(r, m);
        ASSERT_TRUE(m.maximal_for(r));
    }
}

TEST(Rectangular, ConcentratorSaturatesAtOutputCount) {
    // 8 inputs all requesting all 3 outputs: exactly 3 grants.
    auto s = core::make_scheduler("lcf_central");
    s->reset(8, 3);
    RequestMatrix r(8, 3);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 3; ++j) r.set(i, j);
    }
    Matching m;
    s->schedule(r, m);
    EXPECT_EQ(m.size(), 3u);
}

TEST(Rectangular, MaxSizeOptimalOnRectangles) {
    util::Xoshiro256 rng(406);
    for (int trial = 0; trial < 100; ++trial) {
        const auto r = random_rect(rng, 4, 7, 0.35);
        // Brute force over the 4 inputs.
        std::size_t best = 0;
        for (std::uint32_t assign = 0; assign < (1u << (4 * 3)); ++assign) {
            // 3 bits per input choosing output 0..6 or skip (7).
            std::uint32_t used = 0;
            std::size_t count = 0;
            bool ok = true;
            for (std::size_t i = 0; i < 4 && ok; ++i) {
                const std::uint32_t pick = (assign >> (3 * i)) & 7u;
                if (pick == 7) continue;
                if (!r.get(i, pick) || (used & (1u << pick))) {
                    ok = false;
                } else {
                    used |= 1u << pick;
                    ++count;
                }
            }
            if (ok) best = std::max(best, count);
        }
        EXPECT_EQ(sched::MaxSizeScheduler::maximum_matching_size(r), best);
    }
}

}  // namespace
}  // namespace lcf
