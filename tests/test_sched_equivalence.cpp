// Equivalence property suite for the word-parallel scheduler rewrite:
// every optimized LCF scheduler must produce BIT-IDENTICAL matchings —
// and identical last_iterations() — to its `*_reference` twin (the
// per-bit transcription of the paper's pseudocode kept in
// core/lcf_reference.hpp) on every cycle of a long randomized run, over
// square and rectangular geometries and every round-robin variant. The
// optimized schedulers' outputs additionally run under the
// ParanoidChecker, so the optimizations cannot trade invariants for
// speed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/lcf_central.hpp"
#include "core/lcf_reference.hpp"
#include "core/precalc.hpp"
#include "obs/paranoid_checker.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

struct Geometry {
    std::size_t inputs;
    std::size_t outputs;
};

// Square radices below, at, and above one 64-bit word and at the
// benchmark's 256 ports, plus both rectangular orientations, once with
// inputs and outputs spanning different word counts.
const Geometry kGeometries[] = {{16, 16}, {13, 13},  {67, 67},  {12, 20},
                                {20, 12}, {256, 256}, {130, 70}, {70, 130}};

// Densities cycled per scheduling cycle; the 0.0 and 1.0 extremes pin
// the empty- and full-matrix edge cases.
constexpr double kDensities[] = {0.0, 0.05, 0.2, 0.35, 0.6, 0.9, 1.0};

sched::RequestMatrix random_requests(util::Xoshiro256& rng,
                                     const Geometry& g, double density) {
    sched::RequestMatrix r(g.inputs, g.outputs);
    util::BitVec row(g.outputs);
    for (std::size_t i = 0; i < g.inputs; ++i) {
        for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
            row.set_word(wi, rng.next_bernoulli_word(density));
        }
        r.assign_row(i, row);
    }
    return r;
}

// Every row draws its own density, so one matrix holds empty rows,
// single-bit rows, full rows and rows in between: NRQ spans 0..outputs.
sched::RequestMatrix mixed_row_requests(util::Xoshiro256& rng,
                                        const Geometry& g) {
    sched::RequestMatrix r(g.inputs, g.outputs);
    for (std::size_t i = 0; i < g.inputs; ++i) {
        switch (rng.next_below(4)) {
            case 0:  // empty row
                break;
            case 1:  // single-bit row
                r.set(i, rng.next_below(g.outputs));
                break;
            case 2:  // full row
                for (std::size_t j = 0; j < g.outputs; ++j) r.set(i, j);
                break;
            default: {
                const double density = rng.next_double();
                for (std::size_t j = 0; j < g.outputs; ++j) {
                    if (rng.next_bool(density)) r.set(i, j);
                }
            }
        }
    }
    return r;
}

constexpr std::size_t kCycles = 250;

// Runs `name` and its reference twin over kCycles matrices from
// draw(rng, geometry, cycle) on every geometry, the optimized side
// under the ParanoidChecker.
template <class Draw>
void expect_bit_identical_to_reference(const std::string& name, Draw draw) {
    const sched::SchedulerConfig config{.iterations = 4, .seed = 7};
    for (const Geometry& g : kGeometries) {
        auto opt = core::make_scheduler(name, config);
        auto ref = core::make_scheduler(name + "_reference", config);
        opt->reset(g.inputs, g.outputs);
        ref->reset(g.inputs, g.outputs);

        obs::ParanoidChecker checker(
            obs::ParanoidChecker::options_for(name, opt->iteration_limit()));
        checker.reset(g.inputs, g.outputs);

        util::Xoshiro256 rng(g.inputs * 1009 + g.outputs);
        sched::Matching m_opt, m_ref;
        for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
            const sched::RequestMatrix r = draw(rng, g, cycle);
            opt->schedule(r, m_opt);
            ref->schedule(r, m_ref);
            ASSERT_EQ(m_opt, m_ref)
                << name << " diverges from its reference at cycle " << cycle
                << " (" << g.inputs << "x" << g.outputs
                << ")\noptimized: " << m_opt.to_string()
                << "\nreference: " << m_ref.to_string();
            ASSERT_EQ(opt->last_iterations(), ref->last_iterations())
                << name << " iteration count diverges at cycle " << cycle;
            checker.check_cycle(r, m_opt);
            checker.check_iterations(opt->last_iterations());
        }
        EXPECT_EQ(checker.violation_count(), 0u);
        EXPECT_EQ(checker.cycles_checked(), kCycles);
    }
}

class SchedEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedEquivalence, BitIdenticalToReferenceOverRandomCycles) {
    expect_bit_identical_to_reference(
        GetParam(), [](util::Xoshiro256& rng, const Geometry& g,
                       std::size_t cycle) {
            const double density =
                kDensities[cycle % (sizeof(kDensities) / sizeof(double))];
            return random_requests(rng, g, density);
        });
}

TEST_P(SchedEquivalence, BitIdenticalToReferenceOnMixedRowDensities) {
    expect_bit_identical_to_reference(
        GetParam(), [](util::Xoshiro256& rng, const Geometry& g,
                       std::size_t) { return mixed_row_requests(rng, g); });
}

INSTANTIATE_TEST_SUITE_P(
    AllLcfSchedulers, SchedEquivalence,
    ::testing::Values("lcf_central", "lcf_central_rr",
                      "lcf_central_rr_single", "lcf_central_rr_first",
                      "lcf_dist", "lcf_dist_rr"),
    [](const auto& param_info) { return param_info.param; });

TEST(SchedEquivalence, ReferenceNamesRoundTripThroughFactory) {
    for (const auto& name : core::reference_scheduler_names()) {
        EXPECT_TRUE(core::is_scheduler_name(name)) << name;
        const auto s = core::make_scheduler(name);
        EXPECT_EQ(s->name(), name);
        // Deliberately not enumerated by sweeps and figure harnesses.
        for (const auto& regular : core::scheduler_names()) {
            EXPECT_NE(regular, name);
        }
    }
}

// The two-stage precalculated path (§4.3) must also match: stage-1
// integrity filtering and the stage-2 LCF pass over the leftovers,
// including multicast fan-outs and deliberately conflicting claims —
// within one word, across word boundaries and on rectangular switches.
class PrecalcEquivalence : public ::testing::TestWithParam<core::RrVariant> {};

const Geometry kPrecalcGeometries[] = {
    {16, 16}, {67, 67}, {256, 256}, {130, 70}, {70, 130}};

// Each entry is claimed with this many claims per port of the larger
// side, divided by that side's count: 0.08 at 16 ports.
constexpr double kClaimsPerPort = 0.08 * 16;

TEST_P(PrecalcEquivalence, PrecalcPathMatchesReference) {
    const core::LcfCentralOptions options{.variant = GetParam()};
    for (const Geometry& g : kPrecalcGeometries) {
        core::LcfCentralScheduler opt(options);
        core::LcfCentralReferenceScheduler ref(options);
        opt.reset(g.inputs, g.outputs);
        ref.reset(g.inputs, g.outputs);
        const double claim_p =
            kClaimsPerPort /
            static_cast<double>(std::max(g.inputs, g.outputs));

        util::Xoshiro256 rng(4242);
        core::MulticastResult r_opt, r_ref;
        for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
            const double density =
                kDensities[cycle % (sizeof(kDensities) / sizeof(double))];
            const sched::RequestMatrix requests =
                random_requests(rng, g, density);
            core::PrecalcSchedule precalc(g.inputs, g.outputs);
            for (std::size_t i = 0; i < g.inputs; ++i) {
                for (std::size_t j = 0; j < g.outputs; ++j) {
                    // Sparse claims; multiple claims per row exercise
                    // multicast, claims on one target from several inputs
                    // exercise the integrity check's drop path.
                    if (rng.next_bool(claim_p)) precalc.claim(i, j);
                }
            }
            opt.schedule_with_precalc(requests, precalc, r_opt);
            ref.schedule_with_precalc(requests, precalc, r_ref);
            const std::string where = "cycle " + std::to_string(cycle) +
                                      " (" + std::to_string(g.inputs) + "x" +
                                      std::to_string(g.outputs) + ")";
            ASSERT_EQ(r_opt.fanout, r_ref.fanout) << where;
            ASSERT_EQ(r_opt.unicast, r_ref.unicast) << where;
            ASSERT_EQ(r_opt.dropped, r_ref.dropped) << where;
            ASSERT_TRUE(r_opt.consistent()) << where;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRrVariants, PrecalcEquivalence,
    ::testing::Values(core::RrVariant::kNone, core::RrVariant::kSingle,
                      core::RrVariant::kInterleaved,
                      core::RrVariant::kDiagonalFirst),
    [](const auto& param_info) {
        switch (param_info.param) {
            case core::RrVariant::kNone: return "none";
            case core::RrVariant::kSingle: return "single";
            case core::RrVariant::kInterleaved: return "interleaved";
            case core::RrVariant::kDiagonalFirst: return "diagonal_first";
        }
        return "unknown";
    });

}  // namespace
}  // namespace lcf
