// Tests for the observability subsystem: structured counters, the
// ring-buffered per-cycle trace, starvation-age tracking, and the
// paranoid invariant checker.

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "obs/counters.hpp"
#include "obs/paranoid_checker.hpp"
#include "obs/sched_observer.hpp"
#include "obs/sched_trace.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::obs {
namespace {

// ---------------------------------------------------------------- counters

TEST(SchedCounters, ObserveCycleAccumulates) {
    SchedCounters c;
    c.observe_cycle(6, 3);
    c.observe_cycle(2, 0);  // a cycle with requests but no grants
    c.observe_cycle(4, 4);
    EXPECT_EQ(c.cycles, 3u);
    EXPECT_EQ(c.requests, 12u);
    EXPECT_EQ(c.grants, 7u);
    EXPECT_EQ(c.empty_cycles, 1u);
    EXPECT_EQ(c.max_matching, 4u);
    EXPECT_DOUBLE_EQ(c.mean_matching(), 7.0 / 3.0);
    EXPECT_DOUBLE_EQ(c.grant_fraction(), 7.0 / 12.0);
}

TEST(SchedCounters, MergeSumsTotalsAndKeepsMaxima) {
    SchedCounters a;
    a.observe_cycle(4, 2);
    a.max_starvation_age = 10;
    a.paranoid_violations = 1;
    SchedCounters b;
    b.observe_cycle(8, 5);
    b.observe_cycle(0, 0);
    b.max_starvation_age = 7;
    a.merge(b);
    EXPECT_EQ(a.cycles, 3u);
    EXPECT_EQ(a.requests, 12u);
    EXPECT_EQ(a.grants, 7u);
    EXPECT_EQ(a.empty_cycles, 1u);
    EXPECT_EQ(a.max_matching, 5u);
    EXPECT_EQ(a.max_starvation_age, 10u);
    EXPECT_EQ(a.paranoid_violations, 1u);
}

TEST(SchedCounters, EmptyCountersHaveZeroRates) {
    const SchedCounters c;
    EXPECT_DOUBLE_EQ(c.mean_matching(), 0.0);
    EXPECT_DOUBLE_EQ(c.grant_fraction(), 0.0);
}

// ---------------------------------------------------------- starvation ages

TEST(StarvationAges, DeniedRequestAgesAndGrantResets) {
    StarvationAges ages(2, 2);
    sched::RequestMatrix r(2);
    r.set(0, 0);
    r.set(1, 0);  // both inputs want output 0; only one wins per cycle

    sched::Matching m;
    m.reset(2, 2);
    m.match(0, 0);
    EXPECT_EQ(ages.observe(r, m), 1u);  // (1,0) denied once
    EXPECT_EQ(ages.age(1, 0), 1u);
    EXPECT_EQ(ages.age(0, 0), 0u);  // granted => reset

    m.reset(2, 2);
    m.match(0, 0);
    EXPECT_EQ(ages.observe(r, m), 2u);
    EXPECT_EQ(ages.age(1, 0), 2u);

    m.reset(2, 2);
    m.match(1, 0);  // finally granted
    ages.observe(r, m);
    EXPECT_EQ(ages.age(1, 0), 0u);
    EXPECT_EQ(ages.age(0, 0), 1u);
    EXPECT_EQ(ages.high_watermark(), 2u);  // survives the reset
}

TEST(StarvationAges, WithdrawnRequestResetsAge) {
    StarvationAges ages(1, 2);
    sched::RequestMatrix r(1, 2);
    r.set(0, 1);
    sched::Matching empty;
    empty.reset(1, 2);
    ages.observe(r, empty);
    ages.observe(r, empty);
    EXPECT_EQ(ages.age(0, 1), 2u);
    r.clear();  // the VOQ drained: no request this cycle
    ages.observe(r, empty);
    EXPECT_EQ(ages.age(0, 1), 0u);
    EXPECT_EQ(ages.max_age(), 0u);
    EXPECT_EQ(ages.high_watermark(), 2u);
}

// ----------------------------------------------------------------- trace

sched::Matching single_match(std::size_t n, std::size_t i, std::size_t j) {
    sched::Matching m;
    m.reset(n, n);
    m.match(i, j);
    return m;
}

TEST(SchedTrace, RingKeepsMostRecentCycles) {
    SchedTrace trace(4, 4, 3);
    sched::RequestMatrix r(4);
    r.set(0, 0);
    for (std::uint64_t c = 0; c < 10; ++c) {
        trace.record(c, r, single_match(4, 0, 0));
    }
    EXPECT_EQ(trace.capacity(), 3u);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.recorded(), 10u);
    // Oldest-first iteration over the retained window: cycles 7, 8, 9.
    EXPECT_EQ(trace.at(0).cycle, 7u);
    EXPECT_EQ(trace.at(1).cycle, 8u);
    EXPECT_EQ(trace.at(2).cycle, 9u);
    // Cumulative counters cover the whole run, not just the window.
    EXPECT_EQ(trace.grants_at(0, 0), 10u);
}

TEST(SchedTrace, RecordsRequestAndGrantShape) {
    SchedTrace trace(4, 4, 8);
    sched::RequestMatrix r(4);
    r.set(1, 2);
    r.set(3, 0);
    sched::Matching m;
    m.reset(4, 4);
    m.match(1, 2);
    trace.record(0, r, m);
    const TraceRecord& rec = trace.at(0);
    EXPECT_EQ(rec.requests, 2u);
    EXPECT_EQ(rec.granted, 1u);
    ASSERT_EQ(rec.grant_of_output.size(), 4u);
    EXPECT_EQ(rec.grant_of_output[2], 1);
    EXPECT_EQ(rec.grant_of_output[0], sched::kUnmatched);
    EXPECT_EQ(rec.max_age, 1u);  // (3,0) requested and denied
}

TEST(SchedTrace, CsvExportHasHeaderAndOneRowPerCycle) {
    SchedTrace trace(2, 2, 4);
    sched::RequestMatrix r(2);
    r.set(0, 1);
    trace.record(0, r, single_match(2, 0, 1));
    trace.record(1, r, single_match(2, 0, 1));
    std::ostringstream out;
    trace.export_csv(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("cycle,requests,granted,max_starvation_age,matching"),
              std::string::npos);
    EXPECT_NE(text.find("0->1"), std::string::npos);
    // Header + 2 records = 3 newline-terminated lines.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(SchedTrace, JsonlExportOneObjectPerCycle) {
    SchedTrace trace(2, 2, 4);
    sched::RequestMatrix r(2);
    r.set(1, 0);
    trace.record(7, r, single_match(2, 1, 0));
    std::ostringstream out;
    trace.export_jsonl(out);
    const std::string text = out.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    EXPECT_NE(text.find("\"cycle\":7"), std::string::npos);
    EXPECT_NE(text.find("\"grants\":[[1,0]]"), std::string::npos);
}

TEST(SchedTrace, ResetForgetsEverything) {
    SchedTrace trace(2, 2, 4);
    sched::RequestMatrix r(2);
    r.set(0, 0);
    trace.record(0, r, single_match(2, 0, 0));
    trace.reset(3, 3);
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.recorded(), 0u);
    EXPECT_EQ(trace.ages().high_watermark(), 0u);
    EXPECT_EQ(trace.inputs(), 3u);
}

// ----------------------------------------------------------- paranoid checker

TEST(ParanoidChecker, CleanCyclePasses) {
    ParanoidChecker checker;
    checker.reset(4, 4);
    const auto r = sched::make_requests(4, {{0, 1}, {2, 3}});
    sched::Matching m;
    m.reset(4, 4);
    m.match(0, 1);
    m.match(2, 3);
    EXPECT_EQ(checker.check_cycle(r, m), 0u);
    EXPECT_EQ(checker.cycles_checked(), 1u);
    EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(ParanoidChecker, UnbackedGrantThrows) {
    ParanoidChecker checker;
    checker.reset(4, 4);
    const auto r = sched::make_requests(4, {{0, 1}});
    sched::Matching m;
    m.reset(4, 4);
    m.match(0, 2);  // grants a position that never requested
    EXPECT_THROW(checker.check_cycle(r, m), std::logic_error);
}

TEST(ParanoidChecker, GeometryMismatchThrows) {
    ParanoidChecker checker;
    checker.reset(4, 4);
    const auto r = sched::make_requests(4, {{0, 1}});
    sched::Matching m;
    m.reset(3, 3);
    EXPECT_THROW(checker.check_cycle(r, m), std::logic_error);
}

TEST(ParanoidChecker, RecordingModeCountsInsteadOfThrowing) {
    ParanoidChecker checker(ParanoidOptions{.throw_on_violation = false});
    checker.reset(4, 4);
    const auto r = sched::make_requests(4, {{0, 1}});
    sched::Matching m;
    m.reset(4, 4);
    m.match(0, 2);
    EXPECT_GE(checker.check_cycle(r, m), 1u);
    EXPECT_GE(checker.violation_count(), 1u);
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_NE(checker.violations().front().find("paranoid"),
              std::string::npos);
}

TEST(ParanoidChecker, FairnessWindowViolationFires) {
    ParanoidChecker checker(
        ParanoidOptions{.throw_on_violation = false,
                        .check_diagonal_fairness = true});
    checker.reset(1, 3);  // window n_in * n_out = 3
    sched::RequestMatrix r(1, 3);
    r.set(0, 0);
    sched::Matching empty;
    empty.reset(1, 3);
    for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(checker.check_cycle(r, empty), 0u) << "cycle " << c;
    }
    // Fourth consecutive denial: age 4 > window 3.
    EXPECT_EQ(checker.check_cycle(r, empty), 1u);
    EXPECT_EQ(checker.max_starvation_age(), 4u);
}

TEST(ParanoidChecker, FairnessWindowDefaultsToPortsSquared) {
    ParanoidChecker checker(
        ParanoidOptions{.check_diagonal_fairness = true});
    checker.reset(4, 4);
    sched::RequestMatrix r(4);
    r.set(0, 0);
    sched::Matching empty;
    empty.reset(4, 4);
    for (int c = 0; c < 16; ++c) checker.check_cycle(r, empty);  // age 16 = n²
    EXPECT_THROW(checker.check_cycle(r, empty), std::logic_error);
}

TEST(ParanoidChecker, IterationBudgetEnforced) {
    ParanoidChecker checker(ParanoidOptions{.throw_on_violation = false,
                                            .iteration_budget = 4});
    checker.reset(4, 4);
    EXPECT_EQ(checker.check_iterations(4), 0u);
    EXPECT_EQ(checker.check_iterations(5), 1u);
    EXPECT_EQ(checker.violation_count(), 1u);
}

TEST(ParanoidChecker, IterationCheckDisabledWithZeroBudget) {
    ParanoidChecker checker;  // default budget 0
    checker.reset(4, 4);
    EXPECT_EQ(checker.check_iterations(1000), 0u);
}

TEST(ParanoidChecker, OptionsForKnowsSchedulerFamilies) {
    const auto rr = ParanoidChecker::options_for("lcf_central_rr", 0);
    EXPECT_TRUE(rr.check_diagonal_fairness);
    EXPECT_EQ(rr.iteration_budget, 0u);

    const auto plain = ParanoidChecker::options_for("lcf_central", 0);
    EXPECT_FALSE(plain.check_diagonal_fairness);

    const auto pim = ParanoidChecker::options_for("pim", 4);
    EXPECT_FALSE(pim.check_diagonal_fairness);
    EXPECT_EQ(pim.iteration_budget, 4u);

    const auto dist = ParanoidChecker::options_for("lcf_dist_rr", 2);
    EXPECT_EQ(dist.iteration_budget, 2u);
}

TEST(ParanoidChecker, RectangularGeometryIsSupported) {
    ParanoidChecker checker;
    checker.reset(2, 4);
    sched::RequestMatrix r(2, 4);
    r.set(0, 3);
    r.set(1, 0);
    sched::Matching m;
    m.reset(2, 4);
    m.match(0, 3);
    m.match(1, 0);
    EXPECT_EQ(checker.check_cycle(r, m), 0u);
}

// ---------------------------------------------------------------- observer

TEST(SchedObserver, OffByDefaultCountsCyclesAndStalls) {
    SchedObserver obs(4, 4, 0, std::nullopt);
    EXPECT_FALSE(obs.trace().has_value());
    EXPECT_FALSE(obs.checker().has_value());
    const auto r = sched::make_requests(4, {{0, 1}, {0, 2}, {3, 3}});
    EXPECT_EQ(obs.observe(r, single_match(4, 0, 1), 1), 3u);
    obs.stall();
    const SchedCounters c = obs.counters();
    EXPECT_EQ(c.cycles, 1u);
    EXPECT_EQ(c.requests, 3u);
    EXPECT_EQ(c.grants, 1u);
    EXPECT_EQ(c.stalled_cycles, 1u);
    EXPECT_EQ(c.max_starvation_age, 0u);  // nobody tracks ages
}

TEST(SchedObserver, FoldsTraceAndCheckerIntoCounters) {
    SchedObserver obs(4, 4, 8,
                      ParanoidOptions{.throw_on_violation = false,
                                      .iteration_budget = 2});
    ASSERT_TRUE(obs.trace().has_value());
    ASSERT_TRUE(obs.checker().has_value());
    const auto r = sched::make_requests(4, {{0, 0}, {1, 0}});
    for (std::uint64_t c = 0; c < 5; ++c) {
        obs.observe(r, single_match(4, 0, 0), 1);  // input 1 starves
    }
    obs.observe(r, single_match(4, 2, 3), 3);  // unbacked, over budget
    const SchedCounters c = obs.counters();
    EXPECT_EQ(c.cycles, 6u);
    EXPECT_EQ(obs.trace()->recorded(), 6u);
    EXPECT_EQ(obs.trace()->at(5).cycle, 5u);
    EXPECT_EQ(c.max_starvation_age, 6u);
    EXPECT_EQ(c.paranoid_violations, obs.checker()->violation_count());
    EXPECT_GE(c.paranoid_violations, 2u);
}

TEST(SchedObserver, ThrowingCheckerStopsObserve) {
    SchedObserver obs(4, 4, 0, ParanoidOptions{});
    const auto r = sched::make_requests(4, {{0, 1}});
    EXPECT_THROW(obs.observe(r, single_match(4, 0, 2), 1), std::logic_error);
}

}  // namespace
}  // namespace lcf::obs
