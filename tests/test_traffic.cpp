// Tests for the traffic generators: load calibration, destination
// distributions, determinism, burst structure, trace replay, parameter
// validation, and the agreement of the batch and per-input entry points.

#include "traffic/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "traffic/bernoulli.hpp"
#include "traffic/bursty.hpp"
#include "traffic/diagonal.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/pareto.hpp"
#include "traffic/permutation.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_io.hpp"
#include "util/rng.hpp"

namespace lcf::traffic {
namespace {

constexpr std::size_t kPorts = 16;
constexpr std::uint64_t kSlots = 50000;

/// Measured arrival rate of one generator at one input.
double measure_load(TrafficGenerator& gen, std::size_t input) {
    std::uint64_t arrivals = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        if (gen.arrival(input, t) != kNoArrival) ++arrivals;
    }
    return static_cast<double>(arrivals) / static_cast<double>(kSlots);
}

TEST(Bernoulli, LoadIsCalibrated) {
    BernoulliUniform gen(0.6);
    gen.reset(kPorts, kPorts, 1);
    EXPECT_NEAR(measure_load(gen, 0), 0.6, 0.02);
}

TEST(Bernoulli, ZeroAndFullLoad) {
    BernoulliUniform none(0.0);
    none.reset(kPorts, kPorts, 1);
    EXPECT_EQ(measure_load(none, 0), 0.0);
    BernoulliUniform full(1.0);
    full.reset(kPorts, kPorts, 1);
    EXPECT_EQ(measure_load(full, 0), 1.0);
}

TEST(Bernoulli, DestinationsAreUniform) {
    BernoulliUniform gen(1.0);
    gen.reset(kPorts, kPorts, 3);
    std::vector<std::uint64_t> counts(kPorts, 0);
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(2, t);
        ASSERT_NE(d, kNoArrival);
        ++counts[static_cast<std::size_t>(d)];
    }
    const double expected = static_cast<double>(kSlots) / kPorts;
    for (const auto c : counts) {
        EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.15);
    }
}

TEST(Bernoulli, DeterministicPerSeed) {
    BernoulliUniform a(0.5), b(0.5);
    a.reset(4, 4, 9);
    b.reset(4, 4, 9);
    for (std::uint64_t t = 0; t < 1000; ++t) {
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(a.arrival(i, t), b.arrival(i, t));
        }
    }
}

TEST(Bernoulli, InputStreamsAreIndependent) {
    BernoulliUniform gen(0.5);
    gen.reset(2, 16, 5);
    int same = 0, total = 0;
    for (std::uint64_t t = 0; t < 2000; ++t) {
        const auto a = gen.arrival(0, t);
        const auto b = gen.arrival(1, t);
        if (a != kNoArrival && b != kNoArrival) {
            ++total;
            if (a == b) ++same;
        }
    }
    ASSERT_GT(total, 100);
    EXPECT_LT(static_cast<double>(same) / total, 0.2);  // ~1/16 expected
}

TEST(Bernoulli, RejectsInvalidLoad) {
    EXPECT_THROW(BernoulliUniform(-0.1), std::invalid_argument);
    EXPECT_THROW(BernoulliUniform(1.1), std::invalid_argument);
}

TEST(Bursty, LoadIsCalibrated) {
    BurstyTraffic gen(0.4, 8.0);
    gen.reset(kPorts, kPorts, 2);
    EXPECT_NEAR(measure_load(gen, 0), 0.4, 0.05);
}

TEST(Bursty, BurstsShareOneDestination) {
    BurstyTraffic gen(0.5, 32.0);
    gen.reset(1, kPorts, 11);
    // Consecutive arrivals (no idle slot between them) belong to one
    // burst and must have equal destinations.
    std::int32_t prev = kNoArrival;
    std::uint64_t same_dst_runs = 0, switches_inside_run = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(0, t);
        if (d != kNoArrival && prev != kNoArrival) {
            if (d == prev) {
                ++same_dst_runs;
            } else {
                ++switches_inside_run;
            }
        }
        prev = d;
    }
    // Long bursts: destination changes between consecutive busy slots
    // happen only at (rare) burst boundaries.
    EXPECT_GT(same_dst_runs, 10 * switches_inside_run);
}

TEST(Bursty, MeanBurstLengthApproximatesParameter) {
    constexpr double kMeanBurst = 10.0;
    BurstyTraffic gen(0.5, kMeanBurst);
    gen.reset(1, kPorts, 13);
    std::uint64_t bursts = 0, busy = 0;
    bool in_burst = false;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const bool arrival = gen.arrival(0, t) != kNoArrival;
        if (arrival) {
            ++busy;
            if (!in_burst) ++bursts;
        }
        in_burst = arrival;
    }
    ASSERT_GT(bursts, 100u);
    EXPECT_NEAR(static_cast<double>(busy) / static_cast<double>(bursts),
                kMeanBurst, 2.0);
}

TEST(Bursty, RejectsInvalidParameters) {
    EXPECT_THROW(BurstyTraffic(0.5, 0.5), std::invalid_argument);
    EXPECT_THROW(BurstyTraffic(1.5, 8.0), std::invalid_argument);
}

TEST(Hotspot, HotPortReceivesConfiguredFraction) {
    HotspotTraffic gen(1.0, 0.5, 3);
    gen.reset(kPorts, kPorts, 4);
    std::uint64_t hot = 0, total = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(0, t);
        ASSERT_NE(d, kNoArrival);
        ++total;
        if (d == 3) ++hot;
    }
    // hot fraction + uniform share of the remainder: 0.5 + 0.5/16.
    EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total),
                0.5 + 0.5 / kPorts, 0.02);
}

TEST(Hotspot, RejectsOutOfRangeHotPort) {
    HotspotTraffic gen(0.5, 0.3, 99);
    EXPECT_THROW(gen.reset(4, 4, 1), std::invalid_argument);
}

TEST(Diagonal, OnlyTwoDestinationsPerInput) {
    DiagonalTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 6);
    std::uint64_t to_self = 0, to_next = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(5, t);
        ASSERT_TRUE(d == 5 || d == 6) << d;
        (d == 5 ? to_self : to_next) += 1;
    }
    EXPECT_NEAR(static_cast<double>(to_self) /
                    static_cast<double>(to_self + to_next),
                2.0 / 3.0, 0.02);
}

TEST(Diagonal, WrapsAtLastInput) {
    DiagonalTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 6);
    for (std::uint64_t t = 0; t < 100; ++t) {
        const auto d = gen.arrival(kPorts - 1, t);
        ASSERT_TRUE(d == static_cast<std::int32_t>(kPorts - 1) || d == 0);
    }
}

TEST(Permutation, DestinationsAreFixedAndDistinct) {
    PermutationTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 8);
    std::vector<bool> used(kPorts, false);
    for (std::size_t i = 0; i < kPorts; ++i) {
        const std::size_t d = gen.destination_of(i);
        EXPECT_FALSE(used[d]);
        used[d] = true;
        for (std::uint64_t t = 0; t < 100; ++t) {
            const auto a = gen.arrival(i, t);
            if (a != kNoArrival) {
                EXPECT_EQ(static_cast<std::size_t>(a), d);
            }
        }
    }
}

TEST(Trace, ReplaysExactly) {
    TraceTraffic gen({{0, 0, 3}, {0, 1, 2}, {5, 0, 1}});
    gen.reset(4, 4, 0);
    EXPECT_EQ(gen.arrival(0, 0), 3);
    EXPECT_EQ(gen.arrival(1, 0), 2);
    EXPECT_EQ(gen.arrival(2, 0), kNoArrival);
    EXPECT_EQ(gen.arrival(0, 3), kNoArrival);
    EXPECT_EQ(gen.arrival(0, 5), 1);
}

TEST(Trace, RejectsDuplicatesAndRangeErrors) {
    EXPECT_THROW(TraceTraffic({{0, 0, 1}, {0, 0, 2}}), std::invalid_argument);
    TraceTraffic bad_input({{0, 9, 1}});
    EXPECT_THROW(bad_input.reset(4, 4, 0), std::invalid_argument);
    TraceTraffic bad_dst({{0, 0, 9}});
    EXPECT_THROW(bad_dst.reset(4, 4, 0), std::invalid_argument);
}

TEST(Generators, RejectEmptyGeometry) {
    // Regression: reset(n, 0, seed) used to be accepted, and the first
    // arrival() then drew a destination below 0 — division by zero
    // inside the RNG's rejection sampler.
    for (const auto* name :
         {"uniform", "bursty", "pareto", "hotspot", "diagonal",
          "permutation"}) {
        auto gen = make_traffic(name, 0.5);
        EXPECT_THROW(gen->reset(4, 0, 1), std::invalid_argument) << name;
        EXPECT_THROW(gen->reset(0, 4, 1), std::invalid_argument) << name;
        gen->reset(4, 4, 1);  // sane geometry still accepted afterwards
    }
}

TEST(Generators, RejectNanLoad) {
    // Regression: `load < 0 || load > 1` let NaN through; the generator
    // then produced nothing and reported NaN as its offered load.
    for (const auto& name : traffic_names()) {
        try {
            make_traffic(name, std::nan(""));
            ADD_FAILURE() << name << " accepted a NaN load";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("load"), std::string::npos)
                << name << ": " << e.what();
        }
    }
}

TEST(Generators, RejectNanShapeParameters) {
    const double nan = std::nan("");
    EXPECT_THROW(BurstyTraffic(0.5, nan), std::invalid_argument);
    EXPECT_THROW(ParetoBurstTraffic(0.5, nan), std::invalid_argument);
    EXPECT_THROW(ParetoBurstTraffic(0.5, 1.5, nan), std::invalid_argument);
    EXPECT_THROW(HotspotTraffic(0.5, nan), std::invalid_argument);
}

constexpr std::size_t kEntryPorts[] = {1, 5, 16};
constexpr std::uint64_t kEntrySlots = 2000;

// Resets `batched` and `scalar` alike, then expects arrivals(slot, out)
// on the first to equal arrival(i, slot) for ascending i on the second,
// slot by slot. Returns the number of arrivals seen.
std::uint64_t expect_entry_points_agree(TrafficGenerator& batched,
                                        TrafficGenerator& scalar,
                                        std::size_t n) {
    batched.reset(n, n, 11);
    scalar.reset(n, n, 11);
    std::vector<std::int32_t> out(n);
    std::uint64_t arrivals = 0;
    for (std::uint64_t t = 0; t < kEntrySlots; ++t) {
        batched.arrivals(t, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t expected = scalar.arrival(i, t);
            if (out[i] != expected) {
                ADD_FAILURE() << batched.name() << " n=" << n << " slot " << t
                              << " input " << i << ": arrivals() gave "
                              << out[i] << ", arrival() gave " << expected;
                return arrivals;
            }
            if (expected != kNoArrival) ++arrivals;
        }
    }
    return arrivals;
}

TEST(EntryPoints, BatchEqualsPerInputDrawsForEveryGenerator) {
    for (const std::size_t n : kEntryPorts) {
        for (const auto& name : traffic_names()) {
            auto batched = make_traffic(name, 0.6);
            auto scalar = make_traffic(name, 0.6);
            EXPECT_GT(expect_entry_points_agree(*batched, *scalar, n), 0u)
                << name << " n=" << n;
        }
    }
}

TEST(EntryPoints, BatchEqualsPerInputForTraceReplay) {
    for (const std::size_t n : kEntryPorts) {
        util::Xoshiro256 rng(n);
        std::vector<TraceEntry> entries;
        for (std::uint64_t t = 0; t < kEntrySlots; ++t) {
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.next_bool(0.5)) {
                    entries.push_back({t, i, rng.next_below(n)});
                }
            }
        }
        TraceTraffic batched(entries);
        TraceTraffic scalar(entries);
        EXPECT_EQ(expect_entry_points_agree(batched, scalar, n),
                  entries.size())
            << "n=" << n;
    }
}

TEST(EntryPoints, BatchEqualsPerInputAndIsRecordedWhenRecording) {
    for (const std::size_t n : kEntryPorts) {
        RecordingTraffic batched(make_traffic("uniform", 0.6));
        RecordingTraffic scalar(make_traffic("uniform", 0.6));
        const std::uint64_t arrivals =
            expect_entry_points_agree(batched, scalar, n);
        // The batched calls are recorded, entry for entry.
        const auto& got = batched.entries();
        const auto& want = scalar.entries();
        ASSERT_EQ(got.size(), arrivals) << "n=" << n;
        ASSERT_EQ(want.size(), arrivals) << "n=" << n;
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].slot, want[k].slot) << "n=" << n << " entry " << k;
            EXPECT_EQ(got[k].input, want[k].input) << "n=" << n << " entry " << k;
            EXPECT_EQ(got[k].destination, want[k].destination)
                << "n=" << n << " entry " << k;
        }
    }
}

TEST(Factory, UnknownNameListsValidNames) {
    try {
        make_traffic("nope", 0.5);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("nope"), std::string::npos);
        for (const auto& name : traffic_names()) {
            EXPECT_NE(message.find(name), std::string::npos) << name;
        }
    }
}

TEST(Factory, TrafficNamesRoundTrip) {
    for (const auto& name : traffic_names()) {
        EXPECT_TRUE(is_traffic_name(name)) << name;
        EXPECT_NE(make_traffic(name, 0.5), nullptr) << name;
    }
    EXPECT_FALSE(is_traffic_name("nope"));
    EXPECT_FALSE(is_traffic_name(""));
}

TEST(Factory, MakesEveryKnownPattern) {
    for (const auto* name :
         {"uniform", "bursty", "hotspot", "diagonal", "permutation"}) {
        auto gen = make_traffic(name, 0.5);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_EQ(gen->name(), name);
        EXPECT_DOUBLE_EQ(gen->offered_load(), 0.5);
    }
    EXPECT_THROW(make_traffic("nope", 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace lcf::traffic
