// Tests for the deterministic fault-injection layer: plan validation,
// injector semantics (link down, loss, truncation, bit-error epoch
// composition, crash/restart tracking, determinism), the SeqTracker the
// recovery paths dedupe with, fault behavior of the bulk/quick channels
// and the switch simulator — and golden-equivalence pins proving that an
// empty plan leaves every simulation bit-identical to the pre-fault-layer
// build.

#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "clint/bulk_channel.hpp"
#include "clint/clint_sim.hpp"
#include "clint/quick_channel.hpp"
#include "clint/seq_tracker.hpp"
#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

// The std::invalid_argument message `f` throws ("" when it does not).
std::string invalid_argument_message(const std::function<void()>& f) {
    try {
        f();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

// A plan naming host 20 (crash) or link index 9 on a smaller channel.
fault::FaultPlan crash_out_of_range() {
    return fault::FaultPlan{}.add_host_crash(20, 50, 60);
}
fault::FaultPlan link_out_of_range() {
    return fault::FaultPlan{}.add_link_down({fault::LinkKind::kData, 9}, 0, 10);
}

}  // namespace
}  // namespace lcf

namespace lcf::fault {
namespace {

TEST(FaultPlan, EmptyPlanIsEmpty) {
    FaultPlan plan;
    EXPECT_TRUE(plan.bit_error_epochs.empty() &&
                plan.packet_loss_epochs.empty() &&
                plan.link_down_intervals.empty() &&
                plan.host_crashes.empty() && plan.scheduler_stalls.empty());
    EXPECT_NO_THROW(plan.validate());
    plan.add_scheduler_stall(10, 20);
    EXPECT_EQ(plan.scheduler_stalls.size(), 1u);
}

TEST(FaultPlan, ValidateRejectsMalformedEntries) {
    {
        FaultPlan p;
        p.add_bit_error_epoch({LinkKind::kData, kAllLinks}, 0, 100, 1.5);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_packet_loss({LinkKind::kAck, 2}, 0, 100, -0.1);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_link_down({LinkKind::kUplink, 0}, 50, 10);  // end < begin
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_host_crash(3, 100, 50);  // restart before crash
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_scheduler_stall(5, 5)
            .add_bit_error_epoch({LinkKind::kData, 1}, 0, kForever, 0.01)
            .add_packet_loss({LinkKind::kData, kAllLinks}, 0, 10, 0.5, 0.5);
        EXPECT_NO_THROW(p.validate());
    }
    EXPECT_THROW(FaultInjector(FaultPlan{}.add_host_crash(0, 9, 3)),
                 std::invalid_argument);
}

TEST(FaultInjector, LinkDownAbsorbsOnlySelectedLinkAndInterval) {
    FaultPlan plan;
    plan.add_link_down({LinkKind::kUplink, 1}, 10, 20);
    FaultInjector inj(plan);
    inj.reset(4);
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 1, 9));
    EXPECT_FALSE(inj.link_up(LinkKind::kUplink, 1, 10));
    EXPECT_FALSE(inj.link_up(LinkKind::kUplink, 1, 19));
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 1, 20));  // half-open
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 0, 15));  // other index
    EXPECT_TRUE(inj.link_up(LinkKind::kDownlink, 1, 15));  // other kind

    std::vector<std::uint8_t> wire{1, 2, 3};
    EXPECT_FALSE(inj.transmit(LinkKind::kUplink, 1, 15, wire).has_value());
    EXPECT_EQ(inj.counters().packets_dropped, 1u);
    EXPECT_EQ(inj.transmit(LinkKind::kUplink, 1, 25, wire),
              std::optional<std::size_t>{3});
    EXPECT_EQ(wire, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(FaultInjector, CertainLossAbsorbsEveryPacket) {
    FaultPlan plan;
    plan.add_packet_loss({LinkKind::kData, kAllLinks}, 0, kForever, 1.0);
    FaultInjector inj(plan);
    inj.reset(2);
    std::vector<std::uint8_t> wire{0xAB};
    for (std::uint64_t s = 0; s < 50; ++s) {
        EXPECT_FALSE(
            inj.transmit(LinkKind::kData, s % 2, s, wire).has_value());
        EXPECT_TRUE(inj.packet_lost(LinkKind::kData, s % 2, s));
    }
    EXPECT_EQ(inj.counters().packets_dropped, 100u);
}

TEST(FaultInjector, CertainTruncationShortensStrictly) {
    FaultPlan plan;
    plan.add_packet_loss({LinkKind::kDownlink, kAllLinks}, 0, kForever, 0.0,
                         1.0);
    FaultInjector inj(plan);
    inj.reset(1);
    for (int i = 0; i < 64; ++i) {
        std::vector<std::uint8_t> wire(11, 0xFF);
        const auto length = inj.transmit(LinkKind::kDownlink, 0, 5, wire);
        ASSERT_TRUE(length.has_value());
        EXPECT_LT(*length, 11u);  // strictly shorter, possibly empty
    }
    EXPECT_EQ(inj.counters().packets_truncated, 64u);
}

TEST(FaultInjector, OverlappingBitErrorEpochsCompose) {
    FaultPlan plan;
    plan.add_bit_error_epoch({LinkKind::kAck, 0}, 0, 100, 0.5)
        .add_bit_error_epoch({LinkKind::kAck, 0}, 50, 100, 0.5);
    FaultInjector inj(plan);
    inj.reset(1);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 10), 0.5);
    // Independent epochs: 1 - (1-0.5)(1-0.5).
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 75), 0.75);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 100), 0.0);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kData, 0, 10), 0.0);
}

TEST(FaultInjector, EpochBitErrorsFlipWireBits) {
    FaultPlan plan;
    plan.add_bit_error_epoch({LinkKind::kData, 0}, 0, kForever, 1.0);
    FaultInjector inj(plan);
    inj.reset(1);
    std::vector<std::uint8_t> wire{0x0F, 0xF0};
    EXPECT_EQ(inj.transmit(LinkKind::kData, 0, 0, wire),
              std::optional<std::size_t>{2});
    EXPECT_EQ(wire, (std::vector<std::uint8_t>{0xF0, 0x0F}));
    EXPECT_EQ(inj.counters().bits_flipped, 16u);
    EXPECT_EQ(inj.counters().packets_corrupted, 1u);
}

TEST(FaultInjector, CrashRestartAndStallTracking) {
    FaultPlan plan;
    plan.add_host_crash(2, 10, 30).add_host_crash(3, 20);  // 3 never restarts
    plan.add_scheduler_stall(5, 8);
    FaultInjector inj(plan);
    inj.reset(4);
    EXPECT_TRUE(inj.scheduler_stalled(5));
    EXPECT_TRUE(inj.scheduler_stalled(7));
    EXPECT_FALSE(inj.scheduler_stalled(8));
    for (std::uint64_t s = 0; s < 40; ++s) {
        inj.begin_slot(s);
        EXPECT_EQ(inj.down_hosts().test(2), s >= 10 && s < 30) << s;
        EXPECT_EQ(inj.down_hosts().test(3), s >= 20) << s;
    }
    EXPECT_EQ(inj.counters().crashes, 2u);
    EXPECT_EQ(inj.counters().restarts, 1u);
    EXPECT_EQ(inj.counters().stalled_slots, 3u);
}

TEST(FaultInjector, DownSetAndCrashTransitionsPerSlot) {
    FaultPlan plan;
    plan.add_host_crash(1, 3, 5).add_host_crash(2, 4, 6);
    FaultInjector inj(plan);
    inj.reset(4);
    for (std::uint64_t s = 0; s < 3; ++s) inj.begin_slot(s);
    EXPECT_TRUE(inj.down_hosts().none());
    inj.begin_slot(3);
    EXPECT_EQ(inj.down_hosts().to_string(), "0100");
    EXPECT_EQ(inj.crashed().to_string(), "0100");
    inj.begin_slot(4);
    EXPECT_EQ(inj.down_hosts().to_string(), "0110");
    EXPECT_EQ(inj.crashed().to_string(), "0010");  // host 1 was down already
    inj.begin_slot(5);
    EXPECT_EQ(inj.down_hosts().to_string(), "0010");
    EXPECT_TRUE(inj.crashed().none());
    EXPECT_EQ(inj.counters().crashes, 2u);
    EXPECT_EQ(inj.counters().restarts, 1u);
}

TEST(FaultInjector, CountsHostTransitionsNotPlanEntries) {
    // Host 1's interval is empty (it never goes down); host 2's two
    // intervals overlap into one outage [200, 500): one crash and one
    // restart in all, where counting plan entries said 3 and 3.
    FaultPlan plan;
    plan.add_host_crash(1, 100, 100)
        .add_host_crash(2, 200, 400)
        .add_host_crash(2, 300, 500);
    FaultInjector inj(plan);
    inj.reset(8);
    for (std::uint64_t s = 0; s < 600; ++s) inj.begin_slot(s);
    EXPECT_EQ(inj.counters().crashes, 1u);
    EXPECT_EQ(inj.counters().restarts, 1u);
}

TEST(FaultInjector, ResetRejectsHostsAndLinksOutOfRange) {
    FaultInjector crash(crash_out_of_range());
    EXPECT_EQ(invalid_argument_message([&] { crash.reset(8); }),
              "host_crash.host 20 out of range for 8 hosts");
    EXPECT_NO_THROW(crash.reset(21));
    FaultInjector link(link_out_of_range());
    EXPECT_EQ(invalid_argument_message([&] { link.reset(8); }),
              "link_down_interval.link.index 9 out of range for 8 hosts");
    EXPECT_NO_THROW(link.reset(10));
    FaultPlan bad;
    bad.add_bit_error_epoch({LinkKind::kAck, 4}, 0, 10, 0.1)
        .add_packet_loss({LinkKind::kData, -3}, 0, 10, 0.1);
    FaultInjector epoch(bad);
    EXPECT_EQ(invalid_argument_message([&] { epoch.reset(4); }),
              "bit_error_epoch.link.index 4 out of range for 4 hosts");
    EXPECT_EQ(invalid_argument_message([&] { epoch.reset(5); }),
              "packet_loss_epoch.link.index -3 out of range for 5 hosts");
}

TEST(FaultInjector, CorruptionProbabilityComposesEpochsOverBase) {
    EXPECT_DOUBLE_EQ(corruption_probability(0.0, 64), 0.0);
    EXPECT_DOUBLE_EQ(corruption_probability(1e-3, 64),
                     1.0 - std::pow(1.0 - 1e-3, 64.0));
    const double base = corruption_probability(1e-4, 100);
    FaultInjector none{FaultPlan{}};
    none.reset(2);
    none.begin_slot(5);
    EXPECT_DOUBLE_EQ(
        none.corruption_probability(base, LinkKind::kData, 0, 5, 100), base);
    FaultInjector inj(
        FaultPlan{}.add_bit_error_epoch({LinkKind::kData, 1}, 10, 20, 0.01));
    inj.reset(2);
    EXPECT_DOUBLE_EQ(
        inj.corruption_probability(base, LinkKind::kData, 1, 9, 100), base);
    EXPECT_DOUBLE_EQ(
        inj.corruption_probability(base, LinkKind::kData, 0, 15, 100), base);
    EXPECT_DOUBLE_EQ(
        inj.corruption_probability(base, LinkKind::kData, 1, 15, 100),
        1.0 - (1.0 - base) * std::pow(0.99, 100.0));
}

TEST(FaultInjector, EmptyPlanIsQuietEverySlot) {
    constexpr std::size_t kHosts = 8;
    FaultInjector inj{FaultPlan{}};
    inj.reset(kHosts);
    const double base = corruption_probability(1e-4, 100);
    const std::vector<std::uint8_t> sent{0x12, 0x34, 0x56};
    for (std::uint64_t s = 0; s < 300; ++s) {
        inj.begin_slot(s);
        ASSERT_TRUE(inj.quiet(s)) << "slot " << s;
        for (std::size_t k = 0; k < kLinkKinds; ++k) {
            const auto kind = static_cast<LinkKind>(k);
            const std::size_t index = s % kHosts;
            std::vector<std::uint8_t> wire = sent;
            EXPECT_EQ(inj.transmit(kind, index, s, wire),
                      std::optional<std::size_t>{sent.size()});
            EXPECT_EQ(wire, sent);
            EXPECT_FALSE(inj.absorbs(kind, index, (s + 3) % kHosts, s));
            EXPECT_EQ(inj.corruption_probability(base, kind, index, s, 100),
                      base);
        }
        EXPECT_TRUE(inj.down_hosts().none()) << "slot " << s;
    }
    EXPECT_EQ(inj.counters(), FaultCounters{});
}

TEST(FaultInjector, RejectsMoreHostsThanStreamsPerKind) {
    // Link (kind, index) draws from stream kind * 4096 + index, so past
    // 4096 hosts uplink 4096 and downlink 0 would share one stream.
    FaultInjector link(
        FaultPlan{}.add_packet_loss({LinkKind::kData, 0}, 0, 10, 0.5));
    EXPECT_EQ(invalid_argument_message([&] { link.reset(4097); }),
              "hosts 4097 exceeds the 4096 fault RNG streams per link kind");
    EXPECT_NO_THROW(link.reset(4096));
    // Without link entries nothing draws and no stream is derived.
    FaultInjector crash(FaultPlan{}.add_host_crash(0, 5, 10));
    EXPECT_NO_THROW(crash.reset(4097));
    FaultInjector none{FaultPlan{}};
    EXPECT_NO_THROW(none.reset(4097));
}

TEST(FaultInjector, SamePlanReplaysIdentically) {
    FaultPlan plan;
    plan.seed = 99;
    plan.add_packet_loss({LinkKind::kData, kAllLinks}, 0, kForever, 0.3, 0.3)
        .add_bit_error_epoch({LinkKind::kData, kAllLinks}, 0, kForever, 0.01);
    FaultInjector a(plan);
    FaultInjector b(plan);
    a.reset(4);
    b.reset(4);
    for (std::uint64_t s = 0; s < 500; ++s) {
        std::vector<std::uint8_t> wa(32, 0x5A);
        std::vector<std::uint8_t> wb(32, 0x5A);
        const auto ra = a.transmit(LinkKind::kData, s % 4, s, wa);
        const auto rb = b.transmit(LinkKind::kData, s % 4, s, wb);
        ASSERT_EQ(ra, rb) << "slot " << s;
        ASSERT_EQ(wa, wb) << "slot " << s;
    }
    EXPECT_EQ(a.counters(), b.counters());
}

TEST(FaultCounters, MergeSumsFieldwise) {
    FaultCounters a{1, 2, 3, 4, 5, 6, 7};
    const FaultCounters b{10, 20, 30, 40, 50, 60, 70};
    a.merge(b);
    EXPECT_EQ(a, (FaultCounters{11, 22, 33, 44, 55, 66, 77}));
}

}  // namespace
}  // namespace lcf::fault

namespace lcf::clint {
namespace {

TEST(SeqTracker, InOrderDeliveriesAndDuplicates) {
    SeqTracker t(2);
    EXPECT_TRUE(t.deliver(0, 0));
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_FALSE(t.deliver(0, 0));  // duplicate below base
    EXPECT_FALSE(t.deliver(0, 1));
    EXPECT_TRUE(t.deliver(1, 0));  // flows are independent
    EXPECT_EQ(t.pending(), 0u);
}

TEST(SeqTracker, ReorderingClosesHolesAndBoundsMemory) {
    SeqTracker t(1);
    EXPECT_TRUE(t.deliver(0, 2));
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_EQ(t.pending(), 2u);  // base still 0; {1,2} held ahead
    EXPECT_TRUE(t.deliver(0, 0));
    EXPECT_EQ(t.pending(), 0u);  // base advanced through the run
    EXPECT_FALSE(t.deliver(0, 2));
    EXPECT_TRUE(t.deliver(0, 3));
}

TEST(SeqTracker, SkipAccountsDestroyedPackets) {
    SeqTracker t(1);
    t.skip(0, 0);  // destroyed before delivery
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_FALSE(t.deliver(0, 0));  // late copy of the destroyed packet
    EXPECT_EQ(t.pending(), 0u);
}

TEST(SeqTracker, FarAheadNumbersWaitOutsideTheWindow) {
    SeqTracker t(2);
    EXPECT_TRUE(t.deliver(0, 65));   // last number the window holds
    EXPECT_TRUE(t.deliver(0, 66));   // one past it: overflow list
    EXPECT_TRUE(t.deliver(1, 66));   // same number, other flow
    EXPECT_FALSE(t.deliver(0, 66));
    EXPECT_EQ(t.pending(), 3u);
    for (std::uint64_t s = 0; s < 65; ++s) t.skip(0, s);
    EXPECT_EQ(t.pending(), 1u);      // flow 0's base swallowed 65 and 66
    EXPECT_FALSE(t.deliver(0, 66));
    EXPECT_TRUE(t.deliver(0, 67));
    EXPECT_FALSE(t.deliver(1, 66));
}

TEST(SeqTracker, MatchesASetModelOnRandomTraffic) {
    // Model: per flow, the set of numbers seen; an answer is "not seen
    // before", pending() the seen numbers above the lowest unseen one.
    // Offsets reach far past the 64-number window, and a tenth of the
    // numbers are late copies below the base.
    constexpr std::size_t kFlows = 5;
    SeqTracker t(kFlows);
    std::vector<std::set<std::uint64_t>> seen(kFlows);
    std::vector<std::uint64_t> base(kFlows, 0);
    util::Xoshiro256 rng(77);
    for (int op = 0; op < 200000; ++op) {
        const std::size_t flow = rng.next_below(kFlows);
        const std::uint64_t r = rng.next_below(100);
        const std::uint64_t reach = r < 60 ? 8 : r < 85 ? 70 : 300;
        const std::uint64_t seq = r % 10 == 0
                                      ? rng.next_below(base[flow] + 1)
                                      : base[flow] + rng.next_below(reach);
        const bool fresh = seen[flow].insert(seq).second;
        while (seen[flow].count(base[flow]) != 0) ++base[flow];
        if (rng.next_below(4) == 0) {
            t.skip(flow, seq);
        } else {
            ASSERT_EQ(t.deliver(flow, seq), fresh)
                << "op " << op << " flow " << flow << " seq " << seq;
        }
        if (op % 1000 == 0) {
            std::size_t held = 0;
            for (std::size_t f = 0; f < kFlows; ++f) {
                held += static_cast<std::size_t>(std::distance(
                    seen[f].upper_bound(base[f]), seen[f].end()));
            }
            ASSERT_EQ(t.pending(), held) << "op " << op;
        }
    }
}

// ---------------------------------------------------------------------
// Golden equivalence: with an empty fault plan (and the same configs the
// seed repository shipped), every simulation must reproduce the exact
// pre-fault-layer numbers. These values were captured from the commit
// preceding the fault layer; any drift means the refactor changed
// baseline behavior.
// ---------------------------------------------------------------------

TEST(FaultGolden, BulkChannelBitIdenticalWithEmptyPlan) {
    BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 1234;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.7));
    sim.enqueue_multicast(2, 0b10110101);
    const auto r = sim.run();
    EXPECT_EQ(r.generated, 27884u);
    EXPECT_EQ(r.delivered_unique, 27865u);
    EXPECT_EQ(r.duplicate_deliveries, 0u);
    EXPECT_EQ(r.dropped_voq, 0u);
    EXPECT_EQ(r.retransmissions, 0u);
    EXPECT_EQ(r.multicast_copies, 5u);
    EXPECT_EQ(r.sched.grants, 27871u);
    EXPECT_EQ(sim.buffered_total(), 19u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 3.3970406413273269);
    EXPECT_DOUBLE_EQ(r.max_delay, 32.0);
    EXPECT_DOUBLE_EQ(r.goodput, 0.69672222222222224);
    EXPECT_EQ(r.faults, fault::FaultCounters{});
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(FaultGolden, QuickChannelBitIdenticalWithEmptyPlan) {
    QuickChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 77;
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_EQ(r.faults, fault::FaultCounters{});
    EXPECT_EQ(r.generated, 12066u);
    EXPECT_EQ(r.delivered_unique, 12065u);
    EXPECT_EQ(r.duplicate_deliveries, 0u);
    EXPECT_EQ(r.collisions, 2067u);
    EXPECT_EQ(r.retransmissions, 2066u);
    EXPECT_EQ(r.abandoned, 0u);
    EXPECT_EQ(r.dropped_queue, 0u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.6726366322008923);
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.99991712249295539);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(FaultGolden, IntegratedClintBitIdenticalWithEmptyPlans) {
    ClintConfig c;
    c.hosts = 16;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 9;
    c.integrated = true;
    c.bulk_load = 0.8;
    c.quick_load = 0.15;
    const auto r = run_clint(c);
    EXPECT_EQ(r.bulk.delivered_unique, 38392u);
    EXPECT_EQ(r.quick.delivered_unique, 4603u);
    EXPECT_EQ(r.quick_control_sent, 38392u);
    EXPECT_EQ(r.quick_control_preemptions, 36072u);
    EXPECT_EQ(r.quick.collisions, 6519u);
    EXPECT_DOUBLE_EQ(r.quick.mean_delay, 525.71346405228769);
}

TEST(FaultGolden, SwitchSimBitIdenticalWithEmptyPlan) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 8000;
    c.warmup_slots = 800;
    c.seed = 4242;
    c.paranoid = true;
    sim::SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                     std::make_unique<traffic::BernoulliUniform>(0.9));
    const auto r = s.run();
    EXPECT_EQ(r.faults, fault::FaultCounters{});
    EXPECT_EQ(r.generated, 115181u);
    EXPECT_EQ(r.delivered, 115080u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.sched.grants, 115080u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_EQ(r.sched.stalled_cycles, 0u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 7.4237078662535305);
    EXPECT_DOUBLE_EQ(r.throughput, 0.89973958333333337);
}

// ---------------------------------------------------------------------
// Channel-level fault behavior.
// ---------------------------------------------------------------------

TEST(BulkChannelFaults, CrashDestroysStateAndRestartResumes) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 21;
    c.fault_plan.add_host_crash(1, 500, 1500);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    while (sim.current_slot() < 600) sim.step();
    EXPECT_FALSE(sim.host_up(1));
    const auto mid = sim.result();
    EXPECT_GT(mid.crash_lost, 0u);  // VOQ contents destroyed at the crash
    EXPECT_TRUE(sim.accounting().balanced());
    while (sim.current_slot() < c.slots) sim.step();
    EXPECT_TRUE(sim.host_up(1));
    const auto r = sim.result();
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    // Delivery kept happening after the restart.
    EXPECT_GT(r.delivered_unique, mid.delivered_unique);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, TransferToHostCrashedSinceItsGrantIsAbsorbed) {
    // Grants issued in the slot before a crash are spent in the crash
    // slot; those naming the crashed host must not deliver. The links
    // are error-free, so every data corruption counted here is such a
    // transfer, absorbed by the target's liveness test.
    BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 3000;
    c.warmup_slots = 100;
    c.seed = 5;
    c.fault_plan.add_host_crash(2, 1000, 1200).add_host_crash(5, 2000);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.9));
    const auto r = sim.run();
    EXPECT_EQ(r.faults.crashes, 2u);
    EXPECT_GT(r.data_corruptions, 0u);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, ControlLinkDownStallsGrantsButConservationHolds) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 0;
    c.seed = 7;
    // Host 0's configuration uplink dies for a while: the switch sees no
    // requests from it, so its traffic waits and nothing leaks.
    c.fault_plan.add_link_down({fault::LinkKind::kUplink, 0}, 200, 900);
    c.fault_plan.add_packet_loss({fault::LinkKind::kDownlink, fault::kAllLinks},
                                 1000, 1500, 0.5);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.configs_lost, 0u);
    EXPECT_GT(r.grants_lost, 0u);
    EXPECT_GT(r.faults.packets_dropped, 0u);
    EXPECT_GT(r.delivered_unique, 0u);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, DataLossEpochForcesRecoveries) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 13;
    c.fault_plan.add_packet_loss({fault::LinkKind::kData, fault::kAllLinks}, 500,
                                 1500, 0.4);
    c.fault_plan.add_packet_loss({fault::LinkKind::kAck, fault::kAllLinks}, 500,
                                 1500, 0.4);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_GT(r.recovered, 0u);
    EXPECT_GT(r.duplicate_deliveries, 0u);  // lost acks re-deliver
    EXPECT_GT(r.mean_recovery_delay, 0.0);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(QuickChannelFaults, CrashAndLinkFaultsKeepAccountingExact) {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 31;
    c.fault_plan.add_host_crash(2, 400, 1200);
    c.fault_plan.add_packet_loss({fault::LinkKind::kData, fault::kAllLinks}, 800,
                                 1600, 0.5);
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.crash_lost, 0u);
    EXPECT_GT(r.fault_losses, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_GT(r.delivered_unique, 0u);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, ConstructorRejectsPlanOutOfRange) {
    BulkChannelConfig c;
    c.hosts = 8;
    c.fault_plan = crash_out_of_range();
    const auto make = [&] {
        BulkChannelSim s(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    };
    EXPECT_EQ(invalid_argument_message(make),
              "host_crash.host 20 out of range for 8 hosts");
    c.fault_plan = link_out_of_range();
    EXPECT_EQ(invalid_argument_message(make),
              "link_down_interval.link.index 9 out of range for 8 hosts");
}

TEST(QuickChannelFaults, ConstructorRejectsPlanOutOfRange) {
    QuickChannelConfig c;
    c.hosts = 8;
    c.fault_plan = crash_out_of_range();
    const auto make = [&] {
        QuickChannelSim s(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    };
    EXPECT_EQ(invalid_argument_message(make),
              "host_crash.host 20 out of range for 8 hosts");
    c.fault_plan = link_out_of_range();
    EXPECT_EQ(invalid_argument_message(make),
              "link_down_interval.link.index 9 out of range for 8 hosts");
}

}  // namespace
}  // namespace lcf::clint

namespace lcf::sim {
namespace {

TEST(SwitchSimFaults, SchedulerStallProducesNoMatchingAndIsCounted) {
    SimConfig c;
    c.ports = 8;
    c.slots = 2000;
    c.warmup_slots = 0;
    c.seed = 3;
    c.paranoid = true;
    c.fault_plan.add_scheduler_stall(500, 700);
    SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                std::make_unique<traffic::BernoulliUniform>(0.6));
    while (s.current_slot() < 600) s.step();
    EXPECT_EQ(s.last_matching().size(), 0u);  // mid-stall: nothing granted
    while (s.current_slot() < c.slots) s.step();
    const auto r = s.result();
    EXPECT_EQ(r.sched.stalled_cycles, 200u);
    EXPECT_EQ(r.faults.stalled_slots, 200u);
    EXPECT_GT(r.delivered, 0u);
    // Conservation: everything generated is delivered or still buffered.
    std::size_t buffered = 0;
    for (std::size_t i = 0; i < c.ports; ++i) {
        buffered += s.voq(i).total_buffered() + s.input_queue(i).size();
    }
    EXPECT_EQ(r.generated, r.delivered + r.dropped + buffered);
    const Accounting a = s.accounting();
    EXPECT_TRUE(a.balanced());
    EXPECT_EQ(a.generated, r.generated);
    EXPECT_EQ(a.delivered_unique, r.delivered);
    EXPECT_EQ(a.dropped, r.dropped);
    EXPECT_EQ(a.queued, buffered);
    EXPECT_EQ(a.in_flight, 0u);
    EXPECT_EQ(a.abandoned, 0u);
}

TEST(SwitchSimFaults, CrashedPortIsMaskedOutOfTheMatching) {
    SimConfig c;
    c.ports = 8;
    c.slots = 1500;
    c.warmup_slots = 0;
    c.seed = 17;
    c.paranoid = true;
    c.fault_plan.add_host_crash(3, 200, 1000);
    SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                std::make_unique<traffic::BernoulliUniform>(0.8));
    while (s.current_slot() < c.slots) {
        s.step();
        const std::uint64_t slot = s.current_slot() - 1;
        if (slot >= 200 && slot < 1000) {
            EXPECT_FALSE(s.last_matching().input_matched(3)) << slot;
            EXPECT_FALSE(s.last_matching().output_matched(3)) << slot;
        }
    }
    const auto r = s.result();
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_GT(r.dropped, 0u);  // arrivals at the crashed port
    EXPECT_GT(r.delivered, 0u);
    std::size_t buffered = 0;
    for (std::size_t i = 0; i < c.ports; ++i) {
        buffered += s.voq(i).total_buffered() + s.input_queue(i).size();
    }
    EXPECT_EQ(r.generated, r.delivered + r.dropped + buffered);
}

TEST(SwitchSimFaults, ConstructorRejectsPlanOutOfRange) {
    SimConfig c;
    c.ports = 8;
    c.fault_plan = crash_out_of_range();
    const auto make = [&] {
        SwitchSim s(c, core::make_scheduler("lcf_central"),
                    std::make_unique<traffic::BernoulliUniform>(0.5));
    };
    EXPECT_EQ(invalid_argument_message(make),
              "host_crash.host 20 out of range for 8 hosts");
    c.fault_plan = link_out_of_range();
    EXPECT_EQ(invalid_argument_message(make),
              "link_down_interval.link.index 9 out of range for 8 hosts");
}

TEST(SwitchSimFaults, CrashesAndRestartsCountHostTransitions) {
    // Host 1's interval is empty and host 2's two intervals overlap into
    // one outage: one crash and one restart, where counting plan entries
    // reported 3 of each (4 with a crash of host 20, which the
    // constructor now rejects instead of ignoring).
    SimConfig c;
    c.ports = 8;
    c.slots = 1000;
    c.warmup_slots = 0;
    c.paranoid = true;
    c.fault_plan.add_host_crash(1, 100, 100)
        .add_host_crash(2, 200, 400)
        .add_host_crash(2, 300, 500);
    SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                std::make_unique<traffic::BernoulliUniform>(0.6));
    const auto r = s.run();
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_TRUE(s.accounting().balanced());

    c.fault_plan.add_host_crash(20, 50, 60);
    EXPECT_THROW(SwitchSim(c, core::make_scheduler("lcf_central_rr"),
                           std::make_unique<traffic::BernoulliUniform>(0.6)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace lcf::sim
