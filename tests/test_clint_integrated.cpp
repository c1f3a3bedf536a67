// Tests for the integrated Clint cluster mode: bulk acknowledgments
// travelling over the quick channel (§4.1), contending with and
// preempting quick data traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "clint/clint_sim.hpp"
#include "clint/quick_channel.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/trace.hpp"

namespace lcf::clint {
namespace {

TEST(QuickControl, ControlPacketPreemptsData) {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 10;
    c.warmup_slots = 0;
    // One data packet queued at host 0 in slot 0; a control packet is
    // injected first, so the data goes out one slot later.
    QuickChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(
                               std::vector<traffic::TraceEntry>{{0, 0, 2}}));
    sim.inject_control(0, 3);
    sim.run();
    const auto r = sim.result();
    EXPECT_EQ(sim.control_sent(), 1u);
    EXPECT_EQ(sim.control_preemptions(), 1u);
    EXPECT_EQ(r.delivered_unique, 1u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 2.0);  // one slot late
}

TEST(QuickControl, ControlCollidesWithDataAtTheTarget) {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 10;
    c.warmup_slots = 0;
    c.ack_timeout = 1;
    // Host 1 sends data to target 3 in slot 0; host 0 sends a control
    // packet to target 3 in the same slot: exactly one collision.
    QuickChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(
                               std::vector<traffic::TraceEntry>{{0, 1, 3}}));
    sim.inject_control(0, 3);
    sim.run();
    const auto r = sim.result();
    EXPECT_EQ(r.collisions, 1u);
    EXPECT_EQ(r.delivered_unique, 1u);  // the data packet gets through on retry
}

TEST(Integrated, AcksAreInjectedAndCounted) {
    ClintConfig c;
    c.hosts = 8;
    c.slots = 2000;
    c.warmup_slots = 200;
    c.bulk_load = 0.5;
    c.quick_load = 0.1;
    c.integrated = true;
    const auto r = run_clint(c);
    // Every delivered-and-acked bulk packet produced one control packet
    // on the quick channel.
    EXPECT_GT(r.quick_control_sent, 0u);
    EXPECT_GE(r.quick_control_sent, r.bulk.delivered_unique - r.bulk.ack_losses);
    EXPECT_GT(r.quick.delivered_unique, 0u);
}

TEST(Integrated, BulkAckTrafficDegradesQuickChannel) {
    // The architectural cost §4.1 implies: the heavier the bulk
    // channel, the more ack traffic the quick channel carries, and the
    // worse quick data latency gets.
    ClintConfig base;
    base.hosts = 8;
    base.slots = 4000;
    base.warmup_slots = 400;
    base.quick_load = 0.15;
    base.integrated = true;

    ClintConfig light = base;
    light.bulk_load = 0.05;
    ClintConfig heavy = base;
    heavy.bulk_load = 0.9;

    const auto l = run_clint(light);
    const auto h = run_clint(heavy);
    EXPECT_GT(h.quick_control_sent, l.quick_control_sent * 5);
    EXPECT_GT(h.quick.mean_delay, l.quick.mean_delay);
}

TEST(Integrated, NonIntegratedModeReportsNoControlTraffic) {
    ClintConfig c;
    c.hosts = 8;
    c.slots = 1000;
    c.warmup_slots = 100;
    c.integrated = false;
    const auto r = run_clint(c);
    EXPECT_EQ(r.quick_control_sent, 0u);
    EXPECT_EQ(r.quick_control_preemptions, 0u);
}

TEST(Integrated, NonIntegratedModeRejectsNanBitErrorRate) {
    ClintConfig c;
    c.hosts = 4;
    c.slots = 100;
    c.warmup_slots = 0;
    c.bit_error_rate = std::nan("");
    c.integrated = false;
    try {
        run_clint(c);
        ADD_FAILURE() << "accepted a NaN bit_error_rate";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bit_error_rate"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Integrated, Deterministic) {
    ClintConfig c;
    c.hosts = 8;
    c.slots = 1500;
    c.warmup_slots = 100;
    c.integrated = true;
    const auto a = run_clint(c);
    const auto b = run_clint(c);
    EXPECT_EQ(a.bulk.delivered_unique, b.bulk.delivered_unique);
    EXPECT_EQ(a.quick.delivered_unique, b.quick.delivered_unique);
    EXPECT_DOUBLE_EQ(a.quick.mean_delay, b.quick.mean_delay);
    EXPECT_EQ(a.quick_control_sent, b.quick_control_sent);
}

}  // namespace
}  // namespace lcf::clint
