// Tests for the bulk-channel simulation: clean-link delivery and
// conservation, pipeline latency floor, error recovery through
// retransmission, multicast via the precalculated schedule, and
// saturation behaviour.

#include "clint/bulk_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "traffic/bernoulli.hpp"
#include "traffic/trace.hpp"

namespace lcf::clint {
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

BulkChannelConfig small_config() {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 200;
    c.seed = 5;
    return c;
}

TEST(BulkChannel, CleanLinksDeliverEverythingEventually) {
    auto config = small_config();
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_GT(r.generated, 1000u);
    EXPECT_EQ(r.dropped_voq, 0u);
    // Everything generated is delivered except the handful still queued
    // or in flight at the end.
    EXPECT_GE(r.delivered_unique + 4 * 4 + 8, r.generated);
    EXPECT_EQ(r.config_crc_errors, 0u);
    EXPECT_EQ(r.grant_crc_errors, 0u);
    EXPECT_EQ(r.data_corruptions, 0u);
    EXPECT_EQ(r.retransmissions, 0u);
    EXPECT_EQ(r.duplicate_deliveries, 0u);
}

TEST(BulkChannel, PipelineLatencyFloorIsTwoSlots) {
    // A packet arriving in slot t is scheduled in t (config/grant) and
    // transferred in t+1, so the minimum delay is 2 slots. Use a single
    // isolated arrival.
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 20;
    c.warmup_slots = 0;
    BulkChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(
                              std::vector<traffic::TraceEntry>{{5, 1, 2}}));
    const auto r = sim.run();
    EXPECT_EQ(r.delivered_unique, 1u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 2.0);
}

TEST(BulkChannel, GoodputTracksOfferedLoadBelowSaturation) {
    auto config = small_config();
    config.slots = 4000;
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.5));
    const auto r = sim.run();
    EXPECT_NEAR(r.goodput, 0.5, 0.05);
}

TEST(BulkChannel, ErrorInjectionTriggersRecoveryMachinery) {
    auto config = small_config();
    config.bit_error_rate = 2e-5;  // ~28% loss of 16-kbit payloads
    config.slots = 4000;
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    // At this BER every error class fires...
    EXPECT_GT(r.config_crc_errors, 0u);
    EXPECT_GT(r.data_corruptions, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    // ...and retransmission still delivers the vast majority of traffic.
    EXPECT_GT(r.delivered_unique, r.generated * 9 / 10);
}

TEST(BulkChannel, LostTransfersAreRetransmittedNotLost) {
    // Moderate BER, long run: deliveries keep pace despite corruption.
    auto config = small_config();
    config.bit_error_rate = 1e-5;  // ~15% payload loss
    config.slots = 6000;
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.2));
    const auto r = sim.run();
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_GE(r.delivered_unique + 200, r.generated - r.dropped_voq);
}

TEST(BulkChannel, MulticastFanOutDeliversToAllTargets) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 10;
    c.warmup_slots = 0;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.0));
    sim.enqueue_multicast(3, 0b1010);  // I3 -> {T1, T3}, the Figure 7 case
    const auto r = sim.run();
    EXPECT_EQ(r.multicast_copies, 2u);
}

TEST(BulkChannel, MulticastCoexistsWithUnicastTraffic) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 0;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    for (int k = 0; k < 50; ++k) {
        sim.enqueue_multicast(static_cast<std::size_t>(k % 4), 0b0110);
    }
    const auto r = sim.run();
    EXPECT_EQ(r.multicast_copies, 100u);  // 50 multicasts × 2 targets
    EXPECT_GT(r.delivered_unique, 0u);
}

TEST(BulkChannel, SaturatedChannelStillMakesProgress) {
    auto config = small_config();
    config.slots = 3000;
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(1.0));
    const auto r = sim.run();
    // At full load a 4-port LCF-scheduled crossbar sustains high goodput.
    EXPECT_GT(r.goodput, 0.8);
}

TEST(BulkChannel, PacketConservationOnCleanLinks) {
    // Error-free links: every generated packet is delivered, dropped at
    // a full VOQ, or still buffered somewhere in the channel — exactly.
    auto config = small_config();
    config.slots = 3000;
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.9));
    while (sim.current_slot() < config.slots) sim.step();
    const auto r = sim.result();
    EXPECT_EQ(r.generated, r.delivered_unique + r.dropped_voq + sim.buffered_total());
}

TEST(BulkChannel, BufferedTotalDrainsWhenTrafficStops) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 100;
    c.warmup_slots = 0;
    // A burst of trace arrivals, then silence: the channel must drain.
    std::vector<traffic::TraceEntry> entries;
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::uint64_t t = 0; t < 5; ++t) {
            entries.push_back({t, i, (i + t) % 4});
        }
    }
    BulkChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(entries));
    sim.run();
    EXPECT_EQ(sim.buffered_total(), 0u);
    EXPECT_EQ(sim.result().delivered_unique, entries.size());
}

TEST(BulkChannel, BenFieldFencesAMalfunctioningHost) {
    // §4.1: "ben and qen specify the bulk initiators ... from which
    // packets are to be forwarded by the switch — hosts use these
    // fields to disable malfunctioning hosts." Host 1 reports host 2 as
    // faulty: from then on host 2 receives no grants and delivers
    // nothing, while the others keep flowing.
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 0;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    sim.set_bulk_enable_report(1, 0xFFFF & ~(1U << 2));
    const auto r = sim.run();
    EXPECT_EQ(sim.fenced_mask() & 0xF, 1U << 2);
    // Host 2's packets pile up unscheduled: the channel delivers
    // roughly 3/4 of the generated traffic.
    EXPECT_LT(r.delivered_unique, r.generated * 8 / 9);
    EXPECT_GT(r.delivered_unique, r.generated / 2);
    // The fenced host's VOQs retain its backlog.
    EXPECT_GT(sim.buffered_total(), 150u);
}

TEST(BulkChannel, ReenablingAHostRestoresService) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 400;
    c.warmup_slots = 0;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    sim.set_bulk_enable_report(0, 0xFFFF & ~(1U << 3));
    while (sim.current_slot() < 200) sim.step();
    EXPECT_NE(sim.fenced_mask() & (1U << 3), 0u);
    const auto mid = sim.result();
    sim.set_bulk_enable_report(0, 0xFFFF);
    while (sim.current_slot() < 400) sim.step();
    EXPECT_EQ(sim.fenced_mask() & 0xF, 0u);
    // After re-enabling, host 3's backlog drains: deliveries jump.
    EXPECT_GT(sim.result().delivered_unique, mid.delivered_unique + 40);
}

// Regression for the ack-loss double-delivery accounting bug: when an
// acknowledgment is lost, the target already holds the packet, yet the
// sender retransmits it. The re-delivery must land in
// duplicate_deliveries — never in delivered_unique — and the delivered
// copy waiting in the retransmission machinery must not double-count in
// the conservation identity.
TEST(BulkChannel, LostAcksProduceDuplicatesNotDoubleDeliveries) {
    auto config = small_config();
    config.seed = 11;
    config.slots = 6000;
    config.bit_error_rate = 2e-5;
    config.ack_bits = 16384;  // ack as fragile as the payload: many losses
    BulkChannelSim sim(config,
                       std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_GT(r.ack_losses, 0u);
    EXPECT_GT(r.duplicate_deliveries, 0u);
    EXPECT_LE(r.delivered_unique, r.generated);
    // First-delivery latency stats must cover exactly the unique
    // deliveries made after warm-up, not the duplicates.
    EXPECT_GT(r.recovered, 0u);
    EXPECT_GT(r.mean_recovery_delay, 0.0);
    const auto a = sim.accounting();
    EXPECT_TRUE(a.balanced())
        << "generated " << a.generated << " != delivered "
        << a.delivered_unique << " + queued " << a.queued << " + in_flight "
        << a.in_flight << " + dropped " << a.dropped << " + abandoned "
        << a.abandoned;
}

TEST(BulkChannel, AckCorruptProbabilityFollowsConfiguredAckBits) {
    for (const std::size_t ack_bits : {std::size_t{64}, std::size_t{512}}) {
        auto config = small_config();
        config.bit_error_rate = 1e-4;
        config.ack_bits = ack_bits;
        BulkChannelSim sim(config,
                           std::make_unique<traffic::BernoulliUniform>(0.1));
        EXPECT_DOUBLE_EQ(sim.ack_corrupt_probability(),
                         1.0 - std::pow(1.0 - config.bit_error_rate,
                                        static_cast<double>(ack_bits)));
    }
}

// Bounded exponential backoff with a retry cap: hopeless transfers are
// abandoned instead of being re-granted forever, and the abandonment is
// visible in both the stats and the conservation identity.
TEST(BulkChannel, RetryCapAbandonsAndBackoffStaysBounded) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 5000;
    c.warmup_slots = 0;
    c.seed = 3;
    c.bit_error_rate = 1e-4;  // ~80% payload loss: retries mostly fail
    c.max_retries = 2;
    c.exponential_backoff = true;
    c.backoff_cap = 16;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.2));
    const auto r = sim.run();
    EXPECT_GT(r.abandoned, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    const auto a = sim.accounting();
    EXPECT_TRUE(a.balanced())
        << "generated " << a.generated << " != delivered "
        << a.delivered_unique << " + queued " << a.queued << " + in_flight "
        << a.in_flight << " + dropped " << a.dropped << " + abandoned "
        << a.abandoned;
}

TEST(BulkChannel, ParanoidRunIsCleanAndCountersPopulate) {
    BulkChannelConfig c = small_config();
    c.paranoid = true;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    // Mix in multicast so the precalculated stage runs alongside the
    // checked unicast matchings.
    sim.enqueue_multicast(0, 0b1100);
    const auto r = sim.run();
    EXPECT_GT(r.delivered_unique, 0u);
    EXPECT_EQ(r.sched.cycles, c.slots);
    EXPECT_GT(r.sched.grants, 0u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
}

TEST(BulkChannel, CountersCollectedWithoutParanoid) {
    BulkChannelSim sim(small_config(),
                       std::make_unique<traffic::BernoulliUniform>(0.5));
    const auto r = sim.run();
    EXPECT_EQ(r.sched.cycles, small_config().slots);
    EXPECT_GT(r.sched.grants, 0u);
    EXPECT_FALSE(sim.observer().checker().has_value());
}

TEST(BulkChannel, RejectsBadConfiguration) {
    BulkChannelConfig c;
    c.hosts = 17;
    EXPECT_THROW(
        BulkChannelSim(c, std::make_unique<traffic::BernoulliUniform>(0.1)),
        std::invalid_argument);
    c.hosts = 4;
    EXPECT_THROW(BulkChannelSim(c, nullptr), std::invalid_argument);
}

TEST(BulkChannel, RejectsZeroVoqCapacity) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.voq_capacity = 0;
    try {
        BulkChannelSim sim(c,
                           std::make_unique<traffic::BernoulliUniform>(0.1));
        ADD_FAILURE() << "accepted zero voq_capacity";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("voq_capacity"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BulkChannel, RejectsNanBitErrorRate) {
    BulkChannelConfig c = small_config();
    c.bit_error_rate = std::nan("");
    const std::string message = invalid_argument_message([&] {
        BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.1));
    });
    EXPECT_NE(message.find("bit_error_rate"), std::string::npos) << message;
}

// The host-indexed entry points range-check each argument and name it
// in the message (small_config() has 4 hosts).
TEST(BulkChannel, EnqueueMulticastRejectsHostOutOfRange) {
    BulkChannelSim sim(small_config(),
                       std::make_unique<traffic::BernoulliUniform>(0.1));
    const std::string msg =
        invalid_argument_message([&] { sim.enqueue_multicast(4, 0b0011); });
    EXPECT_NE(msg.find("host"), std::string::npos) << msg;
}

TEST(BulkChannel, EnqueueMulticastRejectsTargetMaskOutOfRange) {
    BulkChannelSim sim(small_config(),
                       std::make_unique<traffic::BernoulliUniform>(0.1));
    const std::string msg =
        invalid_argument_message([&] { sim.enqueue_multicast(0, 0b10001); });
    EXPECT_NE(msg.find("target_mask"), std::string::npos) << msg;
    sim.enqueue_multicast(0, 0b1111);  // every real target is fine
}

TEST(BulkChannel, SetBulkEnableReportRejectsHostOutOfRange) {
    BulkChannelSim sim(small_config(),
                       std::make_unique<traffic::BernoulliUniform>(0.1));
    const std::string msg = invalid_argument_message(
        [&] { sim.set_bulk_enable_report(4, 0xFFFF); });
    EXPECT_NE(msg.find("host"), std::string::npos) << msg;
}

TEST(BulkChannel, SetBulkEnableReportRejectsBenMaskOutOfRange) {
    BulkChannelSim sim(small_config(),
                       std::make_unique<traffic::BernoulliUniform>(0.1));
    // Disabling initiator 4 of a 4-host channel names a missing host.
    const std::string msg = invalid_argument_message(
        [&] { sim.set_bulk_enable_report(0, 0xFFFF & ~(1U << 4)); });
    EXPECT_NE(msg.find("ben_mask"), std::string::npos) << msg;
    sim.set_bulk_enable_report(0, 0xFFFF & ~(1U << 3));  // a real one is fine
}

}  // namespace
}  // namespace lcf::clint
