// Tests for the quick-channel simulation: immediate delivery when
// uncontended, collision-and-drop semantics, retransmission recovery,
// retry exhaustion, and fairness of the rotating collision winner.

#include "clint/quick_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "clint/clint_sim.hpp"

#include "traffic/bernoulli.hpp"
#include "traffic/hotspot.hpp"
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

QuickChannelConfig small_config() {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 200;
    c.seed = 9;
    return c;
}

TEST(QuickChannel, UncontendedPacketDeliversInOneSlot) {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 10;
    c.warmup_slots = 0;
    QuickChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(
                               std::vector<traffic::TraceEntry>{{3, 0, 2}}));
    const auto r = sim.run();
    EXPECT_EQ(r.delivered_unique, 1u);
    EXPECT_EQ(r.collisions, 0u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.0);  // best-effort: no scheduling wait
}

TEST(QuickChannel, CollisionDropsAllButOne) {
    // Two hosts transmit to the same target in the same slot: exactly
    // one collision, and the loser's retransmission succeeds later.
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 20;
    c.warmup_slots = 0;
    c.ack_timeout = 2;
    QuickChannelSim sim(c, std::make_unique<traffic::TraceTraffic>(
                               std::vector<traffic::TraceEntry>{
                                   {0, 0, 3}, {0, 1, 3}}));
    const auto r = sim.run();
    EXPECT_EQ(r.collisions, 1u);
    EXPECT_EQ(r.delivered_unique, 2u);
    EXPECT_GE(r.retransmissions, 1u);
}

TEST(QuickChannel, LowLoadDeliversEverything) {
    auto config = small_config();
    QuickChannelSim sim(config,
                        std::make_unique<traffic::BernoulliUniform>(0.1));
    const auto r = sim.run();
    EXPECT_GT(r.generated, 300u);
    EXPECT_GE(r.delivered_unique + 8, r.generated - r.dropped_queue);
    EXPECT_GT(r.delivery_ratio, 0.95);
}

TEST(QuickChannel, HighContentionCausesCollisionsButProgress) {
    auto config = small_config();
    // All traffic to one hot target: maximal contention.
    QuickChannelSim sim(config, std::make_unique<traffic::HotspotTraffic>(
                                    0.8, 1.0, 0));
    const auto r = sim.run();
    EXPECT_GT(r.collisions, 0u);
    EXPECT_GT(r.delivered_unique, 0u);
    // The single output can carry at most one packet per slot; four
    // hosts offering 0.8 each overload it 3.2x, so most traffic cannot
    // get through.
    EXPECT_LT(r.delivery_ratio, 0.5);
}

TEST(QuickChannel, RotatingPriorityIsFairUnderSymmetricContention) {
    // Two persistent senders to one target must split the wins about
    // evenly thanks to the rotating collision winner.
    QuickChannelConfig c;
    c.hosts = 2;
    c.slots = 4000;
    c.warmup_slots = 0;
    c.ack_timeout = 1;
    QuickChannelSim sim(c, std::make_unique<traffic::HotspotTraffic>(
                               1.0, 1.0, 0));
    const auto r = sim.run();
    // Output 0 carries one packet per slot; each host should win ~half.
    EXPECT_NEAR(r.delivery_ratio, 0.5, 0.05);
}

TEST(QuickChannel, BitErrorsTriggerRetransmissions) {
    auto config = small_config();
    config.bit_error_rate = 1e-4;
    QuickChannelSim sim(config,
                        std::make_unique<traffic::BernoulliUniform>(0.2));
    const auto r = sim.run();
    EXPECT_GT(r.corruptions, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_GT(r.delivery_ratio, 0.9);
}

TEST(QuickChannel, RetryLimitAbandonsHopelessPackets) {
    QuickChannelConfig c;
    c.hosts = 2;
    c.slots = 500;
    c.warmup_slots = 0;
    c.bit_error_rate = 0.05;  // ~99% packet corruption at 1024 bits
    c.max_retries = 2;
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_GT(r.abandoned, 0u);
}

// The ack-corruption probability must follow the same independent-bit
// formula as the data path, parameterised by the configured ack size —
// it used to be hard-coded to 64 bits regardless of the config.
TEST(QuickChannel, AckCorruptProbabilityFollowsConfiguredAckBits) {
    for (const std::size_t ack_bits : {std::size_t{64}, std::size_t{128},
                                       std::size_t{1024}}) {
        QuickChannelConfig c = small_config();
        c.bit_error_rate = 3e-4;
        c.ack_bits = ack_bits;
        QuickChannelSim sim(c,
                            std::make_unique<traffic::BernoulliUniform>(0.1));
        const double expected =
            1.0 - std::pow(1.0 - c.bit_error_rate,
                           static_cast<double>(ack_bits));
        EXPECT_DOUBLE_EQ(sim.ack_corrupt_probability(), expected)
            << ack_bits << " ack bits";
        EXPECT_DOUBLE_EQ(sim.data_corrupt_probability(),
                         1.0 - std::pow(1.0 - c.bit_error_rate,
                                        static_cast<double>(c.payload_bits)));
    }
}

// A packet whose delivery landed but whose acks kept vanishing is not
// data loss: it must be counted abandoned_delivered, not abandoned, and
// the conservation identity must stay exact either way.
TEST(QuickChannel, AbandonedSplitsDeliveredFromUndelivered) {
    QuickChannelConfig c;
    c.hosts = 2;
    c.slots = 4000;
    c.warmup_slots = 0;
    c.seed = 5;
    c.bit_error_rate = 1.2e-3;  // ~71% data loss, ~8% ack loss at defaults
    c.payload_bits = 1024;
    c.max_retries = 3;
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.abandoned, 0u);
    EXPECT_GT(r.abandoned_delivered, 0u);
    EXPECT_GT(r.duplicate_deliveries, 0u);
    const auto a = sim.accounting();
    EXPECT_TRUE(a.balanced())
        << "generated " << a.generated << " != delivered " << a.delivered_unique
        << " + queued " << a.queued << " + in_flight " << a.in_flight
        << " + dropped " << a.dropped << " + abandoned " << a.abandoned;
}

TEST(QuickChannel, RejectsBadConfiguration) {
    QuickChannelConfig c;
    c.hosts = 0;
    EXPECT_THROW(
        QuickChannelSim(c, std::make_unique<traffic::BernoulliUniform>(0.1)),
        std::invalid_argument);
    c.hosts = 4;
    EXPECT_THROW(QuickChannelSim(c, nullptr), std::invalid_argument);
}

// The quick channel draws its own corruptions (no ErrorLink checks the
// rate for it): an out-of-range rate used to run error-free.
TEST(QuickChannel, RejectsBitErrorRateOutOfRange) {
    for (const double ber : {2.0, -0.5}) {
        QuickChannelConfig c = small_config();
        c.bit_error_rate = ber;
        const std::string msg = invalid_argument_message([&] {
            QuickChannelSim(c,
                            std::make_unique<traffic::BernoulliUniform>(0.1));
        });
        EXPECT_NE(msg.find("bit_error_rate"), std::string::npos)
            << ber << ": " << msg;
    }
    for (const double ber : {0.0, 1.0}) {  // the ends of [0, 1] are fine
        QuickChannelConfig c = small_config();
        c.bit_error_rate = ber;
        EXPECT_NO_THROW(QuickChannelSim(
            c, std::make_unique<traffic::BernoulliUniform>(0.1)));
    }
}

// A zero-capacity send queue used to drop every packet without a word.
TEST(QuickChannel, RejectsZeroQueueCapacity) {
    QuickChannelConfig c = small_config();
    c.queue_capacity = 0;
    const std::string msg = invalid_argument_message([&] {
        QuickChannelSim(c, std::make_unique<traffic::BernoulliUniform>(0.1));
    });
    EXPECT_NE(msg.find("queue_capacity"), std::string::npos) << msg;
    c.queue_capacity = 1;
    EXPECT_NO_THROW(
        QuickChannelSim(c, std::make_unique<traffic::BernoulliUniform>(0.1)));
}

// Each argument of inject_control() is range-checked and named: an
// out-of-range target would otherwise index past the per-target winner
// array.
TEST(QuickChannel, InjectControlRejectsHostOutOfRange) {
    QuickChannelSim sim(small_config(),
                        std::make_unique<traffic::BernoulliUniform>(0.1));
    const std::string msg =
        invalid_argument_message([&] { sim.inject_control(4, 0); });
    EXPECT_NE(msg.find("host"), std::string::npos) << msg;
    sim.inject_control(3, 0);  // the last host is fine
}

TEST(QuickChannel, InjectControlRejectsTargetOutOfRange) {
    QuickChannelSim sim(small_config(),
                        std::make_unique<traffic::BernoulliUniform>(0.1));
    const std::string msg =
        invalid_argument_message([&] { sim.inject_control(0, 4); });
    EXPECT_NE(msg.find("target"), std::string::npos) << msg;
    sim.inject_control(0, 3);  // the last target is fine
}

TEST(ClintSim, CombinedRunProducesBothChannelResults) {
    ClintConfig c;
    c.hosts = 8;
    c.slots = 1500;
    c.warmup_slots = 100;
    c.bulk_load = 0.5;
    c.quick_load = 0.1;
    const auto r = run_clint(c);
    EXPECT_GT(r.bulk.delivered_unique, 0u);
    EXPECT_GT(r.quick.delivered_unique, 0u);
    // The architecture's division of labour: quick beats bulk on latency
    // at light load.
    EXPECT_LT(r.quick.mean_delay, r.bulk.mean_delay + 1.0);
}

}  // namespace
}  // namespace lcf::clint
