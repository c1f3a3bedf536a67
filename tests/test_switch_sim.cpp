// White-box tests for the switch simulator: delay accounting on exact
// traces, queue plumbing (PG -> PQ -> VOQ), packet conservation, drop
// behaviour at full buffers, and the three switch modes.

#include "sim/switch_sim.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/factory.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/trace.hpp"

namespace lcf::sim {
namespace {

std::unique_ptr<sched::Scheduler> islip() {
    return core::make_scheduler("islip");
}

SimConfig tiny(SwitchMode mode = SwitchMode::kVoq) {
    SimConfig c;
    c.ports = 4;
    c.slots = 100;
    c.warmup_slots = 0;
    c.mode = mode;
    return c;
}

TEST(SwitchSim, SinglePacketHasUnitDelay) {
    auto c = tiny();
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{{10, 0, 2}}));
    const auto r = sim.run();
    EXPECT_EQ(r.generated, 1u);
    EXPECT_EQ(r.delivered, 1u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.0);  // forwarded in its arrival slot
}

TEST(SwitchSim, HeadOfLineContentionSerialisesDeliveries) {
    // Two packets for output 0 arrive in the same slot at different
    // inputs; one departs with delay 1, the other waits one slot.
    auto c = tiny();
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{{0, 0, 0}, {0, 1, 0}}));
    const auto r = sim.run();
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.5);
}

TEST(SwitchSim, VoqsEliminateHolBlockingOnCrossTraffic) {
    // Input 0 queues a packet for the contended output 0 and one for the
    // free output 1. With VOQs the second packet must not wait behind
    // the first: both inputs' output-0 packets and the output-1 packet
    // all flow without extra delay.
    auto c = tiny();
    SwitchSim voq_sim(c, islip(),
                      std::make_unique<traffic::TraceTraffic>(
                          std::vector<traffic::TraceEntry>{
                              {0, 0, 0}, {0, 1, 0}, {1, 0, 1}}));
    const auto r = voq_sim.run();
    EXPECT_EQ(r.delivered, 3u);
    // Delays: 1 (winner of output 0), 2 (loser), 1 (output 1 packet).
    EXPECT_NEAR(r.mean_delay, 4.0 / 3.0, 1e-9);
}

TEST(SwitchSim, FifoModeSuffersHolBlocking) {
    // Same trace in FIFO mode: input 0's output-1 packet sits behind its
    // head-of-line packet. If input 0 loses the slot-0 arbitration for
    // output 0, the trailing packet is delayed an extra slot.
    auto c = tiny(SwitchMode::kFifo);
    SwitchSim sim(c, core::make_scheduler("fifo"),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{
                          {0, 0, 0}, {0, 1, 0}, {1, 0, 1}}));
    const auto r = sim.run();
    EXPECT_EQ(r.delivered, 3u);
    // fifo's grant pointers start at input 0, so input 0 wins output 0
    // in slot 0 (delay 1); input 1 gets it in slot 1 (delay 2); input
    // 0's second packet then goes in slot 1 (delay 1). Mean 4/3 — but
    // had input 0 lost, the mean would be higher. Assert the exact
    // deterministic outcome.
    EXPECT_NEAR(r.mean_delay, 4.0 / 3.0, 1e-9);
}

TEST(SwitchSim, OutputBufferedModeNeedsNoScheduler) {
    auto c = tiny(SwitchMode::kOutputBuffered);
    SwitchSim sim(c, nullptr,
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{
                          {0, 0, 0}, {0, 1, 0}, {0, 2, 0}}));
    const auto r = sim.run();
    // All three packets reach output 0's buffer in slot 0 and drain one
    // per slot: delays 1, 2, 3.
    EXPECT_EQ(r.delivered, 3u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 2.0);
}

TEST(SwitchSim, PacketConservation) {
    // generated = delivered + dropped + queued (PQ + VOQ + output
    // buffers) after every slot, in every mode, with and without a
    // blocking Clos fabric and a crash plus a stall; queues are small
    // so the drop paths run too.
    struct Case {
        SwitchMode mode;
        std::size_t speedup;
    };
    for (const auto& [mode, speedup] :
         {Case{SwitchMode::kVoq, 1}, Case{SwitchMode::kVoq, 2},
          Case{SwitchMode::kFifo, 1}, Case{SwitchMode::kOutputBuffered, 1}}) {
        for (const std::size_t clos_middle : {0U, 2U}) {
            for (const bool faults : {false, true}) {
                SimConfig c;
                c.ports = 8;
                c.slots = 3000;
                c.warmup_slots = 0;
                c.mode = mode;
                c.speedup = speedup;
                c.clos_middle = clos_middle;
                c.pq_capacity = c.fifo_capacity = c.outbuf_capacity = 4;
                c.voq_capacity = 2;
                c.paranoid = true;
                if (faults) {
                    c.fault_plan.add_host_crash(2, 500, 1500);
                    c.fault_plan.add_scheduler_stall(800, 900);
                }
                SwitchSim sim(c, core::make_scheduler("lcf_central_rr"),
                              std::make_unique<traffic::BernoulliUniform>(0.9));
                const bool outbufs =
                    mode == SwitchMode::kOutputBuffered || speedup > 1;
                while (sim.current_slot() < c.slots) {
                    sim.step();
                    std::size_t queued = 0;
                    for (std::size_t p = 0; p < c.ports; ++p) {
                        if (mode == SwitchMode::kVoq) {
                            queued += sim.voq(p).total_buffered();
                        }
                        if (mode != SwitchMode::kOutputBuffered) {
                            queued += sim.input_queue(p).size();
                        }
                        if (outbufs) queued += sim.output_buffer(p).size();
                    }
                    const auto& m = sim.metrics();
                    ASSERT_EQ(m.generated(),
                              m.delivered() + m.dropped() + queued)
                        << static_cast<int>(mode) << " s=" << speedup
                        << " clos=" << clos_middle << " faults=" << faults
                        << " slot " << sim.current_slot();
                    const Accounting a = sim.accounting();
                    ASSERT_TRUE(a.balanced()) << sim.current_slot();
                    ASSERT_EQ(a.generated, m.generated());
                    ASSERT_EQ(a.delivered_unique, m.delivered());
                    ASSERT_EQ(a.dropped, m.dropped());
                    ASSERT_EQ(a.queued, queued);
                    ASSERT_EQ(a.in_flight + a.abandoned, 0u);
                }
                EXPECT_GT(sim.metrics().dropped(), 0u);
            }
        }
    }
}

TEST(SwitchSim, RequestMatrixMirrorsVoqs) {
    // The kVoq request matrix is updated only as queues turn empty or
    // non-empty; paranoid step() throws the slot where R(t) != 1[Q(t) > 0]
    // or a column, row count or total drifts. Speedup 2 pops in two
    // phases per slot, the blocking Clos fabric leaves matched packets
    // queued, and the crash schedules from a masked copy while the
    // mirror keeps the crashed port's queues.
    for (const std::size_t speedup : {1U, 2U}) {
        for (const std::size_t clos_middle : {0U, 2U}) {
            for (const bool faults : {false, true}) {
                for (const char* name : {"lcf_central", "islip"}) {
                    SimConfig c;
                    c.ports = 8;
                    c.slots = 3000;
                    c.warmup_slots = 0;
                    c.speedup = speedup;
                    c.clos_middle = clos_middle;
                    c.pq_capacity = c.outbuf_capacity = 4;
                    c.voq_capacity = 2;
                    c.paranoid = true;
                    if (faults) {
                        c.fault_plan.add_host_crash(2, 500, 1500);
                        c.fault_plan.add_scheduler_stall(800, 900);
                    }
                    SwitchSim sim(c, core::make_scheduler(name),
                                  std::make_unique<traffic::BernoulliUniform>(0.9));
                    EXPECT_NO_THROW(sim.run())
                        << name << " s=" << speedup << " clos=" << clos_middle
                        << " faults=" << faults;
                    const SimResult r = sim.result();
                    EXPECT_EQ(r.sched.paranoid_violations, 0u) << name;
                    EXPECT_GT(r.delivered, 0u) << name;
                    if (faults) {
                        EXPECT_GT(r.faults.crashes, 0u) << name;
                        EXPECT_GT(r.faults.stalled_slots, 0u) << name;
                    }
                }
            }
        }
    }
}

TEST(SwitchSim, DropsWhenPacketQueueOverflows) {
    // One-entry VOQs and a tiny PQ, saturated input: drops must occur
    // and be counted.
    SimConfig c;
    c.ports = 2;
    c.voq_capacity = 1;
    c.pq_capacity = 2;
    c.slots = 200;
    c.warmup_slots = 0;
    // Both inputs always send to output 0: capacity 1/slot vs offered 2.
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::HotspotTraffic>(1.0, 1.0, 0));
    const auto r = sim.run();
    EXPECT_GT(r.dropped, 0u);
    EXPECT_EQ(r.generated, 400u);
    EXPECT_NEAR(r.throughput, 0.5, 0.05);  // one of two outputs busy
}

TEST(SwitchSim, WarmupExcludesEarlyPacketsFromDelayStats) {
    SimConfig c;
    c.ports = 4;
    c.slots = 60;
    c.warmup_slots = 50;
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{{1, 0, 0},
                                                       {55, 1, 2}}));
    const auto r = sim.run();
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(r.measured, 1u);  // only the post-warm-up packet counts
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.0);
}

TEST(SwitchSim, ServiceMatrixRecordsFlows) {
    SimConfig c;
    c.ports = 4;
    c.slots = 50;
    c.warmup_slots = 0;
    c.record_service_matrix = true;
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{
                          {0, 0, 2}, {1, 0, 2}, {2, 3, 1}}));
    const auto r = sim.run();
    EXPECT_EQ(r.service_of(0, 2), 2u);
    EXPECT_EQ(r.service_of(3, 1), 1u);
    EXPECT_EQ(r.service_of(1, 1), 0u);
}

TEST(SwitchSim, StepwiseIntrospection) {
    auto c = tiny();
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::TraceTraffic>(
                      std::vector<traffic::TraceEntry>{{0, 2, 3}}));
    EXPECT_EQ(sim.current_slot(), 0u);
    sim.step();
    EXPECT_EQ(sim.current_slot(), 1u);
    // The packet was forwarded in slot 0; the matching shows it.
    EXPECT_EQ(sim.last_matching().output_of(2), 3);
}

TEST(SwitchSim, CountersAlwaysCollected) {
    auto c = tiny();
    c.slots = 200;
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::BernoulliUniform>(0.6));
    const auto r = sim.run();
    EXPECT_EQ(r.sched.cycles, 200u);
    EXPECT_GT(r.sched.requests, 0u);
    EXPECT_GT(r.sched.grants, 0u);
    EXPECT_EQ(r.sched.grants, r.delivered);  // speedup 1, no fabric drops
    EXPECT_LE(r.sched.max_matching, c.ports);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
}

TEST(SwitchSim, SpeedupRunsSchedulerTwicePerSlot) {
    auto c = tiny();
    c.slots = 50;
    c.speedup = 2;
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::BernoulliUniform>(0.6));
    const auto r = sim.run();
    EXPECT_EQ(r.sched.cycles, 100u);  // one observation per phase
}

TEST(SwitchSim, TraceRingEngagesWhenConfigured) {
    auto c = tiny();
    c.slots = 50;
    c.trace_capacity = 16;
    SwitchSim sim(c, islip(),
                  std::make_unique<traffic::BernoulliUniform>(0.8));
    EXPECT_FALSE(SwitchSim(tiny(), islip(),
                           std::make_unique<traffic::BernoulliUniform>(0.1))
                     .observer()
                     .trace()
                     .has_value());
    ASSERT_TRUE(sim.observer().trace().has_value());
    sim.run();
    EXPECT_EQ(sim.observer().trace()->recorded(), 50u);
    EXPECT_EQ(sim.observer().trace()->size(), 16u);  // the most recent 16
    EXPECT_EQ(sim.observer().trace()->at(0).cycle, 34u);
}

TEST(SwitchSim, ParanoidCheckerEngagesAndRunsClean) {
    auto c = tiny();
    c.slots = 300;
    c.paranoid = true;
    SwitchSim sim(c, core::make_scheduler("lcf_central_rr"),
                  std::make_unique<traffic::BernoulliUniform>(0.9));
    ASSERT_TRUE(sim.observer().checker().has_value());
    // lcf_central_rr promises the §3 fairness guarantee; options_for
    // turned the diagonal-fairness check on for it.
    EXPECT_TRUE(sim.observer().checker()->options().check_diagonal_fairness);
    const auto r = sim.run();
    EXPECT_EQ(sim.observer().checker()->cycles_checked(), 300u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_LE(r.sched.max_starvation_age,
              static_cast<std::uint64_t>(c.ports * c.ports));
}

TEST(SwitchSim, RejectsInvalidConstruction) {
    auto c = tiny();
    EXPECT_THROW(
        SwitchSim(c, islip(), nullptr),
        std::invalid_argument);
    EXPECT_THROW(
        SwitchSim(c, nullptr,
                  std::make_unique<traffic::BernoulliUniform>(0.1)),
        std::invalid_argument);
    c.ports = 0;
    EXPECT_THROW(
        SwitchSim(c, islip(),
                  std::make_unique<traffic::BernoulliUniform>(0.1)),
        std::invalid_argument);
}

// A zero-capacity buffer would silently drop every packet; each mode's
// constructor rejects one and names the field.
void expect_rejects_field(const SimConfig& c, const std::string& field) {
    try {
        SwitchSim sim(c, islip(),
                      std::make_unique<traffic::BernoulliUniform>(0.1));
        ADD_FAILURE() << "accepted zero " << field;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(SwitchSim, RejectsZeroVoqCapacity) {
    auto c = tiny();
    c.voq_capacity = 0;
    expect_rejects_field(c, "voq_capacity");
}

TEST(SwitchSim, RejectsZeroPqCapacity) {
    auto c = tiny();
    c.pq_capacity = 0;
    expect_rejects_field(c, "pq_capacity");
}

TEST(SwitchSim, RejectsZeroFifoCapacity) {
    auto c = tiny(SwitchMode::kFifo);
    c.fifo_capacity = 0;
    expect_rejects_field(c, "fifo_capacity");
}

TEST(SwitchSim, RejectsZeroOutbufCapacity) {
    auto c = tiny(SwitchMode::kOutputBuffered);
    c.outbuf_capacity = 0;
    expect_rejects_field(c, "outbuf_capacity");
    // With speedup the VOQ switch drains through output buffers too.
    c.mode = SwitchMode::kVoq;
    c.speedup = 2;
    expect_rejects_field(c, "outbuf_capacity");
    // At speedup 1 it has none, so their bound is never used.
    c.speedup = 1;
    EXPECT_NO_THROW(SwitchSim(c, islip(),
                              std::make_unique<traffic::BernoulliUniform>(0.1)));
}

TEST(SwitchSim, RejectsVoqPoolBeyondNodeIndex) {
    auto c = tiny();
    c.voq_capacity = VoqBank::kMaxNodes / c.ports + 1;
    expect_rejects_field(c, "voq_capacity");
}

}  // namespace
}  // namespace lcf::sim
