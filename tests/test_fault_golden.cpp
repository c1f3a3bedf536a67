// Exact pins for simulations run under a non-empty fault plan. The
// empty-plan pins in test_fault.cpp prove the fault layer costs nothing
// when unused; these prove what it does when used: every result counter,
// the FaultCounters, the conservation terms and the delay statistics of
// the bulk channel, the quick channel and the switch simulator (VOQ
// under the paranoid checker, and FIFO) are fixed to the values below.
// Any drift means a change altered faulted behaviour.

#include <gtest/gtest.h>

#include <memory>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"

namespace lcf {
namespace {

using fault::kAllLinks;
using fault::LinkKind;

// Every kind of fault at least once, all hosts in range and no two
// crash intervals of one host overlapping.
fault::FaultPlan faulted_plan() {
    fault::FaultPlan p;
    p.seed = 0xFA17;
    p.add_host_crash(2, 1000, 1600)
        .add_link_down({LinkKind::kData, 5}, 2000, 2300)
        .add_packet_loss({LinkKind::kUplink, kAllLinks}, 2500, 3500, 0.05, 0.1)
        .add_packet_loss({LinkKind::kAck, kAllLinks}, 2500, 3500, 0.05)
        .add_bit_error_epoch({LinkKind::kData, kAllLinks}, 3000, 4000, 2e-5)
        .add_bit_error_epoch({LinkKind::kAck, kAllLinks}, 3000, 4000, 1e-3)
        .add_bit_error_epoch({LinkKind::kDownlink, kAllLinks}, 3000, 4000, 1e-3)
        .add_scheduler_stall(4200, 4300);
    return p;
}

TEST(FaultGolden, BulkChannelUnderFaultPlan) {
    clint::BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 1234;
    c.bit_error_rate = 1e-6;
    c.max_retries = 6;
    c.exponential_backoff = true;
    c.paranoid = true;
    c.fault_plan = faulted_plan();
    clint::BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.7));
    while (sim.current_slot() < c.slots) {
        // Multicasts before, into (host 2 is down for 1000..1599) and
        // during the faults.
        const std::uint64_t s = sim.current_slot();
        if (s == 0 || s == 1100 || s == 3100) sim.enqueue_multicast(1, 0b10110101);
        if (s == 1200) sim.enqueue_multicast(2, 0b10110101);
        sim.step();
    }
    const auto r = sim.result();
    EXPECT_DOUBLE_EQ(r.mean_delay, 75.696188112770258);
    EXPECT_DOUBLE_EQ(r.max_delay, 1274.0);
    EXPECT_EQ(r.p50_delay, 7u);
    EXPECT_EQ(r.p99_delay, 800u);
    EXPECT_EQ(r.generated, 27884u);
    EXPECT_EQ(r.delivered_unique, 27373u);
    EXPECT_EQ(r.duplicate_deliveries, 529u);
    EXPECT_EQ(r.dropped_voq, 0u);
    EXPECT_EQ(r.config_crc_errors, 781u);
    EXPECT_EQ(r.grant_crc_errors, 318u);
    EXPECT_EQ(r.configs_lost, 421u);
    EXPECT_EQ(r.grants_lost, 0u);
    EXPECT_EQ(r.data_corruptions, 2693u);
    EXPECT_EQ(r.ack_losses, 530u);
    EXPECT_EQ(r.retransmissions, 3215u);
    EXPECT_EQ(r.abandoned, 6u);
    EXPECT_EQ(r.crash_lost, 423u);
    EXPECT_EQ(r.recovered, 1767u);
    EXPECT_DOUBLE_EQ(r.mean_recovery_delay, 23.7328805885682);
    EXPECT_EQ(r.multicast_copies, 19u);
    EXPECT_EQ(r.multicast_lost, 0u);
    EXPECT_DOUBLE_EQ(r.goodput, 0.68305555555555553);
    EXPECT_EQ(r.sched.cycles, 4900u);
    EXPECT_EQ(r.sched.requests, 143499u);
    EXPECT_EQ(r.sched.grants, 30879u);
    EXPECT_EQ(r.sched.empty_cycles, 0u);
    EXPECT_EQ(r.sched.max_matching, 8u);
    EXPECT_EQ(r.sched.max_starvation_age, 63u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_EQ(r.sched.stalled_cycles, 100u);
    EXPECT_EQ(r.faults.packets_dropped, 962u);
    EXPECT_EQ(r.faults.packets_truncated, 777u);
    EXPECT_EQ(r.faults.packets_corrupted, 318u);
    EXPECT_EQ(r.faults.bits_flipped, 325u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_EQ(r.faults.stalled_slots, 100u);
    const auto a = sim.accounting();
    EXPECT_EQ(a.generated, 27884u);
    EXPECT_EQ(a.delivered_unique, 27373u);
    EXPECT_EQ(a.queued, 81u);
    EXPECT_EQ(a.in_flight, 1u);
    EXPECT_EQ(a.dropped, 423u);
    EXPECT_EQ(a.abandoned, 6u);
    EXPECT_EQ(sim.buffered_total(), 82u);
}

TEST(FaultGolden, QuickChannelUnderFaultPlan) {
    clint::QuickChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 77;
    c.bit_error_rate = 1e-5;
    c.max_retries = 4;
    c.fault_plan = faulted_plan();
    clint::QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_DOUBLE_EQ(r.mean_delay, 3.824880382775115);
    EXPECT_DOUBLE_EQ(r.max_delay, 194.0);
    EXPECT_EQ(r.generated, 12066u);
    EXPECT_EQ(r.delivered_unique, 11683u);
    EXPECT_EQ(r.duplicate_deliveries, 299u);
    EXPECT_EQ(r.dropped_queue, 0u);
    EXPECT_EQ(r.collisions, 2730u);
    EXPECT_EQ(r.corruptions, 379u);
    EXPECT_EQ(r.fault_losses, 698u);
    EXPECT_EQ(r.retransmissions, 3596u);
    EXPECT_EQ(r.abandoned, 199u);
    EXPECT_EQ(r.abandoned_delivered, 11u);
    EXPECT_EQ(r.crash_lost, 183u);
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.9682579148019228);
    EXPECT_EQ(r.faults.packets_dropped, 238u);
    EXPECT_EQ(r.faults.packets_truncated, 0u);
    EXPECT_EQ(r.faults.packets_corrupted, 0u);
    EXPECT_EQ(r.faults.bits_flipped, 0u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_EQ(r.faults.stalled_slots, 100u);
    const auto a = sim.accounting();
    EXPECT_EQ(a.generated, 12066u);
    EXPECT_EQ(a.delivered_unique, 11683u);
    EXPECT_EQ(a.queued, 0u);
    EXPECT_EQ(a.in_flight, 1u);
    EXPECT_EQ(a.dropped, 183u);
    EXPECT_EQ(a.abandoned, 199u);
}

sim::SwitchSim faulted_switch(sim::SwitchMode mode) {
    sim::SimConfig c;
    c.ports = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 4242;
    c.mode = mode;
    c.paranoid = mode == sim::SwitchMode::kVoq;
    c.voq_capacity = 8;
    c.pq_capacity = 16;
    c.fifo_capacity = 16;
    c.fault_plan = faulted_plan();
    const bool voq = mode == sim::SwitchMode::kVoq;
    return sim::SwitchSim(c, core::make_scheduler(voq ? "lcf_central_rr" : "fifo"),
                          std::make_unique<traffic::BernoulliUniform>(voq ? 0.9 : 0.7));
}

std::size_t queued(const sim::SwitchSim& s) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < s.config().ports; ++i) {
        total += s.input_queue(i).size();
        if (s.config().mode == sim::SwitchMode::kVoq) total += s.voq(i).total_buffered();
    }
    return total;
}

TEST(FaultGolden, SwitchSimVoqParanoidUnderFaultPlan) {
    auto s = faulted_switch(sim::SwitchMode::kVoq);
    const auto r = s.run();
    EXPECT_DOUBLE_EQ(r.mean_delay, 15.493879455792078);
    EXPECT_DOUBLE_EQ(r.p50_delay, 6.0);
    EXPECT_DOUBLE_EQ(r.p99_delay, 116.0);
    EXPECT_DOUBLE_EQ(r.max_delay, 648.0);
    EXPECT_DOUBLE_EQ(r.offered_load, 0.90000000000000002);
    EXPECT_DOUBLE_EQ(r.throughput, 0.77505555555555561);
    EXPECT_EQ(r.generated, 35925u);
    EXPECT_EQ(r.delivered, 31452u);
    EXPECT_EQ(r.dropped, 4435u);
    EXPECT_EQ(r.measured, 27857u);
    EXPECT_EQ(r.fabric_blocked, 0u);
    EXPECT_DOUBLE_EQ(r.mean_choices, 3.4016761363636365);
    EXPECT_EQ(r.sched.cycles, 4900u);
    EXPECT_EQ(r.sched.requests, 133620u);
    EXPECT_EQ(r.sched.grants, 31452u);
    EXPECT_EQ(r.sched.empty_cycles, 519u);
    EXPECT_EQ(r.sched.max_matching, 8u);
    EXPECT_EQ(r.sched.max_starvation_age, 38u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_EQ(r.sched.stalled_cycles, 100u);
    EXPECT_EQ(r.faults.packets_dropped, 0u);
    EXPECT_EQ(r.faults.packets_truncated, 0u);
    EXPECT_EQ(r.faults.packets_corrupted, 0u);
    EXPECT_EQ(r.faults.bits_flipped, 0u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_EQ(r.faults.stalled_slots, 100u);
    EXPECT_EQ(queued(s), 38u);
}

TEST(FaultGolden, SwitchSimFifoUnderFaultPlan) {
    auto s = faulted_switch(sim::SwitchMode::kFifo);
    const auto r = s.run();
    EXPECT_DOUBLE_EQ(r.mean_delay, 26.821223098231489);
    EXPECT_DOUBLE_EQ(r.p50_delay, 23.0);
    EXPECT_DOUBLE_EQ(r.p99_delay, 124.0);
    EXPECT_DOUBLE_EQ(r.max_delay, 625.0);
    EXPECT_DOUBLE_EQ(r.offered_load, 0.69999999999999996);
    EXPECT_DOUBLE_EQ(r.throughput, 0.52411111111111108);
    EXPECT_EQ(r.generated, 27986u);
    EXPECT_EQ(r.delivered, 21363u);
    EXPECT_EQ(r.dropped, 6521u);
    EXPECT_EQ(r.measured, 18772u);
    EXPECT_EQ(r.fabric_blocked, 0u);
    EXPECT_DOUBLE_EQ(r.mean_choices, 0.0);
    EXPECT_EQ(r.sched.cycles, 4900u);
    EXPECT_EQ(r.sched.requests, 34393u);
    EXPECT_EQ(r.sched.grants, 21363u);
    EXPECT_EQ(r.sched.empty_cycles, 581u);
    EXPECT_EQ(r.sched.max_matching, 8u);
    EXPECT_EQ(r.sched.max_starvation_age, 0u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_EQ(r.sched.stalled_cycles, 100u);
    EXPECT_EQ(r.faults.packets_dropped, 0u);
    EXPECT_EQ(r.faults.packets_truncated, 0u);
    EXPECT_EQ(r.faults.packets_corrupted, 0u);
    EXPECT_EQ(r.faults.bits_flipped, 0u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_EQ(r.faults.stalled_slots, 100u);
    EXPECT_EQ(queued(s), 102u);
}

}  // namespace
}  // namespace lcf
