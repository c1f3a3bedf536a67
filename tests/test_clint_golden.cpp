// Exact pins for the Clint channels across host counts. FaultGolden pins
// one 8-host geometry; these add the quick channel at 1, 3, 17 and 67
// hosts (hotspot traffic at load 0.9 plus bursts of control packets, so
// every host collides on one target and the rotating priority pointer
// wraps) and the bulk channel at 1, 5 and 16 hosts (bit errors on every
// link plus loss-and-truncation epochs on the config and grant wires).
// Each row holds every result counter, the conservation terms and the
// delay statistics; a failing row's message is the corrected table line.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/hotspot.hpp"

namespace lcf::clint {
namespace {

using fault::kAllLinks;
using fault::LinkKind;

// The table line for one run: doubles round-trip through %.17g.
std::string row_line(std::size_t hosts, std::initializer_list<double> reals,
                     std::span<const std::uint64_t> counts) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "{%zu, ", hosts);
    std::string line = buf;
    for (const double d : reals) {
        std::snprintf(buf, sizeof buf, "%.17g, ", d);
        line += buf;
    }
    line += "{";
    for (const auto v : counts) {
        std::snprintf(buf, sizeof buf, "%llu, ",
                      static_cast<unsigned long long>(v));
        line += buf;
    }
    line.resize(line.size() - 2);
    return line + "}},";
}

// ---------------------------------------------------------------------
// Quick channel
// ---------------------------------------------------------------------

struct QuickPin {
    std::size_t hosts;
    double mean_delay;
    double max_delay;
    // generated, delivered_unique, duplicate_deliveries, dropped_queue,
    // collisions, corruptions, fault_losses, retransmissions, abandoned,
    // abandoned_delivered, crash_lost, control_sent,
    // control_preemptions, control_lost, queued, in_flight, dropped
    std::uint64_t counts[17];
};

// clang-format off
const QuickPin kQuickPins[] = {
    {1, 7.8991205380237908, 19, {2708, 2193, 15, 235, 0, 243, 0, 242, 0, 0, 271, 16, 14, 0, 8, 1, 506}},
    {3, 20.762267904509244, 40, {8088, 3413, 22, 4265, 2121, 409, 111, 2510, 109, 5, 277, 48, 40, 1, 23, 1, 4542}},
    {17, 33.946765054684342, 64, {45917, 8508, 32, 33160, 20062, 970, 97, 17141, 3827, 20, 277, 272, 187, 1, 132, 13, 33437}},
    {67, 36.643591971103078, 68, {180918, 24676, 142, 135627, 85194, 2858, 83, 67772, 19766, 13, 277, 1072, 650, 1, 516, 56, 135904}},
};
// clang-format on

TEST(ClintGolden, QuickChannelAcrossHostCounts) {
    for (const QuickPin& pin : kQuickPins) {
        const std::size_t n = pin.hosts;
        QuickChannelConfig c;
        c.hosts = n;
        c.queue_capacity = 8;
        c.slots = 3000;
        c.warmup_slots = 300;
        c.seed = 31;
        c.bit_error_rate = 1e-4;
        c.max_retries = 3;
        // Host 0 is down across one burst, so control packets to it are
        // lost and its own queue dies with it.
        c.fault_plan.seed = 0xC11;
        c.fault_plan.add_host_crash(0, 1200, 1500);
        QuickChannelSim sim(c, std::make_unique<traffic::HotspotTraffic>(
                                   0.9, 0.5, n - 1));
        while (sim.current_slot() < c.slots) {
            const std::uint64_t s = sim.current_slot();
            if (s % 400 == 17) {
                // Every host sends control to one target (all collide)...
                for (std::size_t h = 0; h < n; ++h) {
                    sim.inject_control(h, (s / 400) % n);
                }
                // ...and a second round spreads over a shifted permutation.
                for (std::size_t h = 0; h < n; ++h) {
                    sim.inject_control(h, (h + s / 400) % n);
                }
            }
            sim.step();
        }
        const auto r = sim.result();
        const auto a = sim.accounting();
        const std::uint64_t got[17] = {
            r.generated, r.delivered_unique, r.duplicate_deliveries,
            r.dropped_queue, r.collisions, r.corruptions, r.fault_losses,
            r.retransmissions, r.abandoned, r.abandoned_delivered,
            r.crash_lost, sim.control_sent(), sim.control_preemptions(),
            sim.control_lost(), a.queued, a.in_flight, a.dropped};
        SCOPED_TRACE(row_line(n, {r.mean_delay, r.max_delay}, got));
        EXPECT_TRUE(a.balanced());
        EXPECT_DOUBLE_EQ(r.mean_delay, pin.mean_delay);
        EXPECT_DOUBLE_EQ(r.max_delay, pin.max_delay);
        for (std::size_t k = 0; k < 17; ++k) {
            EXPECT_EQ(got[k], pin.counts[k]) << "hosts " << n << " field " << k;
        }
    }
}

// ---------------------------------------------------------------------
// Bulk channel
// ---------------------------------------------------------------------

struct BulkPin {
    std::size_t hosts;
    double mean_delay;
    double mean_recovery_delay;
    double goodput;
    // p50_delay, p99_delay, generated, delivered_unique,
    // duplicate_deliveries, dropped_voq, config_crc_errors,
    // grant_crc_errors, configs_lost, grants_lost, data_corruptions,
    // ack_losses, retransmissions, abandoned, recovered,
    // multicast_copies, multicast_lost, faults.packets_dropped,
    // faults.packets_truncated, faults.packets_corrupted,
    // faults.bits_flipped, queued, in_flight, sched.grants
    std::uint64_t counts[24];
};

// clang-format off
const BulkPin kBulkPins[] = {
    {1, 103.9525222551928, 9.3729508196721323, 0.37518518518518518, {92, 273, 1130, 1128, 61, 0, 612, 515, 82, 82, 332, 61, 391, 0, 244, 1, 0, 164, 810, 0, 0, 1, 1, 1933}},
    {5, 141.14285714285748, 16.546485260770961, 0.3925925925925926, {118, 469, 5961, 5893, 369, 0, 3216, 2616, 379, 378, 1845, 375, 2205, 1, 1323, 9, 0, 757, 4249, 0, 0, 59, 8, 10174}},
    {16, 146.18268159699818, 30.514519906323127, 0.39546296296296296, {74, 668, 19207, 18981, 1221, 0, 10271, 8404, 1189, 1192, 5978, 1237, 7192, 1, 4270, 25, 0, 2381, 13761, 0, 0, 218, 7, 32893}},
};
// clang-format on

TEST(ClintGolden, BulkChannelAcrossHostCounts) {
    for (const BulkPin& pin : kBulkPins) {
        const std::size_t n = pin.hosts;
        BulkChannelConfig c;
        c.hosts = n;
        c.slots = 3000;
        c.warmup_slots = 300;
        c.seed = 57;
        c.bit_error_rate = 1e-3;
        c.payload_bits = 256;
        c.max_retries = 5;
        c.exponential_backoff = true;
        // Loss with truncation on both control wires, so cut config and
        // grant frames reach the decoders.
        c.fault_plan.seed = 0xB17;
        c.fault_plan
            .add_packet_loss({LinkKind::kUplink, kAllLinks}, 500, 2000, 0.05,
                             0.3)
            .add_packet_loss({LinkKind::kDownlink, kAllLinks}, 1000, 2500,
                             0.05, 0.3);
        BulkChannelSim sim(c,
                           std::make_unique<traffic::BernoulliUniform>(0.4));
        const auto all = static_cast<std::uint16_t>((1U << n) - 1);
        while (sim.current_slot() < c.slots) {
            const std::uint64_t s = sim.current_slot();
            if (s == 100 || s == 1500) sim.enqueue_multicast(n / 2, all);
            sim.step();
        }
        const auto r = sim.result();
        const auto a = sim.accounting();
        const std::uint64_t got[24] = {
            r.p50_delay, r.p99_delay, r.generated, r.delivered_unique,
            r.duplicate_deliveries, r.dropped_voq, r.config_crc_errors,
            r.grant_crc_errors, r.configs_lost, r.grants_lost,
            r.data_corruptions, r.ack_losses, r.retransmissions, r.abandoned,
            r.recovered, r.multicast_copies, r.multicast_lost,
            r.faults.packets_dropped, r.faults.packets_truncated,
            r.faults.packets_corrupted, r.faults.bits_flipped, a.queued,
            a.in_flight, r.sched.grants};
        SCOPED_TRACE(row_line(
            n, {r.mean_delay, r.mean_recovery_delay, r.goodput}, got));
        EXPECT_TRUE(a.balanced());
        EXPECT_DOUBLE_EQ(r.mean_delay, pin.mean_delay);
        EXPECT_DOUBLE_EQ(r.mean_recovery_delay, pin.mean_recovery_delay);
        EXPECT_DOUBLE_EQ(r.goodput, pin.goodput);
        for (std::size_t k = 0; k < 24; ++k) {
            EXPECT_EQ(got[k], pin.counts[k]) << "hosts " << n << " field " << k;
        }
    }
}

}  // namespace
}  // namespace lcf::clint
