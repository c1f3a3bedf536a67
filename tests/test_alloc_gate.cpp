// Allocation gate: a warm Clint slot must not touch the heap. This
// executable replaces the global operator new with a counting one (which
// is why it is not part of lcf_tests) and runs the bulk and quick
// channels in lockstep at the repository benchmark's clint_faulted
// configuration: 16 hosts, bit-error rate 1e-5, bounded retries with
// exponential backoff, multicasts and a plan with a host crash, a
// downlink outage, a scheduler stall and an uplink bit-error epoch, all
// inside the measured window. After a warm-up the window may allocate at
// most one hundredth of its slot count, so a single allocation per slot
// overshoots the budget 100-fold. What a warm window does allocate is
// containers growing to a new high-water mark, mostly the sequence
// trackers' per-flow reorder lists: 165 times in this window, about as
// often in a window after a warm-up twice as long.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "fault/fault_plan.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
    ++g_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++g_allocations;
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace lcf::clint {
namespace {

constexpr std::uint64_t kWarmup = 40000;
constexpr std::uint64_t kWindow = 40000;
constexpr std::uint64_t kSlots = kWarmup + kWindow;
constexpr std::size_t kBudget = kWindow / 100;

// The clint_faulted plan (perfbench/src/workloads.cpp), its faults placed
// at the same fractions of the measured window.
fault::FaultPlan faulted_plan() {
    constexpr std::uint64_t w = kWindow;
    constexpr std::uint64_t at = kWarmup;
    fault::FaultPlan plan;
    plan.seed = util::derive_seed(1, 5);
    plan.add_host_crash(3, at + w / 4, at + w / 4 + 400)
        .add_link_down({fault::LinkKind::kDownlink, 5}, at + w / 2,
                       at + w / 2 + 200)
        .add_scheduler_stall(at + 3 * w / 4, at + 3 * w / 4 + 64)
        .add_bit_error_epoch({fault::LinkKind::kUplink, fault::kAllLinks},
                             at + w / 3, at + w / 3 + 2000, 1e-4);
    return plan;
}

BulkChannelConfig bulk_config() {
    BulkChannelConfig c;
    c.hosts = 16;
    c.slots = kSlots;
    c.warmup_slots = kWarmup;
    c.seed = util::derive_seed(1, 3);
    c.bit_error_rate = 1e-5;
    c.max_retries = 8;
    c.exponential_backoff = true;
    c.fault_plan = faulted_plan();
    return c;
}

QuickChannelConfig quick_config() {
    QuickChannelConfig c;
    c.hosts = 16;
    c.slots = kSlots;
    c.warmup_slots = kWarmup;
    c.seed = util::derive_seed(1, 4);
    c.bit_error_rate = 1e-5;
    c.fault_plan = faulted_plan();
    return c;
}

// Allocations made by the steps of the measured window.
struct WindowCounts {
    std::size_t bulk = 0;
    std::size_t quick = 0;
};

WindowCounts run_window() {
    BulkChannelSim bulk(bulk_config(), traffic::make_traffic("uniform", 0.6));
    QuickChannelSim quick(quick_config(),
                          traffic::make_traffic("uniform", 0.2));
    WindowCounts counts;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        if (t == 0 || t == kWarmup + kWindow / 2) {
            bulk.enqueue_multicast(t == 0 ? 0 : 12, 0x00F0);
        }
        const std::size_t before_bulk = g_allocations;
        bulk.step();
        const std::size_t before_quick = g_allocations;
        for (const auto& [target, initiator] : bulk.last_acks()) {
            quick.inject_control(target, initiator);
        }
        quick.step();
        if (t >= kWarmup) {
            counts.bulk += before_quick - before_bulk;
            counts.quick += g_allocations - before_quick;
        }
    }
    // Every fault fired (inside the window, by the plan), so the window
    // covers their paths.
    const BulkChannelResult r = bulk.result();
    EXPECT_GT(r.faults.crashes, 0u);
    EXPECT_GT(r.faults.stalled_slots, 0u);
    EXPECT_GT(r.grants_lost, 0u);
    EXPECT_GT(r.config_crc_errors, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    return counts;
}

TEST(AllocationGate, CountingOperatorNewSeesAllocations) {
    const std::size_t before = g_allocations;
    auto p = std::make_unique<std::uint64_t>(1);
    EXPECT_EQ(g_allocations, before + 1);
}

TEST(AllocationGate, WarmClintChannelsStayUnderBudget) {
    const WindowCounts counts = run_window();
    EXPECT_LE(counts.bulk, kBudget)
        << "BulkChannelSim allocated " << counts.bulk << " times in "
        << kWindow << " warm slots";
    EXPECT_LE(counts.quick, kBudget)
        << "QuickChannelSim allocated " << counts.quick << " times in "
        << kWindow << " warm slots";
    std::cout << "allocations in " << kWindow << " warm slots: bulk "
              << counts.bulk << ", quick " << counts.quick << " (budget "
              << kBudget << " each)\n";
}

}  // namespace
}  // namespace lcf::clint
