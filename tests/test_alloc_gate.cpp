// Allocation gate: a warm simulated slot must not touch the heap. This
// executable replaces the global operator new with a counting one (which
// is why it is not part of lcf_tests). It runs
//  - the Clint bulk and quick channels in lockstep at the repository
//    benchmark's clint_faulted configuration: 16 hosts, bit-error rate
//    1e-5, bounded retries with exponential backoff, multicasts and a
//    plan with a host crash, a downlink outage, a scheduler stall and an
//    uplink bit-error epoch, all inside the measured window;
//  - SwitchSim at 16 ports and load 0.9 in kVoq mode (speedup 1 and 2),
//    kFifo and kOutputBuffered mode, and at 256 ports in kVoq mode with
//    islip, each with an empty plan and with a crash, a stall and a
//    bit-error epoch inside the window;
//  - schedule() of every registered scheduler on prebuilt request
//    matrices, and distributed and central LCF (with the precalculated
//    path) at 256 ports, where no warm call may allocate at all.
// After a warm-up a window may allocate at most one hundredth of its
// slot (or call) count (the Clint channels one four-hundredth), so a
// single allocation per slot overshoots the budget 100-fold (400-fold).
// What a warm window does allocate is containers growing to a new
// high-water mark: in the bulk channel its VOQ node pools, retransmit
// and outstanding lists and delay histogram, 58 times in its window.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>

#include <string>
#include <vector>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "core/factory.hpp"
#include "core/lcf_central.hpp"
#include "core/precalc.hpp"
#include "fault/fault_plan.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/traffic.hpp"
#include "util/bitvec.hpp"
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

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kWindow = 40000;
constexpr std::uint64_t kSlots = kWarmup + kWindow;
constexpr std::size_t kBudget = kWindow / 400;

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

namespace lcf {
namespace {

constexpr std::uint64_t kSimWarmup = 20000;
constexpr std::uint64_t kSimWindow = 20000;
constexpr std::size_t kSimBudget = kSimWindow / 100;
constexpr std::size_t kPorts = 16;

struct SimCase {
    const char* name;
    sim::SwitchMode mode;
    std::size_t speedup;
    bool faults;
    std::size_t ports = kPorts;
    const char* scheduler = "lcf_central";  // kVoq only
};

// Allocations made by the steps of one warm SwitchSim window.
std::size_t switch_sim_window(const SimCase& c) {
    sim::SimConfig config;
    config.ports = c.ports;
    config.slots = kSimWarmup + kSimWindow;
    config.warmup_slots = kSimWarmup;
    config.mode = c.mode;
    config.speedup = c.speedup;
    if (c.faults) {
        constexpr std::uint64_t at = kSimWarmup;
        constexpr std::uint64_t w = kSimWindow;
        config.fault_plan.add_host_crash(3, at + w / 4, at + w / 4 + 400)
            .add_scheduler_stall(at + 3 * w / 4, at + 3 * w / 4 + 64)
            .add_bit_error_epoch({fault::LinkKind::kData, fault::kAllLinks},
                                 at + w / 3, at + w / 3 + 2000, 1e-4);
    }
    std::unique_ptr<sched::Scheduler> scheduler;
    if (c.mode == sim::SwitchMode::kVoq) {
        scheduler = core::make_scheduler(c.scheduler);
    } else if (c.mode == sim::SwitchMode::kFifo) {
        scheduler = core::make_scheduler("fifo");
    }
    sim::SwitchSim s(config, std::move(scheduler),
                     traffic::make_traffic("uniform", 0.9));
    for (std::uint64_t t = 0; t < kSimWarmup; ++t) s.step();
    const std::size_t before = g_allocations;
    for (std::uint64_t t = 0; t < kSimWindow; ++t) s.step();
    const std::size_t allocations = g_allocations - before;
    if (c.faults) {
        // The crash and the stall fell inside the window.
        const sim::SimResult r = s.result();
        EXPECT_EQ(r.faults.crashes, 1u) << c.name;
        EXPECT_EQ(r.faults.stalled_slots, 64u) << c.name;
    }
    return allocations;
}

TEST(AllocationGate, WarmSwitchSimStaysUnderBudget) {
    using sim::SwitchMode;
    const SimCase cases[] = {
        {"voq", SwitchMode::kVoq, 1, false},
        {"voq faulted", SwitchMode::kVoq, 1, true},
        {"voq speedup 2", SwitchMode::kVoq, 2, false},
        {"voq speedup 2 faulted", SwitchMode::kVoq, 2, true},
        {"fifo", SwitchMode::kFifo, 1, false},
        {"fifo faulted", SwitchMode::kFifo, 1, true},
        {"outbuf", SwitchMode::kOutputBuffered, 1, false},
        {"outbuf faulted", SwitchMode::kOutputBuffered, 1, true},
        // The benchmark's geometry: 256 VOQs per input.
        {"voq 256 islip", SwitchMode::kVoq, 1, false, 256, "islip"},
        {"voq 256 islip faulted", SwitchMode::kVoq, 1, true, 256, "islip"},
    };
    for (const SimCase& c : cases) {
        const std::size_t allocations = switch_sim_window(c);
        EXPECT_LE(allocations, kSimBudget)
            << "SwitchSim (" << c.name << ") allocated " << allocations
            << " times in " << kSimWindow << " warm slots";
        std::cout << "SwitchSim " << c.name << ": " << allocations
                  << " allocations in " << kSimWindow
                  << " warm slots (budget " << kSimBudget << ")\n";
    }
}

constexpr std::size_t kMatrices = 64;
constexpr std::size_t kScheduleWarmup = 2000;
constexpr std::size_t kScheduleCalls = 20000;
constexpr std::size_t kScheduleBudget = kScheduleCalls / 100;

TEST(AllocationGate, WarmScheduleCallsStayUnderBudget) {
    // Request matrices at densities from 1/8 to 1 and VOQ lengths for
    // the weight-aware schedulers, all built before anything is counted.
    util::Xoshiro256 rng(7);
    std::vector<sched::RequestMatrix> requests;
    std::vector<std::vector<std::uint32_t>> lengths;
    util::BitVec row(kPorts);
    for (std::size_t m = 0; m < kMatrices; ++m) {
        const double density = static_cast<double>(m % 8 + 1) / 8.0;
        sched::RequestMatrix r(kPorts);
        std::vector<std::uint32_t> len(kPorts * kPorts, 0);
        for (std::size_t i = 0; i < kPorts; ++i) {
            row.clear();
            for (std::size_t j = 0; j < kPorts; ++j) {
                if (rng.next_bool(density)) {
                    row.set(j);
                    len[i * kPorts + j] =
                        1 + static_cast<std::uint32_t>(rng.next_below(8));
                }
            }
            r.assign_row(i, row);
        }
        requests.push_back(std::move(r));
        lengths.push_back(std::move(len));
    }
    for (const std::string& name : core::scheduler_names()) {
        auto scheduler = core::make_scheduler(name);
        scheduler->reset(kPorts, kPorts);
        sched::Matching matching(kPorts);
        const bool weighted = scheduler->wants_queue_lengths();
        std::size_t before = 0;
        for (std::size_t call = 0; call < kScheduleWarmup + kScheduleCalls;
             ++call) {
            if (call == kScheduleWarmup) before = g_allocations;
            const std::size_t m = call % kMatrices;
            if (weighted) scheduler->observe_queue_lengths(lengths[m], kPorts);
            scheduler->schedule(requests[m], matching);
        }
        const std::size_t allocations = g_allocations - before;
        EXPECT_LE(allocations, kScheduleBudget)
            << name << " allocated " << allocations << " times in "
            << kScheduleCalls << " warm schedule() calls";
        std::cout << name << ": " << allocations << " allocations in "
                  << kScheduleCalls << " warm schedule() calls (budget "
                  << kScheduleBudget << ")\n";
    }
}

constexpr std::size_t kBigPorts = 256;

// Request matrices at the benchmark's 256 ports, from the simulator's
// sparse density up to full.
std::vector<sched::RequestMatrix> big_requests() {
    constexpr double kBigDensities[] = {0.02, 0.125, 0.25, 0.5, 0.75, 1.0};
    util::Xoshiro256 rng(11);
    std::vector<sched::RequestMatrix> requests;
    util::BitVec row(kBigPorts);
    for (const double density : kBigDensities) {
        sched::RequestMatrix r(kBigPorts);
        for (std::size_t i = 0; i < kBigPorts; ++i) {
            for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                row.set_word(wi, rng.next_bernoulli_word(density));
            }
            r.assign_row(i, row);
        }
        requests.push_back(std::move(r));
    }
    return requests;
}

// Runs call(k) for k in [0, warm-up + 600) and expects no allocation
// in the 600 calls after the warm-up.
template <class Call>
void expect_warm_calls_allocate_nothing(const std::string& name, Call call) {
    constexpr std::size_t kWarmup = 60;
    constexpr std::size_t kCalls = 600;
    std::size_t before = 0;
    for (std::size_t k = 0; k < kWarmup + kCalls; ++k) {
        if (k == kWarmup) before = g_allocations;
        call(k);
    }
    const std::size_t allocations = g_allocations - before;
    EXPECT_EQ(allocations, 0u)
        << name << " allocated " << allocations << " times in " << kCalls
        << " warm schedule() calls at " << kBigPorts << " ports";
    std::cout << name << " at " << kBigPorts << " ports: " << allocations
              << " allocations in " << kCalls << " warm schedule() calls\n";
}

// Distributed LCF and the arbiter-based matchers at the benchmark's 256
// ports: full rows put every input on lcf_dist's top NRQ level, so its
// level tables reach their largest index, and every round the matchers
// run fills their grant and offer state. All of it is sized once per
// geometry, so the warm window allocates nothing at all.
TEST(AllocationGate, WarmLcfDistCallsAt256PortsAllocateNothing) {
    const std::vector<sched::RequestMatrix> requests = big_requests();
    for (const std::string name : {"lcf_dist", "lcf_dist_rr", "islip", "rrm",
                                   "pim", "ilqf", "fifo"}) {
        auto scheduler = core::make_scheduler(name);
        scheduler->reset(kBigPorts, kBigPorts);
        sched::Matching matching(kBigPorts);
        expect_warm_calls_allocate_nothing(name, [&](std::size_t k) {
            scheduler->schedule(requests[k % requests.size()], matching);
        });
    }
}

// Central LCF at 256 ports, through schedule() and through the two-stage
// precalculated path: its per-output scratch is sized once per geometry.
TEST(AllocationGate, WarmLcfCentralCallsAt256PortsAllocateNothing) {
    const std::vector<sched::RequestMatrix> requests = big_requests();
    for (const std::string name :
         {"lcf_central", "lcf_central_rr", "lcf_central_rr_first"}) {
        auto scheduler = core::make_scheduler(name);
        scheduler->reset(kBigPorts, kBigPorts);
        sched::Matching matching(kBigPorts);
        expect_warm_calls_allocate_nothing(name, [&](std::size_t k) {
            scheduler->schedule(requests[k % requests.size()], matching);
        });
    }

    // Sparse claims, some of them conflicting, so stage 1 both admits
    // and drops; each schedule's drop count is fixed, so the drop list
    // stops growing within the warm-up.
    util::Xoshiro256 rng(12);
    std::vector<core::PrecalcSchedule> precalcs(
        3, core::PrecalcSchedule(kBigPorts));
    for (auto& precalc : precalcs) {
        for (std::size_t i = 0; i < kBigPorts; ++i) {
            for (std::size_t j = 0; j < kBigPorts; ++j) {
                if (rng.next_bool(0.005)) precalc.claim(i, j);
            }
        }
    }
    core::LcfCentralScheduler scheduler;
    scheduler.reset(kBigPorts, kBigPorts);
    core::MulticastResult result;
    expect_warm_calls_allocate_nothing(
        "lcf_central_rr schedule_with_precalc", [&](std::size_t k) {
            scheduler.schedule_with_precalc(requests[k % requests.size()],
                                            precalcs[k % precalcs.size()],
                                            result);
        });
}

}  // namespace
}  // namespace lcf
