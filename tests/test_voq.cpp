// Tests for the VOQ bank: routing by destination, which queues are
// non-empty, per-queue capacity, construction bounds, and a differential
// run of the shared node pool against a per-queue std::deque model.

#include "sim/voq.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace lcf::sim {
namespace {

TEST(VoqBank, RoutesByDestination) {
    VoqBank bank(4, 8);
    EXPECT_TRUE(bank.push(Packet{0, 0, 2, 0}));
    EXPECT_TRUE(bank.push(Packet{1, 0, 2, 0}));
    EXPECT_TRUE(bank.push(Packet{2, 0, 3, 0}));
    EXPECT_EQ(bank.size(2), 2u);
    EXPECT_EQ(bank.size(3), 1u);
    EXPECT_EQ(bank.size(0), 0u);
    EXPECT_EQ(bank.total_buffered(), 3u);
}

TEST(VoqBank, OccupancyReflectsPushes) {
    VoqBank bank(4, 8);
    bank.push(Packet{0, 0, 1, 0});
    bank.push(Packet{1, 0, 3, 0});
    EXPECT_TRUE(bank.empty(0));
    EXPECT_FALSE(bank.empty(1));
    EXPECT_TRUE(bank.empty(2));
    EXPECT_FALSE(bank.empty(3));
    EXPECT_EQ(bank.total_buffered(), 2u);
}

TEST(VoqBank, PerQueueCapacityEnforced) {
    VoqBank bank(2, 2);
    EXPECT_TRUE(bank.push(Packet{0, 0, 1, 0}));
    EXPECT_TRUE(bank.push(Packet{1, 0, 1, 0}));
    EXPECT_TRUE(bank.full(1));
    EXPECT_FALSE(bank.push(Packet{2, 0, 1, 0}));  // queue 1 is full
    EXPECT_EQ(bank.size(1), 2u);
    EXPECT_TRUE(bank.push(Packet{3, 0, 0, 0}));   // queue 0 has space
}

TEST(VoqBank, OccupancyEmptiesAfterDrain) {
    VoqBank bank(3, 4);
    bank.push(Packet{0, 0, 2, 0});
    EXPECT_EQ(bank.total_buffered(), 1u);
    bank.pop(2);
    EXPECT_TRUE(bank.empty(2));
    EXPECT_EQ(bank.size(2), 0u);
}

TEST(VoqBank, RejectsZeroCapacity) {
    EXPECT_THROW(VoqBank(4, 0), std::invalid_argument);
}

TEST(VoqBank, RejectsCapacityBeyondNodeIndex) {
    EXPECT_THROW(VoqBank(2, VoqBank::kMaxNodes / 2 + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(VoqBank(2, VoqBank::kMaxNodes / 2));
}

// Seeded random pushes and pops over a 5-output, capacity-3 bank, checked
// after every operation against one std::deque per queue. Pushes
// outnumber pops 3:2, so the run keeps hitting full queues; forced
// drains every 64 operations empty the bank so the free list is
// exercised from empty to full and back.
TEST(VoqBank, MatchesDequeModel) {
    constexpr std::size_t kOutputs = 5;
    constexpr std::size_t kCapacity = 3;
    VoqBank bank(kOutputs, kCapacity);
    std::vector<std::deque<Packet>> model(kOutputs);
    util::Xoshiro256 rng(20260517);
    std::uint64_t next_id = 0;

    const auto check_state = [&](std::size_t op) {
        std::size_t total = 0;
        for (std::size_t j = 0; j < kOutputs; ++j) {
            ASSERT_EQ(bank.size(j), model[j].size()) << "op " << op;
            ASSERT_EQ(bank.empty(j), model[j].empty()) << "op " << op;
            ASSERT_EQ(bank.full(j), model[j].size() == kCapacity)
                << "op " << op;
            total += model[j].size();
        }
        ASSERT_EQ(bank.total_buffered(), total) << "op " << op;
    };
    const auto pop_and_compare = [&](std::size_t j, std::size_t op) {
        const Packet got = bank.pop(j);
        const Packet want = model[j].front();
        model[j].pop_front();
        ASSERT_EQ(got.id, want.id) << "op " << op;
        ASSERT_EQ(got.source, want.source) << "op " << op;
        ASSERT_EQ(got.destination, want.destination) << "op " << op;
        ASSERT_EQ(got.generated_slot, want.generated_slot) << "op " << op;
        ASSERT_EQ(got.flow_seq, want.flow_seq) << "op " << op;
    };

    std::size_t rejected = 0;
    std::size_t drains = 0;
    for (std::size_t op = 0; op < 4000; ++op) {
        if (op % 64 == 63) {
            for (std::size_t j = 0; j < kOutputs; ++j) {
                while (!model[j].empty()) {
                    ASSERT_NO_FATAL_FAILURE(pop_and_compare(j, op));
                }
            }
            ASSERT_EQ(bank.total_buffered(), 0u);
            ++drains;
            continue;
        }
        const auto j = static_cast<std::size_t>(rng.next_below(kOutputs));
        if (rng.next_below(5) < 3) {
            const Packet p{next_id, 4, static_cast<std::uint32_t>(j),
                           op, next_id * 7 + 1};
            ++next_id;
            const bool accepted = bank.push(p);
            ASSERT_EQ(accepted, model[j].size() < kCapacity) << "op " << op;
            if (accepted) {
                model[j].push_back(p);
            } else {
                ++rejected;
            }
        } else if (!model[j].empty()) {
            ASSERT_NO_FATAL_FAILURE(pop_and_compare(j, op));
        }
        ASSERT_NO_FATAL_FAILURE(check_state(op));
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(drains, 0u);
}

}  // namespace
}  // namespace lcf::sim
