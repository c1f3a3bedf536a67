// Tests for the VOQ bank: routing by destination, occupancy/request
// vectors, and per-queue capacity.

#include "sim/voq.hpp"

#include <gtest/gtest.h>

namespace lcf::sim {
namespace {

TEST(VoqBank, RoutesByDestination) {
    VoqBank bank(4, 8);
    EXPECT_TRUE(bank.push(Packet{0, 0, 2, 0}));
    EXPECT_TRUE(bank.push(Packet{1, 0, 2, 0}));
    EXPECT_TRUE(bank.push(Packet{2, 0, 3, 0}));
    EXPECT_EQ(bank.queue(2).size(), 2u);
    EXPECT_EQ(bank.queue(3).size(), 1u);
    EXPECT_EQ(bank.queue(0).size(), 0u);
    EXPECT_EQ(bank.total_buffered(), 3u);
}

TEST(VoqBank, OccupancyReflectsPushes) {
    VoqBank bank(4, 8);
    bank.push(Packet{0, 0, 1, 0});
    bank.push(Packet{1, 0, 3, 0});
    const auto& req = bank.occupancy();
    EXPECT_FALSE(req.test(0));
    EXPECT_TRUE(req.test(1));
    EXPECT_FALSE(req.test(2));
    EXPECT_TRUE(req.test(3));
    EXPECT_EQ(req.count(), 2u);
}

TEST(VoqBank, PerQueueCapacityEnforced) {
    VoqBank bank(2, 2);
    EXPECT_TRUE(bank.push(Packet{0, 0, 1, 0}));
    EXPECT_TRUE(bank.push(Packet{1, 0, 1, 0}));
    EXPECT_FALSE(bank.push(Packet{2, 0, 1, 0}));  // queue 1 is full
    EXPECT_TRUE(bank.push(Packet{3, 0, 0, 0}));   // queue 0 has space
}

TEST(VoqBank, OccupancyEmptiesAfterDrain) {
    VoqBank bank(3, 4);
    bank.push(Packet{0, 0, 2, 0});
    EXPECT_EQ(bank.occupancy().count(), 1u);
    bank.pop(2);
    EXPECT_TRUE(bank.occupancy().none());
}

}  // namespace
}  // namespace lcf::sim
