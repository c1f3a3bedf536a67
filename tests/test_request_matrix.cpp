// Tests for RequestMatrix: bit accounting, row/column counts (NRQ/NGT),
// and the test-helper constructor.

#include "sched/request_matrix.hpp"

#include <gtest/gtest.h>

namespace lcf::sched {
namespace {

TEST(RequestMatrix, StartsEmpty) {
    const RequestMatrix m(4);
    EXPECT_EQ(m.inputs(), 4u);
    EXPECT_EQ(m.outputs(), 4u);
    EXPECT_EQ(m.total(), 0u);
}

TEST(RequestMatrix, RectangularShape) {
    const RequestMatrix m(3, 5);
    EXPECT_EQ(m.inputs(), 3u);
    EXPECT_EQ(m.outputs(), 5u);
}

TEST(RequestMatrix, SetGetClear) {
    RequestMatrix m(4);
    m.set(1, 2);
    EXPECT_TRUE(m.get(1, 2));
    EXPECT_FALSE(m.get(2, 1));
    m.set(1, 2, false);
    EXPECT_FALSE(m.get(1, 2));
    m.set(0, 0);
    m.set(3, 3);
    m.clear();
    EXPECT_EQ(m.total(), 0u);
}

TEST(RequestMatrix, RowAndColumnCounts) {
    // The paper's Figure 3 example: NRQ column must read 2, 3, 3, 1.
    const RequestMatrix m = make_requests(
        4, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3},
            {3, 1}});
    EXPECT_EQ(m.row_count(0), 2u);
    EXPECT_EQ(m.row_count(1), 3u);
    EXPECT_EQ(m.row_count(2), 3u);
    EXPECT_EQ(m.row_count(3), 1u);
    // NGT per target: T0 has 2 requesters, T1 2, T2 3, T3 2.
    EXPECT_EQ(m.col_count(0), 2u);
    EXPECT_EQ(m.col_count(1), 2u);
    EXPECT_EQ(m.col_count(2), 3u);
    EXPECT_EQ(m.col_count(3), 2u);
    EXPECT_EQ(m.total(), 9u);
}

TEST(RequestMatrix, RowBitVecMatchesGets) {
    RequestMatrix m(8);
    m.set(2, 0);
    m.set(2, 7);
    const auto& row = m.row(2);
    EXPECT_TRUE(row.test(0));
    EXPECT_TRUE(row.test(7));
    EXPECT_EQ(row.count(), 2u);
}

TEST(RequestMatrix, MaskDownPortsClearsRowsAndColumns) {
    auto r = make_requests(4, {{0, 1}, {0, 2}, {1, 0}, {2, 2}, {3, 1}});
    ASSERT_EQ(r.col_count(1), 2u);  // column view built before masking
    util::BitVec down(4);
    r.mask_down_ports(down);  // nothing down: unchanged
    EXPECT_EQ(r.total(), 5u);
    down.set(1);
    r.mask_down_ports(down);
    EXPECT_EQ(r, make_requests(4, {{0, 2}, {2, 2}}));
    EXPECT_TRUE(r.col(1).none());
    EXPECT_EQ(r.col(2).count(), 2u);
}

TEST(RequestMatrix, Equality) {
    RequestMatrix a(4), b(4);
    EXPECT_EQ(a, b);
    a.set(0, 0);
    EXPECT_NE(a, b);
    b.set(0, 0);
    EXPECT_EQ(a, b);
}

TEST(RequestMatrix, MutableRowAccess) {
    RequestMatrix m(4);
    m.row(1).set(3);
    EXPECT_TRUE(m.get(1, 3));
}

TEST(RequestMatrix, ColumnViewTransposesRows) {
    const RequestMatrix m = make_requests(
        4, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3},
            {3, 1}});
    for (std::size_t j = 0; j < 4; ++j) {
        const auto& col = m.col(j);
        ASSERT_EQ(col.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(col.test(i), m.get(i, j)) << i << "," << j;
        }
    }
}

TEST(RequestMatrix, ColumnViewRectangular) {
    RequestMatrix m(3, 5);
    m.set(0, 4);
    m.set(2, 4);
    m.set(1, 0);
    EXPECT_EQ(m.col(4).count(), 2u);
    EXPECT_TRUE(m.col(4).test(0));
    EXPECT_TRUE(m.col(4).test(2));
    EXPECT_EQ(m.col(0).count(), 1u);
    EXPECT_EQ(m.col(1).count(), 0u);
}

TEST(RequestMatrix, ColumnViewTracksSetAndClear) {
    RequestMatrix m(4);
    m.set(1, 2);
    EXPECT_TRUE(m.col(2).test(1));  // materializes the view
    m.set(3, 2);                    // in-place column update
    EXPECT_TRUE(m.col(2).test(3));
    m.set(1, 2, false);
    EXPECT_FALSE(m.col(2).test(1));
    m.clear();
    EXPECT_EQ(m.col(2).count(), 0u);
}

TEST(RequestMatrix, ColumnViewInvalidatedByMutableRow) {
    RequestMatrix m(4);
    m.set(0, 1);
    EXPECT_TRUE(m.col(1).test(0));
    // Writing through the row view bypasses set(); col() must rebuild.
    m.row(2).set(1);
    m.row(0).reset(1);
    EXPECT_TRUE(m.col(1).test(2));
    EXPECT_FALSE(m.col(1).test(0));
    EXPECT_EQ(m.col_count(1), 1u);
}

TEST(RequestMatrix, EqualityIgnoresColumnCacheState) {
    RequestMatrix a(4), b(4);
    a.set(1, 3);
    b.set(1, 3);
    (void)a.col(3);  // a has a materialized column view, b does not
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, a);
}

}  // namespace
}  // namespace lcf::sched
