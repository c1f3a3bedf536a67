// Tests for RequestMatrix: bit accounting, row/column counts (NRQ/NGT),
// the test-helper constructor, and a differential run of every mutation
// against a naive model.

#include "sched/request_matrix.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

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
    util::BitVec row(4);
    row.set(3);
    m.assign_row(1, row);
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
    // Whole-row writes go through assign_row(), which keeps the columns
    // in step bit by bit.
    util::BitVec row(4);
    row.set(1);
    m.assign_row(2, row);
    m.assign_row(0, util::BitVec(4));
    EXPECT_TRUE(m.col(1).test(2));
    EXPECT_FALSE(m.col(1).test(0));
    EXPECT_EQ(m.col_count(1), 1u);
}

TEST(RequestMatrix, EqualityIgnoresColumnCacheState) {
    RequestMatrix a(4), b(4);
    a.set(1, 3);
    util::BitVec row(4);
    row.set(3);
    b.assign_row(1, row);  // the same bits, reached through a row write
    (void)a.col(3);
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, a);
}

// Seeded random set/assign_row/mask_down_ports/clear operations, checked
// after every operation against a std::vector<bool> model: every bit
// through rows and columns, row_count (NRQ), col_count (NGT), total, and
// equality with a matrix rebuilt from the model.
TEST(RequestMatrix, MatchesNaiveModel) {
    struct Shape {
        std::size_t inputs;
        std::size_t outputs;
    };
    for (const Shape s : {Shape{1, 1}, Shape{13, 13}, Shape{67, 67},
                          Shape{12, 20}, Shape{20, 12}}) {
        RequestMatrix m(s.inputs, s.outputs);
        std::vector<bool> model(s.inputs * s.outputs, false);
        util::Xoshiro256 rng(20261018 + s.inputs * 100 + s.outputs);
        util::BitVec row(s.outputs);
        util::BitVec down(s.inputs);
        const bool square = s.inputs == s.outputs;

        const auto check_state = [&](std::size_t op) {
            RequestMatrix rebuilt(s.inputs, s.outputs);
            std::size_t total = 0;
            std::vector<std::size_t> col_counts(s.outputs, 0);
            for (std::size_t i = 0; i < s.inputs; ++i) {
                std::size_t row_count = 0;
                for (std::size_t j = 0; j < s.outputs; ++j) {
                    const bool bit = model[i * s.outputs + j];
                    ASSERT_EQ(m.get(i, j), bit) << "op " << op;
                    ASSERT_EQ(m.row(i).test(j), bit) << "op " << op;
                    ASSERT_EQ(m.col(j).test(i), bit) << "op " << op;
                    if (bit) {
                        rebuilt.set(i, j);
                        ++row_count;
                        ++col_counts[j];
                    }
                }
                ASSERT_EQ(m.row_count(i), row_count) << "op " << op;
                total += row_count;
            }
            for (std::size_t j = 0; j < s.outputs; ++j) {
                ASSERT_EQ(m.col_count(j), col_counts[j]) << "op " << op;
            }
            ASSERT_EQ(m.total(), total) << "op " << op;
            ASSERT_EQ(m, rebuilt) << "op " << op;
        };

        std::size_t masks = 0;
        for (std::size_t op = 0; op < 4000; ++op) {
            const std::uint64_t kind = rng.next_below(100);
            if (kind < 60) {
                const auto i = static_cast<std::size_t>(rng.next_below(s.inputs));
                const auto j = static_cast<std::size_t>(rng.next_below(s.outputs));
                const bool value = rng.next_bool(0.6);
                m.set(i, j, value);
                model[i * s.outputs + j] = value;
            } else if (kind < 90) {
                const auto i = static_cast<std::size_t>(rng.next_below(s.inputs));
                const double density = rng.next_double();
                for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                    row.set_word(wi, rng.next_bernoulli_word(density));
                }
                m.assign_row(i, row);
                for (std::size_t j = 0; j < s.outputs; ++j) {
                    model[i * s.outputs + j] = row.test(j);
                }
            } else if (kind < 99) {
                if (!square) continue;
                down.clear();
                for (std::size_t k = 0; k < 1 + s.inputs / 8; ++k) {
                    down.set(static_cast<std::size_t>(rng.next_below(s.inputs)));
                }
                m.mask_down_ports(down);
                for (std::size_t i = 0; i < s.inputs; ++i) {
                    for (std::size_t j = 0; j < s.outputs; ++j) {
                        if (down.test(i) || down.test(j)) {
                            model[i * s.outputs + j] = false;
                        }
                    }
                }
                ++masks;
            } else {
                m.clear();
                model.assign(model.size(), false);
            }
            ASSERT_NO_FATAL_FAILURE(check_state(op))
                << s.inputs << "x" << s.outputs;
        }
        EXPECT_EQ(masks > 0, square);
    }
}

}  // namespace
}  // namespace lcf::sched
