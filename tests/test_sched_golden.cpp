// Golden matching-sequence pins for the baseline schedulers that have no
// `*_reference` twin (pim, islip, rrm, ilqf, fifo, wfront, maxsize).
// Each (scheduler, geometry, iteration count) runs a fixed random
// request sequence and folds every cycle's matching into one 64-bit
// digest; the committed digests were captured from the per-bit seed
// implementations, so any rewrite of a baseline must reproduce their
// output bit for bit. A handful of digests is less code than a
// per-bit twin class per baseline, and tools/lint_contracts.py
// requires every registered scheduler to be pinned here or in
// test_sched_equivalence.cpp.
//
// iLQF sees a fresh random queue-length snapshot every cycle so its
// weighted grant/accept path (not just the unweighted fallback) is
// pinned. islip and pim also fold last_iterations() into the digest.
//
// A second table (SchedEdgeGolden) pins the pointer schedulers and the
// lcf_* family at edge geometries: 1x1, 2x2, 3x5, 5x3 and two geometry
// changes without a reset().

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

struct Pin {
    const char* name;
    std::size_t inputs;
    std::size_t outputs;
    std::size_t iterations;
    std::uint64_t digest;
};

// clang-format off
const Pin kPins[] = {
    {"pim", 1, 1, 1, 0x9e4ce5ff1fcd6649ULL},
    {"pim", 1, 1, 4, 0xd0bfae030344618ULL},
    {"pim", 13, 13, 1, 0xda993551fc6dfad8ULL},
    {"pim", 13, 13, 4, 0x18b1a0f5d0527b12ULL},
    {"pim", 16, 16, 1, 0x5edecfb8239f04c1ULL},
    {"pim", 16, 16, 4, 0xf7ad468a4a032501ULL},
    {"pim", 67, 67, 1, 0xe7e61f2fa157f6fbULL},
    {"pim", 67, 67, 4, 0xb412aaff0fb99c02ULL},
    {"pim", 256, 256, 1, 0xe4ae3a2aefaa7ebdULL},
    {"pim", 256, 256, 4, 0x4e17f192a62dc2d9ULL},
    {"pim", 12, 20, 1, 0x8a4c62eb5442105aULL},
    {"pim", 12, 20, 4, 0xe4884767982330ULL},
    {"pim", 20, 12, 1, 0x344a2fd853c89111ULL},
    {"pim", 20, 12, 4, 0x3e5ff4e162184a3dULL},
    {"islip", 1, 1, 1, 0x9e4ce5ff1fcd6649ULL},
    {"islip", 1, 1, 4, 0xd0bfae030344618ULL},
    {"islip", 13, 13, 1, 0x537dd812d662d619ULL},
    {"islip", 13, 13, 4, 0x4f118da7cce61bddULL},
    {"islip", 16, 16, 1, 0x5c7f534bbc4bb19aULL},
    {"islip", 16, 16, 4, 0x71a66da6d87f8b42ULL},
    {"islip", 67, 67, 1, 0xbf8ae715399f9ed3ULL},
    {"islip", 67, 67, 4, 0x8ee85c2bbb8edd4ULL},
    {"islip", 256, 256, 1, 0x96a51b10d14bf572ULL},
    {"islip", 256, 256, 4, 0x2358ff151401922eULL},
    {"islip", 12, 20, 1, 0x5ef0ac201fbe9f10ULL},
    {"islip", 12, 20, 4, 0xe679b3f8ba49cca1ULL},
    {"islip", 20, 12, 1, 0xfd4d4b33410068fcULL},
    {"islip", 20, 12, 4, 0x5f18662e4efbfff2ULL},
    {"rrm", 1, 1, 1, 0x4119b893e2681638ULL},
    {"rrm", 1, 1, 4, 0x4119b893e2681638ULL},
    {"rrm", 13, 13, 1, 0xf4b05db347f886caULL},
    {"rrm", 13, 13, 4, 0xd7edf313847de45fULL},
    {"rrm", 16, 16, 1, 0xd01bcb6390ac84f1ULL},
    {"rrm", 16, 16, 4, 0x2ab864618c101355ULL},
    {"rrm", 67, 67, 1, 0x576ebfc246f785ceULL},
    {"rrm", 67, 67, 4, 0xe116adfaf34b277fULL},
    {"rrm", 256, 256, 1, 0x7e7e43ece394305bULL},
    {"rrm", 256, 256, 4, 0x45e5e90cebbf0e6bULL},
    {"rrm", 12, 20, 1, 0x5f4618c38e6182d9ULL},
    {"rrm", 12, 20, 4, 0xef24af2582cc5597ULL},
    {"rrm", 20, 12, 1, 0x5f9acf0dd8ab1873ULL},
    {"rrm", 20, 12, 4, 0xe214670412883666ULL},
    {"ilqf", 1, 1, 1, 0xcfa9dcae9c0b83caULL},
    {"ilqf", 1, 1, 4, 0xcfa9dcae9c0b83caULL},
    {"ilqf", 13, 13, 1, 0x11940f40e15729a0ULL},
    {"ilqf", 13, 13, 4, 0x3e4864f97d5f9ef7ULL},
    {"ilqf", 16, 16, 1, 0x9178327df1371c8aULL},
    {"ilqf", 16, 16, 4, 0xed868889324d6ef3ULL},
    {"ilqf", 67, 67, 1, 0x10684e4846fd84ffULL},
    {"ilqf", 67, 67, 4, 0x98ffe7a226063243ULL},
    {"ilqf", 256, 256, 1, 0xd24bdacf3219898dULL},
    {"ilqf", 256, 256, 4, 0x4850ddef3370caddULL},
    {"ilqf", 12, 20, 1, 0xbd7ec1dd307a7475ULL},
    {"ilqf", 12, 20, 4, 0xc0d941379d24b49aULL},
    {"ilqf", 20, 12, 1, 0x6abef569ffc10495ULL},
    {"ilqf", 20, 12, 4, 0x416522415805566bULL},
    {"fifo", 1, 1, 1, 0x4119b893e2681638ULL},
    {"fifo", 1, 1, 4, 0x4119b893e2681638ULL},
    {"fifo", 13, 13, 1, 0xb16a0001de55e85bULL},
    {"fifo", 13, 13, 4, 0xb16a0001de55e85bULL},
    {"fifo", 16, 16, 1, 0xbc1e3aabcae775a2ULL},
    {"fifo", 16, 16, 4, 0xbc1e3aabcae775a2ULL},
    {"fifo", 67, 67, 1, 0xc921c17c94953975ULL},
    {"fifo", 67, 67, 4, 0xc921c17c94953975ULL},
    {"fifo", 256, 256, 1, 0xd47fc118b2516823ULL},
    {"fifo", 256, 256, 4, 0xd47fc118b2516823ULL},
    {"fifo", 12, 20, 1, 0x8aea19b17592631eULL},
    {"fifo", 12, 20, 4, 0x8aea19b17592631eULL},
    {"fifo", 20, 12, 1, 0x21ce985509fe9bf3ULL},
    {"fifo", 20, 12, 4, 0x21ce985509fe9bf3ULL},
    {"wfront", 1, 1, 1, 0x4119b893e2681638ULL},
    {"wfront", 1, 1, 4, 0x4119b893e2681638ULL},
    {"wfront", 13, 13, 1, 0xe2af98ee938ddc3dULL},
    {"wfront", 13, 13, 4, 0xe2af98ee938ddc3dULL},
    {"wfront", 16, 16, 1, 0xcf8b8691721cfd85ULL},
    {"wfront", 16, 16, 4, 0xcf8b8691721cfd85ULL},
    {"wfront", 67, 67, 1, 0xfa70d57f251b0ee5ULL},
    {"wfront", 67, 67, 4, 0xfa70d57f251b0ee5ULL},
    {"wfront", 256, 256, 1, 0x68c4d1694883cfcdULL},
    {"wfront", 256, 256, 4, 0x68c4d1694883cfcdULL},
    {"wfront", 12, 20, 1, 0xcc6548e014fbaf98ULL},
    {"wfront", 12, 20, 4, 0xcc6548e014fbaf98ULL},
    {"wfront", 20, 12, 1, 0x1798aa748e84e542ULL},
    {"wfront", 20, 12, 4, 0x1798aa748e84e542ULL},
    {"maxsize", 1, 1, 1, 0x4119b893e2681638ULL},
    {"maxsize", 1, 1, 4, 0x4119b893e2681638ULL},
    {"maxsize", 13, 13, 1, 0x838c9f65fe2e97ddULL},
    {"maxsize", 13, 13, 4, 0x838c9f65fe2e97ddULL},
    {"maxsize", 16, 16, 1, 0xd83cfb7e92cfadULL},
    {"maxsize", 16, 16, 4, 0xd83cfb7e92cfadULL},
    {"maxsize", 67, 67, 1, 0x6dfc956e9127e76cULL},
    {"maxsize", 67, 67, 4, 0x6dfc956e9127e76cULL},
    {"maxsize", 256, 256, 1, 0x8c4ee08f40d9e69dULL},
    {"maxsize", 256, 256, 4, 0x8c4ee08f40d9e69dULL},
    {"maxsize", 12, 20, 1, 0x1f0a2faa8cad06e0ULL},
    {"maxsize", 12, 20, 4, 0x1f0a2faa8cad06e0ULL},
    {"maxsize", 20, 12, 1, 0xe0856de71f05d2e8ULL},
    {"maxsize", 20, 12, 4, 0xe0856de71f05d2e8ULL},
};
// clang-format on

constexpr std::size_t kCycles = 250;
constexpr std::uint64_t kSeed = 7;
// Cycled per scheduling cycle; the extremes pin the empty- and
// full-matrix edge cases.
constexpr double kDensities[] = {0.0, 0.05, 0.35, 0.9, 1.0};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    // splitmix64 finaliser over the running hash.
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool digests_iterations(const std::string& name) {
    return name == "islip" || name == "pim";
}

struct Geometry {
    std::size_t inputs;
    std::size_t outputs;
};

// Runs `cycles` scheduling cycles of fresh random requests at `g` on `s`
// and folds every matching (and, with `with_iterations`,
// last_iterations()) into the running digest `h`.
std::uint64_t fold_cycles(sched::Scheduler& s, const std::string& name,
                          Geometry g, std::size_t cycles,
                          bool with_iterations, util::Xoshiro256& rng,
                          std::uint64_t h) {
    std::vector<std::uint32_t> lengths(g.inputs * g.outputs);
    sched::RequestMatrix r(g.inputs, g.outputs);
    util::BitVec row(g.outputs);
    sched::Matching m;
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        const double density = kDensities[cycle % std::size(kDensities)];
        for (std::size_t i = 0; i < g.inputs; ++i) {
            for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                row.set_word(wi, rng.next_bernoulli_word(density));
            }
            r.assign_row(i, row);
        }
        if (s.wants_queue_lengths()) {
            for (auto& l : lengths) {
                l = static_cast<std::uint32_t>(rng.next_below(4));
            }
            s.observe_queue_lengths(lengths, g.outputs);
        }
        s.schedule(r, m);
        EXPECT_TRUE(m.valid_for(r)) << name << " cycle " << cycle;
        for (std::size_t i = 0; i < g.inputs; ++i) {
            h = mix(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(m.output_of(i))));
        }
        if (with_iterations) h = mix(h, s.last_iterations());
    }
    return h;
}

std::unique_ptr<sched::Scheduler> make(const std::string& name,
                                       std::size_t iterations) {
    return core::make_scheduler(
        name, sched::SchedulerConfig{.iterations = iterations, .seed = kSeed});
}

std::uint64_t run_digest(const Pin& pin) {
    const std::string name = pin.name;
    auto s = make(name, pin.iterations);
    s->reset(pin.inputs, pin.outputs);
    util::Xoshiro256 rng(kSeed * 1009 + pin.inputs * 31 + pin.outputs);
    return fold_cycles(*s, name, {pin.inputs, pin.outputs}, kCycles,
                       digests_iterations(name), rng, 0);
}

std::string pin_line(const Pin& pin, std::uint64_t digest) {
    std::ostringstream line;
    line << "{\"" << pin.name << "\", " << pin.inputs << ", " << pin.outputs
         << ", " << pin.iterations << ", 0x" << std::hex << digest
         << "ULL},";
    return line.str();
}

class SchedGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedGolden, MatchingSequenceMatchesCommittedDigest) {
    std::size_t pinned = 0;
    for (const Pin& pin : kPins) {
        if (GetParam() != pin.name) continue;
        ++pinned;
        const std::uint64_t got = run_digest(pin);
        // The failure message is the corrected table line.
        EXPECT_EQ(got, pin.digest) << pin_line(pin, got);
    }
    // 7 geometries x iterations {1, 4}.
    EXPECT_EQ(pinned, 14u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Baselines, SchedGolden,
                         ::testing::Values("pim", "islip", "rrm", "ilqf",
                                           "fifo", "wfront", "maxsize"),
                         [](const auto& param_info) {
                             return param_info.param;
                         });

// Edge geometries for the rotations every pointer scheduler walks: one
// and two ports (a pointer that wraps on every step), 3x5 and 5x3 (input
// and output rotations of different lengths), and two switches whose
// geometry changes halfway through without a reset(), so pointers left
// over from the first geometry must reduce into the second. Covers the
// lcf_* family too: their *_reference twins share any rotation mistake
// made in both. Every row folds last_iterations() in.
struct EdgePin {
    const char* name;
    Geometry first;
    Geometry second;  // from cycle kCycles / 2 on
    std::uint64_t digest;
};

// clang-format off
const EdgePin kEdgePins[] = {
    {"wfront", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"wfront", {2, 2}, {2, 2}, 0x33ec5fa40bb8a1aULL},
    {"wfront", {3, 5}, {3, 5}, 0xc927976df6778e72ULL},
    {"wfront", {5, 3}, {5, 3}, 0xcf02257b36063d1aULL},
    {"wfront", {5, 3}, {3, 5}, 0x20723e05f8d50f7aULL},
    {"wfront", {3, 5}, {2, 2}, 0x3ce04af83e62bb4ULL},
    {"islip", {1, 1}, {1, 1}, 0xd0bfae030344618ULL},
    {"islip", {2, 2}, {2, 2}, 0x6744017976ffc00fULL},
    {"islip", {3, 5}, {3, 5}, 0x7ecbac562ad40e0fULL},
    {"islip", {5, 3}, {5, 3}, 0xaca9de20f17a7618ULL},
    {"islip", {5, 3}, {3, 5}, 0xec9f40f918199dc2ULL},
    {"islip", {3, 5}, {2, 2}, 0x1b6a87ce178e742dULL},
    {"fifo", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"fifo", {2, 2}, {2, 2}, 0x5c378e2b93804783ULL},
    {"fifo", {3, 5}, {3, 5}, 0xc889d27c7d838655ULL},
    {"fifo", {5, 3}, {5, 3}, 0x2b1b1f98aafef5e2ULL},
    {"fifo", {5, 3}, {3, 5}, 0xb99e51871f7db42bULL},
    {"fifo", {3, 5}, {2, 2}, 0x21842cb5f987dac1ULL},
    {"ilqf", {1, 1}, {1, 1}, 0x3f4687776ea0659ULL},
    {"ilqf", {2, 2}, {2, 2}, 0xd0714017e29aad23ULL},
    {"ilqf", {3, 5}, {3, 5}, 0xa62d9bd96c6ef2aULL},
    {"ilqf", {5, 3}, {5, 3}, 0x868e402750c69c13ULL},
    {"ilqf", {5, 3}, {3, 5}, 0xcaae9906f8935bceULL},
    {"ilqf", {3, 5}, {2, 2}, 0xd8444d97b3fad2aULL},
    {"pim", {1, 1}, {1, 1}, 0xd0bfae030344618ULL},
    {"pim", {2, 2}, {2, 2}, 0x94d7f6efb84a85dcULL},
    {"pim", {3, 5}, {3, 5}, 0xac8e0c9161eac896ULL},
    {"pim", {5, 3}, {5, 3}, 0xb5f340f59ad9009dULL},
    {"pim", {5, 3}, {3, 5}, 0x6d5b8cc7fb3f8e90ULL},
    {"pim", {3, 5}, {2, 2}, 0xccc46dab4e66fb76ULL},
    {"lcf_dist", {1, 1}, {1, 1}, 0xd0bfae030344618ULL},
    {"lcf_dist", {2, 2}, {2, 2}, 0xc83e141321293209ULL},
    {"lcf_dist", {3, 5}, {3, 5}, 0xb2ffedd00355d00bULL},
    {"lcf_dist", {5, 3}, {5, 3}, 0x21b611e674d2e087ULL},
    {"lcf_dist", {5, 3}, {3, 5}, 0x35e8d730358e86adULL},
    {"lcf_dist", {3, 5}, {2, 2}, 0x471f07ac3301b104ULL},
    {"lcf_dist_rr", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"lcf_dist_rr", {2, 2}, {2, 2}, 0xf468122ce473ac25ULL},
    {"lcf_dist_rr", {3, 5}, {3, 5}, 0x2215c9886dd40d42ULL},
    {"lcf_dist_rr", {5, 3}, {5, 3}, 0xc8b6345adbc5046bULL},
    {"lcf_dist_rr", {5, 3}, {3, 5}, 0x92e501d734a780f5ULL},
    {"lcf_dist_rr", {3, 5}, {2, 2}, 0xa7acff613eaae49dULL},
    {"lcf_central", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"lcf_central", {2, 2}, {2, 2}, 0x9d35710cdc9236bbULL},
    {"lcf_central", {3, 5}, {3, 5}, 0x8873662925fcc65dULL},
    {"lcf_central", {5, 3}, {5, 3}, 0x6d5bfc86beab72b4ULL},
    {"lcf_central", {5, 3}, {3, 5}, 0xe8d37df59e87d503ULL},
    {"lcf_central", {3, 5}, {2, 2}, 0x4c5357935aec472cULL},
    {"lcf_central_rr", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"lcf_central_rr", {2, 2}, {2, 2}, 0x6c8c0d97f387edbbULL},
    {"lcf_central_rr", {3, 5}, {3, 5}, 0x23593ed0d656831ULL},
    {"lcf_central_rr", {5, 3}, {5, 3}, 0x3332efd94e04266fULL},
    {"lcf_central_rr", {5, 3}, {3, 5}, 0x3b06071aeb48be82ULL},
    {"lcf_central_rr", {3, 5}, {2, 2}, 0xd4563d8e60f62841ULL},
    {"lcf_central_rr_single", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"lcf_central_rr_single", {2, 2}, {2, 2}, 0x6c8c0d97f387edbbULL},
    {"lcf_central_rr_single", {3, 5}, {3, 5}, 0xebcedccb8009d89eULL},
    {"lcf_central_rr_single", {5, 3}, {5, 3}, 0x41ff52fbe628322ULL},
    {"lcf_central_rr_single", {5, 3}, {3, 5}, 0x3c0b505ad170c05eULL},
    {"lcf_central_rr_single", {3, 5}, {2, 2}, 0x4ed1622e69000b5aULL},
    {"lcf_central_rr_first", {1, 1}, {1, 1}, 0x9e4ce5ff1fcd6649ULL},
    {"lcf_central_rr_first", {2, 2}, {2, 2}, 0x3c33a725c85f50a1ULL},
    {"lcf_central_rr_first", {3, 5}, {3, 5}, 0xfe1f29ff3afe4eb9ULL},
    {"lcf_central_rr_first", {5, 3}, {5, 3}, 0x8baf174fad6a9ce4ULL},
    {"lcf_central_rr_first", {5, 3}, {3, 5}, 0x5c53f183aa69a9deULL},
    {"lcf_central_rr_first", {3, 5}, {2, 2}, 0xe651eed414436cc9ULL},
};
// clang-format on

const std::string kEdgeSchedulers[] = {
    "wfront", "islip", "fifo", "ilqf", "pim", "lcf_dist", "lcf_dist_rr",
    "lcf_central", "lcf_central_rr", "lcf_central_rr_single",
    "lcf_central_rr_first"};
constexpr Geometry kEdgeGeometries[][2] = {
    {{1, 1}, {1, 1}}, {{2, 2}, {2, 2}}, {{3, 5}, {3, 5}},
    {{5, 3}, {5, 3}}, {{5, 3}, {3, 5}}, {{3, 5}, {2, 2}}};

std::uint64_t run_edge_digest(const std::string& name, Geometry first,
                              Geometry second) {
    auto s = make(name, 4);
    s->reset(first.inputs, first.outputs);
    util::Xoshiro256 rng(kSeed * 1009 + first.inputs * 31 + first.outputs);
    const std::uint64_t h =
        fold_cycles(*s, name, first, kCycles / 2, true, rng, 0);
    return fold_cycles(*s, name, second, kCycles - kCycles / 2, true, rng, h);
}

class SchedEdgeGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedEdgeGolden, MatchingSequenceMatchesCommittedDigest) {
    std::size_t pinned = 0;
    for (const EdgePin& pin : kEdgePins) {
        if (GetParam() != pin.name) continue;
        ++pinned;
        const std::uint64_t got = run_edge_digest(pin.name, pin.first, pin.second);
        std::ostringstream line;
        line << "{\"" << pin.name << "\", {" << pin.first.inputs << ", "
             << pin.first.outputs << "}, {" << pin.second.inputs << ", "
             << pin.second.outputs << "}, 0x" << std::hex << got << "ULL},";
        EXPECT_EQ(got, pin.digest) << line.str();
    }
    EXPECT_EQ(pinned, std::size(kEdgeGeometries)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(EdgeGeometries, SchedEdgeGolden,
                         ::testing::ValuesIn(kEdgeSchedulers),
                         [](const auto& param_info) {
                             return param_info.param;
                         });

}  // namespace
}  // namespace lcf
