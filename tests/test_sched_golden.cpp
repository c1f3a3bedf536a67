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

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
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

std::uint64_t run_digest(const Pin& pin) {
    const std::string name = pin.name;
    auto s = core::make_scheduler(
        name, sched::SchedulerConfig{.iterations = pin.iterations,
                                     .seed = kSeed});
    s->reset(pin.inputs, pin.outputs);
    util::Xoshiro256 rng(kSeed * 1009 + pin.inputs * 31 + pin.outputs);
    std::vector<std::uint32_t> lengths(pin.inputs * pin.outputs);
    sched::RequestMatrix r(pin.inputs, pin.outputs);
    util::BitVec row(pin.outputs);
    sched::Matching m;
    std::uint64_t h = 0;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        const double density = kDensities[cycle % std::size(kDensities)];
        for (std::size_t i = 0; i < pin.inputs; ++i) {
            for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                row.set_word(wi, rng.next_bernoulli_word(density));
            }
            r.assign_row(i, row);
        }
        if (s->wants_queue_lengths()) {
            for (auto& l : lengths) {
                l = static_cast<std::uint32_t>(rng.next_below(4));
            }
            s->observe_queue_lengths(lengths, pin.outputs);
        }
        s->schedule(r, m);
        EXPECT_TRUE(m.valid_for(r)) << name << " cycle " << cycle;
        for (std::size_t i = 0; i < pin.inputs; ++i) {
            h = mix(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(m.output_of(i))));
        }
        if (digests_iterations(name)) h = mix(h, s->last_iterations());
    }
    return h;
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

}  // namespace
}  // namespace lcf
