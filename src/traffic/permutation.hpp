#pragma once
// Permutation traffic: each input sends all of its packets to one fixed
// distinct output (a random permutation drawn at reset). Contention-free
// by construction, so any work-conserving scheduler should sustain full
// load — a useful sanity baseline.

#include "traffic/traffic.hpp"

#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// Bernoulli arrivals along a fixed random permutation.
class PermutationTraffic final : public PerInputTraffic<PermutationTraffic> {
public:
    explicit PermutationTraffic(double load)
        : load_(checked_probability(load, "load")) {}

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        if (!rng_[input].next_bool(load_)) return kNoArrival;
        return static_cast<std::int32_t>(perm_[input]);
    }
    [[nodiscard]] double offered_load() const noexcept override { return load_; }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "permutation";
    }

    /// Destination assigned to `input` (exposed for tests).
    [[nodiscard]] std::size_t destination_of(std::size_t input) const {
        return perm_[input];
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    double load_;
    std::vector<std::size_t> perm_;
    std::vector<util::Xoshiro256> rng_;
};

}  // namespace lcf::traffic
