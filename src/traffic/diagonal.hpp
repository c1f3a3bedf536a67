#pragma once
// Diagonal traffic: input i sends 2/3 of its packets to output i and 1/3
// to output (i+1) mod n. Every output is fully loaded as offered load
// approaches 1, but each input has only two choices — a hard pattern for
// match-size-oriented schedulers and a standard benchmark in the
// input-queued switch literature.

#include "traffic/traffic.hpp"

#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// Two-destination diagonal pattern (2/3 to i, 1/3 to i+1).
class DiagonalTraffic final : public PerInputTraffic<DiagonalTraffic> {
public:
    explicit DiagonalTraffic(double load)
        : load_(checked_probability(load, "load")) {}

    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) override {
        auto& rng = rng_[input];
        if (!rng.next_bool(load_)) return kNoArrival;
        const std::size_t dst = rng.next_bool(2.0 / 3.0)
                                    ? input % outputs_
                                    : (input + 1) % outputs_;
        return static_cast<std::int32_t>(dst);
    }
    [[nodiscard]] double offered_load() const noexcept override { return load_; }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "diagonal";
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    double load_;
    std::size_t outputs_ = 0;
    std::vector<util::Xoshiro256> rng_;
};

}  // namespace lcf::traffic
