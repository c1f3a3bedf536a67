#pragma once
// The distributed Least Choice First scheduler (§5): an iterative
// request / grant / accept matcher in the style of PIM, but with
// least-choice priorities instead of randomness.
//
//   Request — each unmatched initiator requests every target it has a
//             packet for, accompanied by NRQ, the number of requests it
//             is sending.
//   Grant   — each unmatched target grants the request with the lowest
//             NRQ (round-robin tie-break), accompanied by NGT, the
//             number of requests the target received.
//   Accept  — each unmatched initiator accepts the grant with the lowest
//             NGT (round-robin tie-break).
//
// With round-robin enabled (`lcf_dist_rr`), one rotating position of the
// request matrix is granted before the iterations begin, bounding the
// time until any persistent request is served.

#include "sched/arbiter.hpp"
#include "sched/scheduler.hpp"

#include <cstdint>
#include <vector>

namespace lcf::core {

/// Configuration of the distributed LCF scheduler.
struct LcfDistOptions {
    /// Request/grant/accept iterations per scheduling cycle (paper: 4).
    std::size_t iterations = 4;
    /// Pre-match the rotating round-robin position each cycle
    /// (`lcf_dist_rr`).
    bool round_robin = false;
};

/// Distributed iterative LCF scheduler (`lcf_dist` / `lcf_dist_rr`).
///
/// NRQ counts an initiator's requests to still-unmatched targets (matched
/// targets cannot grant, so they are no longer "choices"); symmetrically
/// NGT counts requests a target received in the current iteration. The
/// paper does not pin down the round-robin pointer update rule; we rotate
/// every per-port tie-break pointer by one position each scheduling
/// cycle, mirroring the hardware's PRIO shift registers (§4.2).
///
/// Implementation: each round files the free initiators into levels by
/// NRQ. For k = 1, 2, …, one AND of level k's row union with the outputs
/// not yet granted finds every output whose least-NRQ requester has NRQ
/// k; it grants the first of col(j) ∩ level k in its rotating chain. An
/// input accepts the least (NGT, rotated rank) of its grants. Level
/// tables are sized once per geometry, so a warm scheduler does not
/// allocate. Bit-identical to LcfDistReferenceScheduler (equivalence suite).
class LcfDistScheduler final : public sched::Scheduler {
public:
    explicit LcfDistScheduler(const LcfDistOptions& options = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return options_.round_robin ? "lcf_dist_rr" : "lcf_dist";
    }

    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return options_.iterations;
    }

    /// Current round-robin position (exposed for tests).
    [[nodiscard]] std::pair<std::size_t, std::size_t> rr_position() const noexcept {
        return {rr_input_, rr_output_};
    }
    void set_rr_position(std::size_t input, std::size_t output) noexcept {
        rr_input_ = input;
        rr_output_ = output;
    }

private:
    LcfDistOptions options_;
    std::size_t rr_input_ = 0;
    std::size_t rr_output_ = 0;
    std::size_t cycle_ = 0;  // drives tie-break pointer rotation
    std::size_t last_iterations_ = 0;
    std::vector<util::BitVec> level_inputs_;  // [k <= n_out]: inputs, NRQ k
    std::vector<util::BitVec> level_rows_;    // [k]: union of their rows
    util::BitVec used_;                // NRQ levels holding inputs
    util::BitVec visit_;               // free outputs not yet granted
    util::BitVec granted_;             // inputs holding grants this round
    std::vector<std::uint64_t> best_;  // per input: min (NGT << 32 | rank)
    sched::Arbiter arbiter_;
};

}  // namespace lcf::core
