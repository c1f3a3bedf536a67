#pragma once
// The central Least Choice First scheduler — the paper's Figure 2
// pseudocode, implemented verbatim.
//
// Outputs (resources) are scheduled one after another. For each output the
// input (requester) with the *fewest outstanding requests* wins — an input
// with few requests has few choices, so serving it first maximises the
// total number of grants. Ties are broken by a rotating priority chain.
// With round-robin enabled (`lcf_central_rr`), the request at the rotating
// diagonal position is granted unconditionally before LCF priorities are
// consulted, which yields a hard fairness floor: every request position
// [i, j] is the very first scheduling decision once every n² cycles, so a
// persistently backlogged VOQ receives at least b/n² of its output's
// bandwidth.

#include "sched/scheduler.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/precalc.hpp"
#include "util/bitvec.hpp"

namespace lcf::core {

/// Round-robin flavour of the central scheduler — §3 discusses a whole
/// range of fairness/throughput trade-offs: "Variations of the
/// round-robin scheduler are possible in that a single position, a row
/// or column are covered every scheduling cycle", with guarantees
/// ranging from 0 (pure LCF) to b/n (diagonal scheduled before anything
/// else).
enum class RrVariant {
    /// Pure LCF (`lcf_central`): no position ever overrides the
    /// priorities; only the rotating tie-break chain remains. Bandwidth
    /// floor: none (starvation possible).
    kNone,
    /// Only the diagonal's anchor position [I, J] — the first scheduling
    /// decision of the cycle — wins unconditionally. Floor: b/n².
    kSingle,
    /// Figure 2's algorithm (`lcf_central_rr`): each diagonal position
    /// wins its column when that column is scheduled, unless its input
    /// was already consumed by an earlier column. Floor: b/n².
    kInterleaved,
    /// The whole diagonal is granted before any LCF decision is made.
    /// Floor: b/n — the §3 upper bound, bought with the largest
    /// throughput sacrifice.
    kDiagonalFirst,
};

/// Configuration of the central LCF scheduler.
struct LcfCentralOptions {
    RrVariant variant = RrVariant::kInterleaved;
};

/// Central LCF scheduler (`lcf_central` / `lcf_central_rr`).
class LcfCentralScheduler final : public sched::Scheduler {
public:
    explicit LcfCentralScheduler(const LcfCentralOptions& options = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override;

    /// Two-stage scheduling with a precalculated (possibly multicast)
    /// schedule, as used by Clint for real-time and multicast traffic
    /// (§4.3). Stage 1 admits the precalculated connections after an
    /// integrity check (conflicting claims on one target: one accepted,
    /// the rest dropped); stage 2 runs regular LCF over the remaining
    /// requests and free ports. Unicast results also appear in
    /// `out.unicast`; multicast fan-outs only in `out.fanout`.
    void schedule_with_precalc(const sched::RequestMatrix& requests,
                               const PrecalcSchedule& precalc,
                               MulticastResult& out);

    /// Current round-robin diagonal anchor [I, J] (exposed for the
    /// hardware-model equivalence tests).
    [[nodiscard]] std::pair<std::size_t, std::size_t> diagonal() const noexcept {
        return {rr_input_, rr_output_};
    }
    /// Force the diagonal anchor (tests transcribing the paper's figures).
    void set_diagonal(std::size_t input_offset, std::size_t output_offset) noexcept;

private:
    /// Core of Figure 2, shared by schedule() and stage 2 of
    /// schedule_with_precalc(). `busy_*` marks ports consumed by stage 1.
    ///
    /// Word-parallel formulation: instead of consumable per-bit request
    /// copies, a free-inputs bit vector plus the request matrix's column
    /// view reduce each output's candidate set to one masked AND
    /// (`col ∩ free_inputs`). NRQ is kept incrementally, and each output
    /// costs one walk of its candidates (charge()): the walk picks the
    /// candidate minimizing (NRQ, rotated rank) — exactly the rotating
    /// tie-break chain, with no per-input scan and no `%` — and takes the
    /// consumed output off every candidate's NRQ as it goes. Produces
    /// bit-identical matchings to LcfCentralReferenceScheduler (enforced
    /// by the equivalence property suite).
    void run_lcf(const sched::RequestMatrix& requests,
                 const util::BitVec* busy_inputs,
                 const util::BitVec* busy_outputs, sched::Matching& out);
    void advance_diagonal() noexcept;
    void ensure_scratch(std::size_t n_in, std::size_t n_out);
    /// The candidate of `column` ∩ free_inputs_ minimizing (NRQ, rank in
    /// the chain rotating from `start`), or npos when there is none;
    /// charges every candidate one choice in the same walk.
    std::size_t charge(const util::BitVec& column, std::size_t start) noexcept;

    LcfCentralOptions options_;
    std::size_t rr_input_ = 0;   // I in the pseudocode
    std::size_t rr_output_ = 0;  // J in the pseudocode
    std::size_t n_in_ = 0;       // geometry the scratch is sized for
    std::size_t n_out_ = 0;
    // Scratch reused across slots.
    util::BitVec free_inputs_;         // inputs still competing
    util::BitVec masked_row_;          // precalc path: row & ~busy_outputs
    std::vector<std::uint32_t> nrq_;   // remaining choices per free input
    // charge(): the non-zero words of column ∩ free_inputs_, each with
    // the index of its first bit.
    std::vector<std::pair<std::uint64_t, std::size_t>> live_words_;
    // schedule_with_precalc() stage-1 scratch.
    util::BitVec busy_inputs_;         // inputs that won a precalc claim
    util::BitVec busy_outputs_;        // outputs a precalc claim took
};

}  // namespace lcf::core
