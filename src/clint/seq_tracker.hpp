#pragma once
// Per-flow sequence-number duplicate suppression for the Clint
// channels. Each (source, destination) flow numbers its packets
// contiguously at generation (sim::Packet::flow_seq); a receiver-side
// SeqTracker then answers "first delivery or duplicate?" with memory
// bounded by the reorder window, unlike the delivered-id hash set it
// replaces, which grew with every packet ever delivered and made
// multi-million-slot soak runs accumulate without bound.
//
// The tracker keeps, per flow, a base sequence number (everything below
// it is accounted for) plus a 64-bit window of the accounted-for numbers
// base + 1 .. base + 64. The rare number further ahead waits in one
// overflow list shared by all flows, which keeps its capacity, so a warm
// tracker does not allocate. Packets destroyed before delivery (VOQ
// overflow, abandonment after max retries, host crashes) are skip()ed
// so their holes close and the base keeps advancing.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lcf::clint {

/// Receiver-side duplicate suppression over densely numbered flows.
class SeqTracker {
public:
    SeqTracker() = default;
    /// Track `flows` independent flows, all starting at sequence 0.
    explicit SeqTracker(std::size_t flows) : flows_(flows) {}

    void reset(std::size_t flows) {
        flows_.assign(flows, Flow{});
        overflow_.clear();
    }

    /// Record a delivery of `seq` on `flow`. True when this is the first
    /// time the sequence number is seen (count it delivered); false for
    /// a duplicate.
    bool deliver(std::size_t flow, std::uint64_t seq) {
        return account(flow, seq);
    }

    /// Mark `seq` as accounted for without a delivery — the packet was
    /// destroyed (dropped, abandoned, lost in a crash) and will never
    /// arrive, so its hole must not pin the flow's base forever.
    void skip(std::size_t flow, std::uint64_t seq) { account(flow, seq); }

    /// Packets above the base currently held out of order, summed over
    /// flows — the tracker's live memory footprint.
    [[nodiscard]] std::size_t pending() const noexcept {
        std::size_t n = overflow_.size();
        for (const Flow& f : flows_) {
            n += static_cast<std::size_t>(std::popcount(f.window));
        }
        return n;
    }

private:
    struct Flow {
        std::uint64_t base = 0;    // all seq < base are accounted for
        std::uint64_t window = 0;  // bit k: base + 1 + k accounted for
    };
    struct Ahead {
        std::size_t flow;
        std::uint64_t seq;  // > flows_[flow].base + 64
    };

    /// Returns true when `seq` was not yet accounted for.
    bool account(std::size_t flow, std::uint64_t seq) {
        Flow& f = flows_[flow];
        if (seq < f.base) return false;
        if (seq == f.base) {
            advance(flow, f);
            return true;
        }
        const std::uint64_t k = seq - f.base - 1;
        if (k < 64) {
            const std::uint64_t bit = std::uint64_t{1} << k;
            if ((f.window & bit) != 0) return false;
            f.window |= bit;
            return true;
        }
        for (const Ahead& a : overflow_) {
            if (a.flow == flow && a.seq == seq) return false;
        }
        overflow_.push_back({flow, seq});
        return true;
    }

    /// The base was just accounted for: move it past the run of held
    /// numbers it reaches, pulling the flow's overflow entries that the
    /// window now covers into it.
    void advance(std::size_t flow, Flow& f) {
        bool base_held = true;
        while (base_held) {
            const int run = std::countr_one(f.window);
            f.base += 1 + static_cast<std::uint64_t>(run);
            f.window = run >= 63 ? 0 : f.window >> (run + 1);
            base_held = false;
            for (std::size_t i = 0; i < overflow_.size();) {
                const Ahead a = overflow_[i];
                if (a.flow != flow || a.seq - f.base > 64) {
                    ++i;
                    continue;
                }
                if (a.seq == f.base) {
                    base_held = true;
                } else {
                    f.window |= std::uint64_t{1} << (a.seq - f.base - 1);
                }
                overflow_[i] = overflow_.back();
                overflow_.pop_back();
            }
        }
    }

    std::vector<Flow> flows_;
    std::vector<Ahead> overflow_;  // held numbers beyond their window
};

}  // namespace lcf::clint
