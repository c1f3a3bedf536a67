#pragma once
// Per-flow sequence-number duplicate suppression for the Clint
// channels. Each (source, destination) flow numbers its packets
// contiguously at generation (sim::Packet::flow_seq); a receiver-side
// SeqTracker then answers "first delivery or duplicate?" in O(k) with
// memory bounded by the reorder window k, unlike the delivered-id hash
// set it replaces, which grew with every packet ever delivered and made
// multi-million-slot soak runs accumulate without bound.
//
// The tracker keeps, per flow, a base sequence number (everything below
// it is accounted for) plus a sorted vector, which keeps its capacity,
// of the accounted-for numbers above it. Reordering keeps it small;
// packets destroyed before delivery (VOQ overflow, abandonment after
// max retries, host crashes) are skip()ed so their holes close and the
// base keeps advancing.

#include <algorithm>
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
    }

    /// Record a delivery of `seq` on `flow`. True when this is the first
    /// time the sequence number is seen (count it delivered); false for
    /// a duplicate.
    bool deliver(std::size_t flow, std::uint64_t seq) {
        return account(flows_[flow], seq);
    }

    /// Mark `seq` as accounted for without a delivery — the packet was
    /// destroyed (dropped, abandoned, lost in a crash) and will never
    /// arrive, so its hole must not pin the flow's base forever.
    void skip(std::size_t flow, std::uint64_t seq) {
        account(flows_[flow], seq);
    }

    /// Packets at or above the base currently held out of order, summed
    /// over flows — the tracker's live memory footprint.
    [[nodiscard]] std::size_t pending() const noexcept {
        std::size_t n = 0;
        for (const Flow& f : flows_) n += f.ahead.size();
        return n;
    }

private:
    struct Flow {
        std::uint64_t base = 0;  // all seq < base are accounted for
        std::vector<std::uint64_t> ahead;  // accounted-for seqs > base, sorted
    };

    /// Returns true when `seq` was not yet accounted for.
    static bool account(Flow& f, std::uint64_t seq) {
        if (seq < f.base) return false;
        if (seq == f.base) {
            // The new base swallows the run of held numbers it reaches.
            auto it = f.ahead.begin();
            for (++f.base; it != f.ahead.end() && *it == f.base; ++it) {
                ++f.base;
            }
            f.ahead.erase(f.ahead.begin(), it);
            return true;
        }
        const auto it = std::lower_bound(f.ahead.begin(), f.ahead.end(), seq);
        if (it != f.ahead.end() && *it == seq) return false;
        f.ahead.insert(it, seq);
        return true;
    }

    std::vector<Flow> flows_;
};

}  // namespace lcf::clint
