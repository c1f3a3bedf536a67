#pragma once
// The virtual-output-queue bank of one input port: one bounded FIFO per
// output, plus the occupancy bit vector the scheduler's request matrix is
// built from.

#include <cstddef>
#include <vector>

#include "sim/packet_queue.hpp"
#include "util/bitvec.hpp"

namespace lcf::sim {

/// Per-input VOQ bank: `outputs` bounded FIFOs.
///
/// The occupancy bit vector is maintained incrementally on push()/pop()
/// (one bit flip when a queue transitions empty <-> non-empty), so the
/// simulator's per-phase request-matrix rebuild is a word copy instead
/// of n per-queue emptiness probes. All mutations must therefore go
/// through the bank — queue() hands out const access only.
class VoqBank {
public:
    VoqBank() = default;
    /// One queue of `capacity` entries per output.
    VoqBank(std::size_t outputs, std::size_t capacity);

    [[nodiscard]] std::size_t outputs() const noexcept { return queues_.size(); }

    /// Queue holding packets destined for `output` (read-only; mutate
    /// via push()/pop()).
    [[nodiscard]] const PacketQueue& queue(std::size_t output) const noexcept {
        return queues_[output];
    }

    /// Enqueue into the destination's queue; false (drop) when full.
    /// May allocate (the queue's ring grows lazily), hence not noexcept.
    bool push(const Packet& p);
    /// Dequeue the head packet destined for `output` (precondition: the
    /// queue is non-empty).
    Packet pop(std::size_t output) noexcept;

    /// Occupancy bits: bit j set iff queue j is non-empty — exactly the
    /// request vector this input sends to the scheduler.
    [[nodiscard]] const util::BitVec& occupancy() const noexcept {
        return occupancy_;
    }

    /// Total packets buffered across all queues.
    [[nodiscard]] std::size_t total_buffered() const noexcept;

private:
    std::vector<PacketQueue> queues_;
    util::BitVec occupancy_;
};

}  // namespace lcf::sim
