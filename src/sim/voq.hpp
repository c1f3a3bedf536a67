#pragma once
// The virtual-output-queue bank of one input port: one bounded FIFO per
// output. All of a bank's queues share one node pool, so its memory
// follows the packets it buffers, not outputs × capacity.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/packet.hpp"

namespace lcf::sim {

/// Per-input VOQ bank: `outputs` bounded FIFOs over one node pool.
///
/// Each queue is a singly linked list {head, tail, size} threaded through
/// the bank's pool of {Packet, next} nodes. push() takes a node from a
/// LIFO free list (appending one only when the list is empty) and pop()
/// returns it there, so the pool never exceeds the bank's peak
/// occupancy and recently freed nodes are reused while still in cache.
///
/// The bank holds only the queues: a simulator keeps its request bits
/// (!empty(j)) in step at its own push/pop sites.
class VoqBank {
public:
    /// Bound on outputs × capacity: node indices are 32-bit, with the
    /// top value reserved as the end-of-list marker.
    static constexpr std::size_t kMaxNodes =
        std::numeric_limits<std::uint32_t>::max();

    VoqBank() = default;
    /// One queue of `capacity` entries per output. Throws
    /// std::invalid_argument naming `voq_capacity` when it is zero or
    /// outputs × capacity exceeds kMaxNodes.
    VoqBank(std::size_t outputs, std::size_t capacity);

    [[nodiscard]] std::size_t size(std::size_t output) const noexcept {
        return queues_[output].size;
    }
    [[nodiscard]] bool empty(std::size_t output) const noexcept {
        return queues_[output].size == 0;
    }
    [[nodiscard]] bool full(std::size_t output) const noexcept {
        return queues_[output].size == capacity_;
    }

    /// Enqueue into the destination's queue; false (drop) when full.
    /// May allocate (the pool grows to the bank's peak occupancy), hence
    /// not noexcept.
    bool push(const Packet& p) {
        Queue& q = queues_[p.destination];
        if (q.size == capacity_) return false;
        Index n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
            nodes_[n] = Node{p, kNil};
        } else {
            n = static_cast<Index>(nodes_.size());
            nodes_.push_back(Node{p, kNil});
        }
        if (q.size == 0) {
            q.head = n;
        } else {
            nodes_[q.tail].next = n;
        }
        q.tail = n;
        ++q.size;
        ++buffered_;
        return true;
    }
    /// Dequeue the head packet destined for `output` (precondition: the
    /// queue is non-empty).
    Packet pop(std::size_t output) noexcept {
        Queue& q = queues_[output];
        assert(q.size > 0);
        const Index n = q.head;
        Node& node = nodes_[n];
        q.head = node.next;
        node.next = free_;
        free_ = n;
        --buffered_;
        --q.size;
        return node.packet;
    }

    /// Total packets buffered across all queues.
    [[nodiscard]] std::size_t total_buffered() const noexcept {
        return buffered_;
    }

private:
    using Index = std::uint32_t;
    static constexpr Index kNil = std::numeric_limits<Index>::max();

    struct Node {
        Packet packet;
        Index next = kNil;
    };
    struct Queue {
        Index head = kNil;
        Index tail = kNil;  // meaningful only while size > 0
        Index size = 0;
    };

    std::vector<Node> nodes_;
    std::vector<Queue> queues_;
    Index free_ = kNil;  // head of the LIFO free list
    Index capacity_ = 0;
    std::size_t buffered_ = 0;
};

}  // namespace lcf::sim
