#pragma once
// A bank of virtual output queues: bounded FIFOs sharing one node pool,
// so its memory follows the packets it buffers, not queues × capacity.

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/packet.hpp"

namespace lcf::sim {

/// `queues` bounded FIFOs of `Entry`. Each Clint host keeps a bank of whole
/// packets, queue j for output j (VoqBank); the switch simulator one bank,
/// queue i·ports + j holding input i's generation slots for output j.
///
/// Each queue is a singly linked list {head, tail, size} threaded through
/// the bank's pool of {Entry, next} nodes. push() takes a node from a
/// LIFO free list (appending one only when the list is empty) and pop()
/// returns it there, so the pool never exceeds the bank's peak
/// occupancy and recently freed nodes are reused while still in cache.
/// Headers sit in 3 KB blocks of kBlock, block 0 a member (one allocation
/// for each Clint host's bank): one 786 KB array for a 256-port switch
/// would be mapped and faulted in afresh for every simulator.
///
/// The bank holds only the queues: a simulator keeps its request bits
/// (!empty(q)) in step at its own push/pop sites.
template <class Entry>
class BasicVoqBank {
public:
    /// Bound on queues × capacity: node indices are 32-bit, with the
    /// top value reserved as the end-of-list marker.
    static constexpr std::size_t kMaxNodes =
        std::numeric_limits<std::uint32_t>::max();

    BasicVoqBank() = default;
    /// `queues` queues of `capacity` entries each. Throws
    /// std::invalid_argument naming `voq_capacity` when it is zero or
    /// queues × capacity exceeds kMaxNodes.
    BasicVoqBank(std::size_t queues, std::size_t capacity)
        : first_(std::min(queues, kBlock)),
          capacity_(static_cast<Index>(capacity)) {
        if (capacity == 0) {
            throw std::invalid_argument("voq_capacity must be positive");
        }
        if (queues != 0 && capacity > kMaxNodes / queues) {
            throw std::invalid_argument("queues x voq_capacity exceeds the "
                                        "VOQ bank's 32-bit node index");
        }
        blocks_.reserve(queues / kBlock);
        for (std::size_t q = kBlock; q < queues; q += kBlock) {
            blocks_.emplace_back(std::min(kBlock, queues - q));
        }
    }

    [[nodiscard]] std::size_t size(std::size_t queue) const noexcept {
        return header(*this, queue).size;
    }
    [[nodiscard]] bool empty(std::size_t queue) const noexcept {
        return header(*this, queue).size == 0;
    }
    [[nodiscard]] bool full(std::size_t queue) const noexcept {
        return header(*this, queue).size == capacity_;
    }

    /// Enqueue into `queue`; false (drop) when full. May allocate (the
    /// pool grows to the bank's peak occupancy), hence not noexcept.
    bool push(std::size_t queue, const Entry& e) {
        Queue& q = header(*this, queue);
        if (q.size == capacity_) return false;
        Index n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
            nodes_[n] = Node{e, kNil};
        } else {
            n = static_cast<Index>(nodes_.size());
            nodes_.push_back(Node{e, kNil});
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
    /// Enqueue a packet into its destination's queue.
    bool push(const Packet& p) requires std::same_as<Entry, Packet> {
        return push(p.destination, p);
    }
    /// Dequeue the head entry of `queue` (precondition: non-empty).
    Entry pop(std::size_t queue) noexcept {
        Queue& q = header(*this, queue);
        assert(q.size > 0);
        const Index n = q.head;
        Node& node = nodes_[n];
        q.head = node.next;
        node.next = free_;
        free_ = n;
        --buffered_;
        --q.size;
        return node.entry;
    }

    /// Total entries buffered across all queues.
    [[nodiscard]] std::size_t total_buffered() const noexcept { return buffered_; }

private:
    using Index = std::uint32_t;
    static constexpr Index kNil = std::numeric_limits<Index>::max();

    static constexpr std::size_t kBlock = 256;
    struct Node { Entry entry; Index next = kNil; };
    struct Queue { Index head, tail, size; };  // head, tail: while size > 0

    template <class Self>  // const or not, as the bank is
    static auto& header(Self& self, std::size_t q) noexcept {
        return q < kBlock ? self.first_[q]
                          : self.blocks_[q / kBlock - 1][q % kBlock];
    }

    std::vector<Node> nodes_;
    std::vector<Queue> first_;
    std::vector<std::vector<Queue>> blocks_;  // queues kBlock and up
    Index free_ = kNil;  // head of the LIFO free list
    Index capacity_ = 0;
    std::size_t buffered_ = 0;
};

using VoqBank = BasicVoqBank<Packet>;
using SlotVoqBank = BasicVoqBank<std::uint64_t>;

}  // namespace lcf::sim
