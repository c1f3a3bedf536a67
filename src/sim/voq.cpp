#include "sim/voq.hpp"

#include <cassert>
#include <stdexcept>

namespace lcf::sim {

VoqBank::VoqBank(std::size_t outputs, std::size_t capacity)
    : queues_(outputs) {
    if (capacity == 0) {
        throw std::invalid_argument("voq_capacity must be positive");
    }
    if (outputs != 0 && capacity > kMaxNodes / outputs) {
        throw std::invalid_argument(
            "outputs x voq_capacity exceeds the VOQ bank's 32-bit node index");
    }
    capacity_ = static_cast<Index>(capacity);
}

bool VoqBank::push(const Packet& p) {
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

Packet VoqBank::pop(std::size_t output) noexcept {
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

}  // namespace lcf::sim
