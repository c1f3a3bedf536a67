#pragma once
// Bounded FIFO of packets, backed by a ring buffer. Used for the packet
// queues (PQ), the FIFO-mode input queues, the output buffers (output-
// buffered model and speedup), and the Clint quick channel's host queues.
// The virtual output queues live in sim::VoqBank's shared node pool.

#include <cassert>
#include <cstddef>
#include <vector>

#include "sim/packet.hpp"

namespace lcf::sim {

/// Bounded FIFO with O(1) push/pop.
///
/// Storage grows geometrically up to the configured capacity instead of
/// being allocated eagerly: the default bounds are deep (1000-entry PQs)
/// and most queues stay near-empty in any stable simulation, so eager
/// allocation (capacity × ports × sizeof(Packet)) would dominate
/// construction time and memory for short runs. Amortized push cost
/// stays O(1); `capacity()` is the bound, not the allocated storage.
class PacketQueue {
public:
    PacketQueue() = default;
    /// Queue holding at most `capacity` packets (storage allocated
    /// lazily as the queue actually fills).
    explicit PacketQueue(std::size_t capacity) : capacity_(capacity) {}

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

    /// Append `p`; returns false (and drops it) when full. May allocate
    /// (growing the ring), hence not noexcept.
    bool push(const Packet& p) {
        if (size_ == capacity_) return false;
        if (size_ == buffer_.size()) grow();
        std::size_t tail = head_ + size_;
        if (tail >= buffer_.size()) tail -= buffer_.size();
        buffer_[tail] = p;
        ++size_;
        return true;
    }

    /// Head of the queue (precondition: !empty()).
    [[nodiscard]] const Packet& front() const noexcept {
        assert(!empty());
        return buffer_[head_];
    }

    /// Remove and return the head (precondition: !empty()).
    Packet pop() noexcept {
        assert(!empty());
        const Packet p = buffer_[head_];
        if (++head_ == buffer_.size()) head_ = 0;
        --size_;
        return p;
    }

    /// Drop all contents (allocated storage is retained).
    void clear() noexcept {
        head_ = 0;
        size_ = 0;
    }

private:
    void grow();

    std::vector<Packet> buffer_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace lcf::sim
