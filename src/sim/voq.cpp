#include "sim/voq.hpp"

namespace lcf::sim {

VoqBank::VoqBank(std::size_t outputs, std::size_t capacity)
    : queues_(outputs, PacketQueue(capacity)), occupancy_(outputs) {}

bool VoqBank::push(const Packet& p) {
    auto& q = queues_[p.destination];
    const bool was_empty = q.empty();
    const bool accepted = q.push(p);
    if (accepted && was_empty) occupancy_.set(p.destination);
    return accepted;
}

Packet VoqBank::pop(std::size_t output) noexcept {
    Packet p = queues_[output].pop();
    if (queues_[output].empty()) occupancy_.reset(output);
    return p;
}

std::size_t VoqBank::total_buffered() const noexcept {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
}

}  // namespace lcf::sim
