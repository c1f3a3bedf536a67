#include "sim/voq.hpp"

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

}  // namespace lcf::sim
