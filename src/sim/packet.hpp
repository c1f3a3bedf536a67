#pragma once
// Fixed-size packet (cell) descriptor. The paper's switch forwards
// fixed-size packets in aligned time slots, so the payload never matters
// to the simulation — only identity, endpoints, and timing.

#include <cstdint>

namespace lcf::sim {

/// One fixed-size packet travelling through the simulated switch.
struct Packet {
    std::uint64_t id = 0;  ///< Clint: unique, in generation order; SwitchSim: 0
    std::uint32_t source = 0;    ///< input port that generated it
    std::uint32_t destination = 0;  ///< output port it is destined for
    std::uint64_t generated_slot = 0;  ///< slot in which the PG emitted it
    /// Position in its (source, destination) flow, assigned contiguously
    /// at generation. Protocol models use it for sequence-number
    /// duplicate suppression (clint::SeqTracker); the plain switch
    /// simulation ignores it.
    std::uint64_t flow_seq = 0;
};

}  // namespace lcf::sim
