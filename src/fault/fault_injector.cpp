#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lcf::fault {

namespace {

// Stream index spacing between link kinds: kind * kStreamsPerKind + index.
constexpr std::size_t kStreamsPerKind = 4096;

constexpr bool in_interval(std::uint64_t slot, std::uint64_t begin,
                           std::uint64_t end) noexcept {
    return slot >= begin && slot < end;
}

[[noreturn]] void out_of_range(const std::string& field,
                               const std::string& value, std::size_t hosts) {
    throw std::invalid_argument(field + " " + value + " out of range for " +
                                std::to_string(hosts) + " hosts");
}

template <class Entries>
bool any_active(const Entries& entries, std::uint64_t slot) noexcept {
    return std::any_of(entries.begin(), entries.end(), [slot](const auto& e) {
        return in_interval(slot, e.begin, e.end);
    });
}

template <class Entries>
void check_links(const Entries& entries, std::size_t hosts, const char* what) {
    for (const auto& e : entries) {
        const std::int32_t i = e.link.index;
        if (i != kAllLinks && (i < 0 || static_cast<std::size_t>(i) >= hosts)) {
            out_of_range(std::string(what) + ".link.index", std::to_string(i),
                         hosts);
        }
    }
}

/// 1 - prod(1 - p(e)) over the epochs active on (kind, index) at `slot`:
/// independent fault sources composed.
template <class Epochs, class Probability>
double compose(const Epochs& epochs, LinkKind kind, std::size_t index,
               std::uint64_t slot, Probability p) noexcept {
    double keep = 1.0;
    for (const auto& e : epochs) {
        if (e.link.matches(kind, index) && in_interval(slot, e.begin, e.end)) {
            keep *= 1.0 - p(e);
        }
    }
    return 1.0 - keep;
}

}  // namespace

void FaultCounters::merge(const FaultCounters& other) noexcept {
    packets_dropped += other.packets_dropped;
    packets_truncated += other.packets_truncated;
    packets_corrupted += other.packets_corrupted;
    bits_flipped += other.bits_flipped;
    crashes += other.crashes;
    restarts += other.restarts;
    stalled_slots += other.stalled_slots;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
    plan_.validate();
}

void FaultInjector::reset(std::size_t hosts) {
    for (const auto& c : plan_.host_crashes) {
        if (c.host >= hosts) {
            out_of_range("host_crash.host", std::to_string(c.host), hosts);
        }
    }
    check_links(plan_.bit_error_epochs, hosts, "bit_error_epoch");
    check_links(plan_.packet_loss_epochs, hosts, "packet_loss_epoch");
    check_links(plan_.link_down_intervals, hosts, "link_down_interval");
    // Only these entries can leave a slot non-quiet, and only a
    // non-quiet slot draws.
    const bool draws = !plan_.bit_error_epochs.empty() ||
                       !plan_.packet_loss_epochs.empty() ||
                       !plan_.link_down_intervals.empty();
    if (draws && hosts > kStreamsPerKind) {
        throw std::invalid_argument(
            "hosts " + std::to_string(hosts) +
            " exceeds the 4096 fault RNG streams per link kind");
    }
    hosts_ = hosts;
    rngs_.clear();
    if (draws) {
        rngs_.reserve(kLinkKinds * hosts);
        for (std::size_t kind = 0; kind < kLinkKinds; ++kind) {
            for (std::size_t index = 0; index < hosts; ++index) {
                rngs_.emplace_back(util::derive_seed(
                    plan_.seed, kind * kStreamsPerKind + index));
            }
        }
    }
    down_ = util::BitVec(hosts);
    crashed_ = util::BitVec(hosts);
    counters_ = FaultCounters{};
}

util::Xoshiro256& FaultInjector::rng_for(LinkKind kind,
                                         std::size_t index) noexcept {
    assert(index < hosts_ && !rngs_.empty());
    return rngs_[static_cast<std::size_t>(kind) * hosts_ + index];
}

void FaultInjector::begin_slot(std::uint64_t slot) {
    if (scheduler_stalled(slot)) ++counters_.stalled_slots;
    quiet_slot_.reset();
    if (!any_active(plan_.link_down_intervals, slot) &&
        !any_active(plan_.packet_loss_epochs, slot) &&
        !any_active(plan_.bit_error_epochs, slot)) {
        quiet_slot_ = slot;
    }
    if (plan_.host_crashes.empty()) return;  // down_ and crashed_ stay empty
    // crashed_ holds the previous down set while the new one is built.
    std::swap(down_, crashed_);
    down_.clear();
    for (const auto& c : plan_.host_crashes) {
        if (in_interval(slot, c.crash_slot, c.restart_slot)) down_.set(c.host);
    }
    counters_.restarts += crashed_.count() - crashed_.and_count(down_);
    crashed_.assign_subtract(down_, crashed_);
    counters_.crashes += crashed_.count();
}

bool FaultInjector::link_up(LinkKind kind, std::size_t index,
                            std::uint64_t slot) const noexcept {
    for (const auto& d : plan_.link_down_intervals) {
        if (d.link.matches(kind, index) && in_interval(slot, d.begin, d.end)) {
            return false;
        }
    }
    return true;
}

bool FaultInjector::scheduler_stalled(std::uint64_t slot) const noexcept {
    return any_active(plan_.scheduler_stalls, slot);
}

double FaultInjector::extra_ber(LinkKind kind, std::size_t index,
                                std::uint64_t slot) const noexcept {
    return compose(plan_.bit_error_epochs, kind, index, slot,
                   [](const BitErrorEpoch& e) { return e.bit_error_rate; });
}

std::optional<std::size_t> FaultInjector::transmit(
    LinkKind kind, std::size_t index, std::uint64_t slot,
    std::span<std::uint8_t> wire) {
    if (quiet(slot)) return wire.size();
    if (packet_lost(kind, index, slot)) return std::nullopt;
    const double p_trunc =
        compose(plan_.packet_loss_epochs, kind, index, slot,
                [](const PacketLossEpoch& e) { return e.truncation; });
    if (p_trunc > 0.0 && !wire.empty() &&
        rng_for(kind, index).next_bool(p_trunc)) {
        // Cut to a strictly shorter length, possibly zero bytes.
        wire = wire.first(rng_for(kind, index).next_below(wire.size()));
        ++counters_.packets_truncated;
    }
    const double ber = extra_ber(kind, index, slot);
    if (ber > 0.0 && !wire.empty()) {
        if (epoch_flips_.rate() != ber || epoch_flips_.bytes() != wire.size()) {
            epoch_flips_ = util::BitFlipper(ber, wire.size());
        }
        const std::uint64_t flips = epoch_flips_(wire, rng_for(kind, index));
        if (flips > 0) {
            counters_.bits_flipped += flips;
            ++counters_.packets_corrupted;
        }
    }
    return wire.size();
}

bool FaultInjector::packet_lost(LinkKind kind, std::size_t index,
                                std::uint64_t slot) {
    if (!link_up(kind, index, slot)) {
        ++counters_.packets_dropped;
        return true;
    }
    const double p_loss =
        compose(plan_.packet_loss_epochs, kind, index, slot,
                [](const PacketLossEpoch& e) { return e.loss; });
    if (p_loss > 0.0 && rng_for(kind, index).next_bool(p_loss)) {
        ++counters_.packets_dropped;
        return true;
    }
    return false;
}

double corruption_probability(double ber, std::size_t bits) noexcept {
    return 1.0 - std::pow(1.0 - ber, static_cast<double>(bits));
}

}  // namespace lcf::fault
