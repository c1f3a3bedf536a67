#include "clint/quick_channel.hpp"

#include <cassert>
#include <stdexcept>

namespace lcf::clint {

namespace {

void require(bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(message);
}

}  // namespace

QuickChannelSim::QuickChannelSim(
    const QuickChannelConfig& config,
    std::unique_ptr<traffic::TrafficGenerator> traffic)
    : config_(config),
      traffic_(std::move(traffic)),
      rng_(util::derive_seed(config.seed, 0x41CC)),
      injector_(config.fault_plan) {
    require(config_.hosts > 0, "hosts must be positive");
    // The quick channel draws its corruptions itself instead of through
    // an ErrorLink, so it validates the rate the way ErrorLink does.
    require(config_.bit_error_rate >= 0.0 && config_.bit_error_rate <= 1.0,
            "bit_error_rate must be in [0, 1]");
    // A zero-capacity send queue would silently drop every packet.
    require(config_.queue_capacity > 0, "queue_capacity must be positive");
    require(traffic_ != nullptr, "traffic generator required");
    traffic_->reset(config_.hosts, config_.hosts, config_.seed);
    arrival_buf_.assign(config_.hosts, traffic::kNoArrival);
    hosts_.resize(config_.hosts);
    for (auto& h : hosts_) {
        h.queue = sim::PacketQueue(config_.queue_capacity);
    }
    target_priority_.assign(config_.hosts, 0);
    last_delivered_id_.assign(config_.hosts, kNoneDelivered);
    injector_.reset(config_.hosts);
    p_data_corrupt_ = fault::corruption_probability(config_.bit_error_rate,
                                                    config_.payload_bits);
    p_ack_corrupt_ = fault::corruption_probability(config_.bit_error_rate,
                                                   config_.ack_bits);
}

void QuickChannelSim::crash_host(std::size_t host) {
    Host& h = hosts_[host];
    // The send queue and the stop-and-wait window die with the host;
    // copies whose delivery already landed are complete, everything else
    // is a crash loss. Pending bulk acknowledgments vanish too — their
    // loss is the bulk channel's timeout problem.
    stats_.crash_lost += h.queue.size();
    h.queue.clear();
    if (h.inflight) {
        if (!h.inflight->delivered_once) ++stats_.crash_lost;
        h.inflight.reset();
    }
    control_lost_ += h.control.size();
    h.control.clear();
}

void QuickChannelSim::step() {
    injector_.begin_slot(slot_);
    for (const std::size_t h : injector_.crashed().set_bits()) crash_host(h);
    const util::BitVec& down = injector_.down_hosts();

    // Arrivals into the send queues (one batched generator call).
    traffic_->arrivals(slot_, arrival_buf_.data());
    for (std::size_t h = 0; h < config_.hosts; ++h) {
        const std::int32_t dst = arrival_buf_[h];
        if (dst == traffic::kNoArrival) continue;
        ++stats_.generated;
        const sim::Packet p{next_packet_id_++, static_cast<std::uint32_t>(h),
                            static_cast<std::uint32_t>(dst), slot_};
        if (down.test(h)) {
            ++stats_.crash_lost;  // offered to a dead protocol stack
            continue;
        }
        if (!hosts_[h].queue.push(p)) ++stats_.dropped_queue;
    }

    // Each host decides what to transmit this slot: a pending control
    // packet (bulk acknowledgment — highest priority, §4.1), a retry of
    // the in-flight data packet (on timeout), or a fresh head-of-queue
    // data packet. `dest` records where it goes (kNone for nothing).
    for (std::size_t h = 0; h < config_.hosts; ++h) {
        Host& host = hosts_[h];
        host.sending_control = false;
        host.dest = kNone;
        if (down.test(h)) continue;  // transmits nothing
        if (!host.control.empty()) {
            host.sending_control = true;
            host.dest = host.control.front();
            host.control.erase(host.control.begin());
            ++control_sent_;
            // Did the control packet displace a data opportunity?
            const bool data_ready =
                (host.inflight && !host.inflight->awaiting_ack &&
                 host.inflight->retries < config_.max_retries) ||
                (!host.inflight && !host.queue.empty());
            if (data_ready) ++control_preemptions_;
            continue;
        }
        if (host.inflight) {
            Outstanding& o = *host.inflight;
            if (o.awaiting_ack) continue;  // still inside the timeout window
            if (o.retries >= config_.max_retries) {
                // Give up. A copy whose delivery already landed is not
                // data loss — only its acks kept vanishing; the older
                // accounting conflated the two.
                if (o.delivered_once) {
                    ++stats_.abandoned_delivered;
                } else {
                    ++stats_.abandoned;
                }
                host.inflight.reset();
            } else {
                ++o.retries;
                ++stats_.retransmissions;
                o.sent_slot = slot_;
                o.awaiting_ack = true;
                host.dest = o.packet.destination;
            }
        }
        if (!host.inflight && !host.queue.empty()) {
            host.inflight = Outstanding{host.queue.pop(), slot_, 0, true};
            host.dest = host.inflight->packet.destination;
        }
    }

    // Switch: one winner per target, rotating priority among everything
    // heading there (data and control alike); losers dropped. The winner
    // is the contender with the smallest rank (h - target_priority_[j])
    // mod hosts. Hosts arrive in ascending order, so a later contender h
    // outranks the current winner w exactly when w < pointer <= h, and
    // every contender after a target's first is a collision.
    winner_.assign(config_.hosts, kNone);
    for (std::size_t h = 0; h < config_.hosts; ++h) {
        const std::uint32_t j = hosts_[h].dest;
        if (j == kNone) continue;
        std::uint32_t& w = winner_[j];
        if (w != kNone) {
            ++stats_.collisions;
            if (w >= target_priority_[j] || h < target_priority_[j]) continue;
        }
        w = static_cast<std::uint32_t>(h);
    }

    // Delivery and acknowledgment for the winners.
    for (std::size_t j = 0; j < config_.hosts; ++j) {
        if (winner_[j] == kNone) continue;
        const std::size_t src = winner_[j];
        target_priority_[j] = src + 1 == config_.hosts ? 0 : src + 1;
        Host& host = hosts_[src];
        if (host.sending_control) {
            // Fire-and-forget ack: delivered unless a fault eats it.
            if (injector_.absorbs(fault::LinkKind::kData, src, j, slot_)) {
                ++control_lost_;
            }
            continue;
        }
        Outstanding& o = *host.inflight;
        if (rng_.next_bool(injector_.corruption_probability(
                p_data_corrupt_, fault::LinkKind::kData, src, slot_,
                config_.payload_bits))) {
            ++stats_.corruptions;  // lost in flight; timeout will retry
            continue;
        }
        if (injector_.absorbs(fault::LinkKind::kData, src, j, slot_)) {
            ++stats_.fault_losses;  // absorbed in flight; timeout will retry
            continue;
        }
        const sim::Packet& p = o.packet;
        // Stop-and-wait per host + FIFO send queues: each source's
        // packets arrive in increasing id order, so one remembered id
        // per source suffices for duplicate suppression.
        if (last_delivered_id_[src] == kNoneDelivered ||
            p.id > last_delivered_id_[src]) {
            last_delivered_id_[src] = p.id;
            o.delivered_once = true;
            ++stats_.delivered_unique;
            if (p.generated_slot >= config_.warmup_slots) {
                delay_.add(static_cast<double>(slot_ + 1 - p.generated_slot));
            }
        } else {
            ++stats_.duplicate_deliveries;
        }
        if (rng_.next_bool(injector_.corruption_probability(
                p_ack_corrupt_, fault::LinkKind::kAck, j, slot_,
                config_.ack_bits))) {
            ++stats_.corruptions;  // ack lost; sender will retransmit
            continue;
        }
        // The ack goes back to src, which is up: a down host never
        // transmits, so the liveness half of absorbs() is always false.
        assert(!down.test(src));
        if (injector_.absorbs(fault::LinkKind::kAck, j, src, slot_)) {
            ++stats_.fault_losses;  // ack absorbed; sender will retransmit
            continue;
        }
        host.inflight.reset();  // acknowledged
    }

    // Timeout bookkeeping: senders whose ack window expired become
    // eligible to retransmit in a later slot.
    for (auto& host : hosts_) {
        if (host.inflight && host.inflight->awaiting_ack &&
            slot_ + 1 - host.inflight->sent_slot >= config_.ack_timeout) {
            host.inflight->awaiting_ack = false;
        }
    }

    ++slot_;
}

void QuickChannelSim::inject_control(std::size_t host, std::size_t target) {
    require(host < config_.hosts, "inject_control: host out of range");
    require(target < config_.hosts, "inject_control: target out of range");
    hosts_[host].control.push_back(static_cast<std::uint32_t>(target));
}

sim::Accounting QuickChannelSim::accounting() const noexcept {
    sim::Accounting a;
    a.generated = stats_.generated;
    a.delivered_unique = stats_.delivered_unique;
    a.dropped = stats_.dropped_queue + stats_.crash_lost;
    a.abandoned = stats_.abandoned;
    for (const Host& h : hosts_) {
        a.queued += h.queue.size();
        if (h.inflight && !h.inflight->delivered_once) ++a.in_flight;
    }
    return a;
}

QuickChannelResult QuickChannelSim::run() {
    while (slot_ < config_.slots) step();
    return result();
}

QuickChannelResult QuickChannelSim::result() const {
    QuickChannelResult r = stats_;
    r.faults = injector_.counters();
    r.mean_delay = delay_.mean();
    r.max_delay = delay_.count() ? delay_.max() : 0.0;
    r.delivery_ratio = r.generated == 0
                           ? 0.0
                           : static_cast<double>(r.delivered_unique) /
                                 static_cast<double>(r.generated);
    return r;
}

}  // namespace lcf::clint
