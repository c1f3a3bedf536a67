#include "clint/bulk_channel.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <stdexcept>

namespace lcf::clint {

namespace {

void require(bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(message);
}

// One control packet's trip through its link's bit errors and the fault
// plan: nullopt when the plan absorbs the wire, else what the receiver
// decodes (nullopt inside on a CRC error). A packet with a clean link
// draw in a quiet slot arrives as sent without the codec, which is exact
// because decode(encode(p)) == p. Every draw is made as on the codec path.
template <class Packet>
std::optional<std::optional<Packet>> carry(
    const Packet& sent, ErrorLink& link, util::BitFlipper& flips,
    fault::FaultInjector& injector, fault::LinkKind kind, std::size_t host,
    std::uint64_t slot) {
    assert(Packet::decode(sent.encode()) == sent);
    const bool clean = link.clean(flips);
    if (clean && injector.quiet(slot)) return sent;
    auto wire = sent.encode();
    if (!clean) link.corrupt(wire, flips);
    const std::optional<std::size_t> arrived =
        injector.transmit(kind, host, slot, wire);
    if (!arrived) return std::nullopt;
    return Packet::decode(std::span(wire).first(*arrived));
}

}  // namespace

BulkChannelSim::BulkChannelSim(
    const BulkChannelConfig& config,
    std::unique_ptr<traffic::TrafficGenerator> traffic)
    : config_(config),
      traffic_(std::move(traffic)),
      scheduler_(core::LcfCentralOptions{.variant = core::RrVariant::kInterleaved}),
      data_rng_(util::derive_seed(config.seed, 0xDA7A)),
      injector_(config.fault_plan),
      // Default checker options: the diagonal-fairness check stays off
      // because precalculated multicast claims (§4.3) may occupy an
      // output, the diagonal's included, indefinitely.
      observer_(config.hosts, config.hosts, 0,
                config.paranoid ? std::make_optional(obs::ParanoidOptions{})
                                : std::nullopt) {
    require(config_.hosts > 0 && config_.hosts <= 16,
            "bulk channel supports 1..16 hosts");
    require(traffic_ != nullptr, "traffic generator required");
    traffic_->reset(config_.hosts, config_.hosts, config_.seed);
    arrival_buf_.assign(config_.hosts, traffic::kNoArrival);
    scheduler_.reset(config_.hosts, config_.hosts);
    hosts_.resize(config_.hosts);
    uplinks_.reserve(config_.hosts);
    downlinks_.reserve(config_.hosts);
    for (std::size_t h = 0; h < config_.hosts; ++h) {
        // Throws for a zero (or oversized) voq_capacity.
        hosts_[h].voqs = sim::VoqBank(config_.hosts, config_.voq_capacity);
        uplinks_.emplace_back(config_.bit_error_rate,
                              util::derive_seed(config_.seed, 100 + h));
        downlinks_.emplace_back(config_.bit_error_rate,
                                util::derive_seed(config_.seed, 200 + h));
    }
    seq_.reset(config_.hosts * config_.hosts);
    next_flow_seq_.assign(config_.hosts * config_.hosts, 0);
    switch_crc_flag_.assign(config_.hosts, false);
    switch_link_flag_.assign(config_.hosts, false);
    injector_.reset(config_.hosts);
    // Independent-bit corruption over the nominal payload / ack sizes.
    p_data_corrupt_ = fault::corruption_probability(config_.bit_error_rate,
                                                    config_.payload_bits);
    p_ack_corrupt_ = fault::corruption_probability(config_.bit_error_rate,
                                                   config_.ack_bits);
}

void BulkChannelSim::enqueue_multicast(std::size_t host,
                                       std::uint16_t target_mask) {
    require(host < config_.hosts, "enqueue_multicast: host out of range");
    require((target_mask >> config_.hosts) == 0,
            "enqueue_multicast: target_mask bit out of range");
    hosts_[host].multicast.push_back(
        MulticastEntry{target_mask, next_packet_id_++, slot_});
}

void BulkChannelSim::set_bulk_enable_report(std::size_t host,
                                            std::uint16_t ben_mask) {
    require(host < config_.hosts, "set_bulk_enable_report: host out of range");
    // Only a cleared bit names an initiator (it disables it); the bits
    // above the last host stay set, as in the all-enabled 0xFFFF.
    require((static_cast<std::uint16_t>(~ben_mask) >> config_.hosts) == 0,
            "set_bulk_enable_report: ben_mask bit out of range");
    hosts_[host].ben_report = ben_mask;
}

std::uint64_t BulkChannelSim::retry_window(
    std::uint32_t retries) const noexcept {
    if (!config_.exponential_backoff) return config_.ack_timeout;
    if (retries >= 63) return config_.backoff_cap;
    const std::uint64_t window = config_.ack_timeout << retries;
    // Catch shift overflow past the cap as well as plain growth.
    if (window > config_.backoff_cap ||
        (window >> retries) != config_.ack_timeout) {
        return config_.backoff_cap;
    }
    return window;
}

std::uint16_t BulkChannelSim::request_mask(const Host& h) const {
    // Every non-empty VOQ requests its target (`nonempty`, kept current
    // at push, pop and crash), and lost transfers waiting in the
    // retransmit queue re-request theirs. No packet needs holding back
    // for an in-flight grant: step() spends last slot's grant before this
    // slot's configuration packet is built.
    for (std::size_t j = 0; j < config_.hosts; ++j) {
        assert(h.voqs.empty(j) != (((h.nonempty >> j) & 1U) != 0));
    }
    std::uint16_t mask = h.nonempty;
    for (const auto& p : h.retransmit) {
        mask = static_cast<std::uint16_t>(mask | (1U << p.packet.destination));
    }
    return mask;
}

void BulkChannelSim::crash_host(std::size_t host) {
    Host& h = hosts_[host];
    // Everything the host buffered dies with it. Undelivered packets are
    // accounted as crash losses and their sequence holes closed so the
    // receiver-side trackers keep advancing; copies whose delivery
    // already landed (only the ack was pending) just disappear.
    const auto lose = [&](const sim::Packet& p) {
        ++stats_.crash_lost;
        seq_.skip(flow_of(p), p.flow_seq);
    };
    for (std::size_t j = 0; j < config_.hosts; ++j) {
        while (!h.voqs.empty(j)) lose(h.voqs.pop(j));
    }
    h.nonempty = 0;
    for (const auto* transfers : {&h.retransmit, &h.outstanding}) {
        for (const Transfer& t : *transfers) {
            if (!t.delivered) lose(t.packet);
        }
    }
    h.retransmit.clear();
    h.outstanding.clear();
    stats_.multicast_lost += h.multicast.size();
    h.multicast.clear();
    h.pending_grant.reset();
    h.pending_fanout.clear();
}

void BulkChannelSim::step_arrivals() {
    traffic_->arrivals(slot_, arrival_buf_.data());
    for (std::size_t h = 0; h < config_.hosts; ++h) {
        const std::int32_t dst = arrival_buf_[h];
        if (dst == traffic::kNoArrival) continue;
        ++stats_.generated;
        sim::Packet p{next_packet_id_++, static_cast<std::uint32_t>(h),
                      static_cast<std::uint32_t>(dst), slot_};
        p.flow_seq = next_flow_seq_[flow_of(p)]++;
        if (!host_up(h)) {
            // A crashed host generates into the void: the application
            // offered the packet, the dead protocol stack lost it.
            ++stats_.crash_lost;
            seq_.skip(flow_of(p), p.flow_seq);
            continue;
        }
        if (hosts_[h].voqs.push(p)) {
            hosts_[h].nonempty =
                static_cast<std::uint16_t>(hosts_[h].nonempty | (1U << dst));
        } else {
            ++stats_.dropped_voq;
            seq_.skip(flow_of(p), p.flow_seq);
        }
    }
}

void BulkChannelSim::step_timeouts() {
    for (auto& h : hosts_) {
        for (std::size_t k = 0; k < h.outstanding.size();) {
            Transfer& o = h.outstanding[k];
            if (slot_ < o.deadline) {
                ++k;
                continue;
            }
            if (config_.max_retries != 0 && o.retries >= config_.max_retries) {
                // Give up. If the target never saw it, that is a real
                // loss; if only the ack kept vanishing, the delivery
                // already counted and the copy simply dies.
                if (!o.delivered) {
                    ++stats_.abandoned;
                    seq_.skip(flow_of(o.packet), o.packet.flow_seq);
                }
            } else {
                ++o.retries;
                h.retransmit.push_back(o);
                ++stats_.retransmissions;
            }
            h.outstanding.erase(h.outstanding.begin() +
                                static_cast<std::ptrdiff_t>(k));
        }
    }
}

void BulkChannelSim::deliver(const Transfer& t) {
    const sim::Packet& p = t.packet;
    if (!seq_.deliver(flow_of(p), p.flow_seq)) {
        ++stats_.duplicate_deliveries;
        return;
    }
    ++stats_.delivered_unique;
    const std::uint64_t delay = slot_ + 1 - p.generated_slot;
    if (p.generated_slot >= config_.warmup_slots) {
        delay_.add(static_cast<double>(delay));
        delay_hist_.add(delay);
    }
    if (slot_ >= config_.warmup_slots) ++delivered_after_warmup_;
    if (t.retries > 0) {
        ++stats_.recovered;
        recovery_delay_.add(static_cast<double>(slot_ + 1 - t.first_sent));
    }
}

void BulkChannelSim::step_transfers() {
    // Transfer + acknowledge stages for the grants issued last slot.
    for (std::size_t hi = 0; hi < config_.hosts; ++hi) {
        Host& h = hosts_[hi];

        // Multicast fan-out admitted by the precalculated stage.
        if (!h.pending_fanout.empty()) {
            assert(!h.multicast.empty());
            h.multicast.erase(h.multicast.begin());
            for (const std::size_t target : h.pending_fanout) {
                if (data_rng_.next_bool(injector_.corruption_probability(
                        p_data_corrupt_, fault::LinkKind::kData, hi, slot_,
                        config_.payload_bits))) {
                    ++stats_.data_corruptions;
                } else if (injector_.absorbs(fault::LinkKind::kData, hi,
                                             target, slot_)) {
                    ++stats_.multicast_lost;
                } else {
                    ++stats_.multicast_copies;
                }
            }
            h.pending_fanout.clear();
        }

        if (!h.pending_grant) continue;
        const std::size_t target = *h.pending_grant;
        h.pending_grant.reset();

        // Pick the packet for this target: lost transfers first, then
        // the VOQ head.
        Transfer t{{}, 0, slot_, 0, false};
        const auto rit = std::find_if(
            h.retransmit.begin(), h.retransmit.end(),
            [&](const Transfer& r) { return r.packet.destination == target; });
        if (rit != h.retransmit.end()) {
            t = *rit;
            h.retransmit.erase(rit);
        } else {
            assert(!h.voqs.empty(target));
            t.packet = h.voqs.pop(target);
            if (h.voqs.empty(target)) {
                h.nonempty =
                    static_cast<std::uint16_t>(h.nonempty & ~(1U << target));
            }
        }
        // The ack is due within the retry window of this transmission.
        t.deadline = slot_ + std::min(retry_window(t.retries),
                                      ~std::uint64_t{0} - slot_);

        // Bulk data packet across the fabric.
        if (data_rng_.next_bool(injector_.corruption_probability(
                p_data_corrupt_, fault::LinkKind::kData, hi, slot_,
                config_.payload_bits)) ||
            injector_.absorbs(fault::LinkKind::kData, hi, target, slot_)) {
            ++stats_.data_corruptions;
            // No ack will come; the timeout path retransmits.
            h.outstanding.push_back(t);
            continue;
        }
        deliver(t);

        // Acknowledgment back over the quick channel (sent by `target`).
        // Its destination `hi` is up: crash_host() clears a crashed
        // host's pending grant, so the liveness half of absorbs() is
        // always false here.
        last_acks_.emplace_back(target, hi);
        assert(host_up(hi));
        if (data_rng_.next_bool(injector_.corruption_probability(
                p_ack_corrupt_, fault::LinkKind::kAck, target, slot_,
                config_.ack_bits)) ||
            injector_.absorbs(fault::LinkKind::kAck, target, hi, slot_)) {
            ++stats_.ack_losses;
            t.delivered = true;
            h.outstanding.push_back(t);
        }
        // Ack received: transfer complete, nothing outstanding.
    }
}

void BulkChannelSim::step_scheduling() {
    if (injector_.scheduler_stalled(slot_)) {
        // The switch core is stalled: no configs are processed, no
        // grants issued. Pipeline commitments from earlier slots are
        // untouched; hosts simply see a grantless slot.
        observer_.stall();
        return;
    }
    const std::size_t n = config_.hosts;
    if (requests_.inputs() != n) {  // first slot: size the scratch
        requests_ = sched::RequestMatrix(n);
        req_row_ = util::BitVec(n);
        precalc_ = core::PrecalcSchedule(n);
        config_flips_ = util::BitFlipper(config_.bit_error_rate,
                                         ConfigPacket::kWireSize);
        grant_flips_ = util::BitFlipper(config_.bit_error_rate,
                                        GrantPacket::kWireSize);
    }
    decoded_cfgs_.assign(n, std::nullopt);
    std::uint16_t ben_consensus = 0xFFFF;
    for (std::size_t h = 0; h < n; ++h) {
        // step_transfers() spent last slot's grant; request_mask() relies
        // on it.
        assert(!hosts_[h].pending_grant);
        if (!host_up(h)) {
            // A crashed host sends nothing; the switch reports linkErr
            // in the grant it would have returned.
            switch_link_flag_[h] = true;
            continue;
        }
        ConfigPacket cfg;
        cfg.req = request_mask(hosts_[h]);
        cfg.pre = hosts_[h].multicast.empty()
                      ? std::uint16_t{0}
                      : hosts_[h].multicast.front().target_mask;
        cfg.ben = hosts_[h].ben_report;
        cfg.qen = 0xFFFF;
        const auto arrived = carry(cfg, uplinks_[h], config_flips_, injector_,
                                   fault::LinkKind::kUplink, h, slot_);
        if (!arrived) {
            ++stats_.configs_lost;
            switch_link_flag_[h] = true;
            continue;  // absorbed whole: the switch hears silence
        }
        decoded_cfgs_[h] = *arrived;
        if (!decoded_cfgs_[h]) {
            ++stats_.config_crc_errors;
            switch_crc_flag_[h] = true;
            continue;  // switch treats this host as requesting nothing
        }
        ben_consensus = static_cast<std::uint16_t>(ben_consensus &
                                                   decoded_cfgs_[h]->ben);
    }
    // Fault isolation (§4.1): an initiator any host reported disabled
    // is fenced — its requests and precalculated claims are ignored.
    fenced_mask_ = static_cast<std::uint16_t>(~ben_consensus);
    // Degraded-mode scheduling: crashed targets are masked out of the
    // requests and the precalculated claims (the hosts fit one word); a
    // crashed host was never heard, so its own row is empty.
    const std::uint64_t down = injector_.down_hosts().word(0);
    for (std::size_t h = 0; h < n; ++h) {
        const bool heard = decoded_cfgs_[h] && !(fenced_mask_ & (1U << h));
        req_row_.set_word(0, heard ? decoded_cfgs_[h]->req & ~down : 0U);
        requests_.assign_row(h, req_row_);
        req_row_.set_word(0, heard ? decoded_cfgs_[h]->pre & ~down : 0U);
        precalc_.assign_row(h, req_row_);
    }

    scheduler_.schedule_with_precalc(requests_, precalc_, schedule_);
    // Observe only the unicast matching: every one of its grants is
    // backed by a request bit, while precalculated fan-out connections
    // are admitted from the `pre` claims outside the request matrix.
    observer_.observe(requests_, schedule_.unicast,
                      scheduler_.last_iterations());

    for (std::size_t h = 0; h < n; ++h) {
        if (!host_up(h)) continue;  // nobody is listening for this grant
        GrantPacket gnt;
        gnt.node_id = static_cast<std::uint8_t>(h);
        const std::int32_t target = schedule_.unicast.output_of(h);
        gnt.gnt_val = target != sched::kUnmatched;
        gnt.gnt = gnt.gnt_val ? static_cast<std::uint8_t>(target) : 0;
        gnt.crc_err = switch_crc_flag_[h];
        gnt.link_err = switch_link_flag_[h];
        switch_crc_flag_[h] = false;
        switch_link_flag_[h] = false;

        const auto arrived = carry(gnt, downlinks_[h], grant_flips_, injector_,
                                   fault::LinkKind::kDownlink, h, slot_);
        if (!arrived) {
            ++stats_.grants_lost;
            continue;  // host misses its grant; the slot goes unused
        }
        const std::optional<GrantPacket>& decoded = *arrived;
        if (!decoded) {
            ++stats_.grant_crc_errors;
            continue;  // host misses its grant; the slot goes unused
        }
        if (decoded->gnt_val) {
            hosts_[h].pending_grant = decoded->gnt;
        }
        // Precalculated fan-out: targets whose fanout names this host
        // but that are not part of the unicast matching. Only a claim
        // from this host's admitted config can put it there.
        if (!hosts_[h].multicast.empty()) {
            auto& fan = hosts_[h].pending_fanout;  // empty since transfer
            for (std::size_t j = 0; j < n; ++j) {
                if (schedule_.fanout[j] == static_cast<std::int32_t>(h) &&
                    schedule_.unicast.input_of(j) == sched::kUnmatched) {
                    fan.push_back(j);
                }
            }
        }
    }
}

void BulkChannelSim::step() {
    injector_.begin_slot(slot_);
    for (const std::size_t h : injector_.crashed().set_bits()) crash_host(h);
    last_acks_.clear();
    step_arrivals();
    step_timeouts();
    // Transfers before scheduling: every grant issued last slot is spent
    // (its packet popped or taken from the retransmit queue) before this
    // slot's configuration packets are built, so request_mask() needs no
    // count of grants committed but not yet transferred.
    step_transfers();
    step_scheduling();
    ++slot_;
}

std::size_t BulkChannelSim::buffered_total() const noexcept {
    std::size_t total = 0;
    for (const Host& h : hosts_) {
        total += h.voqs.total_buffered();
        total += h.retransmit.size();
        total += h.outstanding.size();
        total += h.multicast.size();
        // A pending grant's packet still sits in a VOQ or the retransmit
        // queue, so it is already counted.
    }
    return total;
}

sim::Accounting BulkChannelSim::accounting() const noexcept {
    sim::Accounting a;
    a.generated = stats_.generated;
    a.delivered_unique = stats_.delivered_unique;
    a.dropped = stats_.dropped_voq + stats_.crash_lost;
    a.abandoned = stats_.abandoned;
    for (const Host& h : hosts_) {
        a.queued += h.voqs.total_buffered();
        for (const auto& r : h.retransmit) {
            if (!r.delivered) ++a.queued;
        }
        for (const auto& o : h.outstanding) {
            if (!o.delivered) ++a.in_flight;
        }
    }
    return a;
}

BulkChannelResult BulkChannelSim::run() {
    while (slot_ < config_.slots) step();
    return result();
}

BulkChannelResult BulkChannelSim::result() const {
    BulkChannelResult r = stats_;
    r.sched = observer_.counters();
    r.faults = injector_.counters();
    r.mean_delay = delay_.mean();
    r.max_delay = delay_.count() ? delay_.max() : 0.0;
    r.p50_delay = delay_hist_.percentile(0.5);
    r.p99_delay = delay_hist_.percentile(0.99);
    r.mean_recovery_delay = recovery_delay_.mean();
    const std::uint64_t measured_slots =
        slot_ > config_.warmup_slots ? slot_ - config_.warmup_slots : 0;
    r.goodput = measured_slots == 0
                    ? 0.0
                    : static_cast<double>(delivered_after_warmup_) /
                          (static_cast<double>(measured_slots) *
                           static_cast<double>(config_.hosts));
    return r;
}

}  // namespace lcf::clint
