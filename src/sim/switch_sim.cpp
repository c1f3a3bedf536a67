#include "sim/switch_sim.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace lcf::sim {

namespace {

// Checks are configured from the scheduler's name; without a scheduler
// (kOutputBuffered) there is nothing to trace or check.
obs::SchedObserver make_observer(const SimConfig& config,
                                 const sched::Scheduler* scheduler) {
    std::optional<obs::ParanoidOptions> paranoid;
    if (scheduler != nullptr && config.paranoid) {
        paranoid = obs::ParanoidChecker::options_for(
            scheduler->name(), scheduler->iteration_limit());
    }
    return {config.ports, config.ports,
            scheduler != nullptr ? config.trace_capacity : 0, paranoid};
}

// A packet as a VOQ holds it: the (input, output) names all but its slot.
Packet packet(std::size_t input, std::size_t output, std::uint64_t slot) {
    return {0, static_cast<std::uint32_t>(input),
            static_cast<std::uint32_t>(output), slot};
}

// A zero-capacity buffer would silently drop every packet offered to it.
void require_capacity(std::size_t capacity, const char* field) {
    if (capacity == 0) {
        throw std::invalid_argument(std::string(field) + " must be positive");
    }
}

}  // namespace

SwitchSim::SwitchSim(const SimConfig& config,
                     std::unique_ptr<sched::Scheduler> scheduler,
                     std::unique_ptr<traffic::TrafficGenerator> traffic)
    : config_(config),
      scheduler_(std::move(scheduler)),
      traffic_(std::move(traffic)),
      metrics_(config.ports, config.ports, config.warmup_slots,
               config.record_service_matrix),
      requests_(config.ports),
      masked_(config.fault_plan.host_crashes.empty() ? 0 : config.ports),
      matching_(config.ports),
      observer_(make_observer(config, scheduler_.get())),
      injector_(config.fault_plan) {
    if (config_.ports == 0) {
        throw std::invalid_argument("ports must be positive");
    }
    if (traffic_ == nullptr) {
        throw std::invalid_argument("traffic generator required");
    }
    if (config_.mode != SwitchMode::kOutputBuffered && scheduler_ == nullptr) {
        throw std::invalid_argument("scheduler required for input-queued modes");
    }

    traffic_->reset(config_.ports, config_.ports, config_.seed);
    arrival_buf_.assign(config_.ports, traffic::kNoArrival);
    if (config_.speedup == 0) {
        throw std::invalid_argument("speedup must be at least 1");
    }
    switch (config_.mode) {
        case SwitchMode::kVoq:
            require_capacity(config_.pq_capacity, "pq_capacity");
            input_queues_.assign(config_.ports,
                                 PacketQueue(config_.pq_capacity));
            // The bank rejects a zero or oversized voq_capacity itself.
            voqs_ = SlotVoqBank(config_.ports * config_.ports,
                                config_.voq_capacity);
            if (config_.speedup > 1) {
                require_capacity(config_.outbuf_capacity, "outbuf_capacity");
                output_buffers_.assign(config_.ports,
                                       PacketQueue(config_.outbuf_capacity));
            }
            break;
        case SwitchMode::kFifo:
            require_capacity(config_.fifo_capacity, "fifo_capacity");
            input_queues_.assign(config_.ports,
                                 PacketQueue(config_.fifo_capacity));
            break;
        case SwitchMode::kOutputBuffered:
            require_capacity(config_.outbuf_capacity, "outbuf_capacity");
            output_buffers_.assign(config_.ports,
                                   PacketQueue(config_.outbuf_capacity));
            break;
    }
    if (scheduler_ != nullptr) {
        scheduler_->reset(config_.ports, config_.ports);
        track_queue_lengths_ = scheduler_->wants_queue_lengths() &&
                               config_.mode == SwitchMode::kVoq;
        if (track_queue_lengths_) {
            queue_lengths_.assign(config_.ports * config_.ports, 0);
        }
    }
    injector_.reset(config_.ports);
    if (config_.clos_middle > 0) {
        if (config_.clos_group == 0 ||
            config_.ports % config_.clos_group != 0) {
            throw std::invalid_argument(
                "ports must be a multiple of clos_group");
        }
        clos_.emplace(config_.clos_group, config_.clos_middle,
                      config_.ports / config_.clos_group);
    }
}

bool SwitchSim::stalled() {
    // A fault-plan stall freezes the switch core for the slot: no
    // scheduling runs and no matching is produced. Buffered packets stay
    // put; only the output links (speedup drain) keep moving.
    if (!injector_.scheduler_stalled(slot_)) return false;
    observer_.stall();
    matching_.reset(config_.ports, config_.ports);
    return true;
}

std::size_t SwitchSim::schedule() {
    // Degraded mode: crashed ports vanish from a masked copy, so
    // requests_ itself keeps mirroring the queues.
    const sched::RequestMatrix* requests = &requests_;
    if (injector_.down_hosts().any()) {
        masked_ = requests_;
        masked_.mask_down_ports(injector_.down_hosts());
        requests = &masked_;
    }
    scheduler_->schedule(*requests, matching_);
    assert(matching_.valid_for(*requests));
    const std::size_t offered = observer_.observe(
        *requests, matching_, scheduler_->last_iterations());
    apply_fabric();
    return offered;
}

void SwitchSim::apply_fabric() {
    if (!clos_) return;
    const fabric::ClosRoute route = clos_->route(matching_);
    for (const std::size_t input : route.rejected_inputs) {
        matching_.unmatch_input(input);
        ++fabric_blocked_;
    }
}

inline void SwitchSim::deliver(const Packet& p) {
    // The packet crosses the output link during the current slot and is
    // gone at its end: delay = (slot_ + 1) - generated_slot, so a packet
    // forwarded in its generation slot has the minimum delay of 1.
    const std::uint64_t delay = slot_ + 1 - p.generated_slot;
    metrics_.on_delivered(p.generated_slot, delay, p.source, p.destination);
}

void SwitchSim::step_arrivals() {
    traffic_->arrivals(slot_, arrival_buf_.data());
    const bool any_down = injector_.down_hosts().any();
    const bool voq = config_.mode == SwitchMode::kVoq;
    const bool outbuf = config_.mode == SwitchMode::kOutputBuffered;
    std::uint64_t generated = 0;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < config_.ports; ++i) {
        const std::int32_t dst = arrival_buf_[i];
        if (dst == traffic::kNoArrival) continue;
        ++generated;
        const auto j = static_cast<std::size_t>(dst);
        // A crashed host offers the packet into the void. In kVoq mode,
        // this slot's PQ -> VOQ pass would move a packet that finds its
        // PQ empty straight on when its VOQ has room.
        const bool accepted =
            !(any_down && injector_.down_hosts().test(i)) &&
            ((voq && input_queues_[i].empty() && to_voq(packet(i, j, slot_))) ||
             (outbuf ? output_buffers_[j] : input_queues_[i])
                 .push(packet(i, j, slot_)));
        if (!accepted) ++dropped;
    }
    metrics_.on_generated(generated);
    metrics_.on_dropped(dropped);
}

inline bool SwitchSim::to_voq(const Packet& p) {
    const std::size_t q = p.source * config_.ports + p.destination;
    if (!voqs_.push(q, p.generated_slot)) return false;
    requests_.set(p.source, p.destination);
    if (track_queue_lengths_) ++queue_lengths_[q];
    return true;
}

void SwitchSim::step_voq_mode() {
    // PQ -> VOQ: move packets as long as the head's VOQ has space
    // ("buffered in the packet queues and next, if space permits, in the
    // virtual output queues").
    for (std::size_t i = 0; i < config_.ports; ++i) {
        auto& pq = input_queues_[i];
        while (!pq.empty() && to_voq(pq.front())) pq.pop();
    }

    const bool stall = stalled();
    for (std::size_t phase = 0; !stall && phase < config_.speedup; ++phase) {
        // requests_ already mirrors the VOQs (set at push, cleared by the
        // pop that empties a queue). Weight-aware schedulers (iLQF) also
        // see the occupancy counts behind its bits, likewise maintained.
        if (track_queue_lengths_) {
            scheduler_->observe_queue_lengths(queue_lengths_, config_.ports);
        }
        const std::size_t offered = schedule();
        if (phase == 0 && slot_ >= config_.warmup_slots) {
            // "Choices" diagnostic: mean requests per input (non-empty
            // VOQs of live ports).
            choices_accum_ += static_cast<double>(offered) /
                              static_cast<double>(config_.ports);
            ++choices_slots_;
        }

        // Transfer the head-of-VOQ packet of every matched pair,
        // visiting only the matched outputs (set-bit scan — at high load
        // most outputs are matched, but at low load this skips nearly
        // the whole port range). At speedup 1 the packet crosses
        // straight onto the output link; with speedup the fabric outruns
        // the link, so packets land in the per-output buffer drained at
        // line rate at the end of step().
        const bool direct = config_.speedup == 1;
        for (const std::size_t j : matching_.matched_outputs().set_bits()) {
            assert(matching_.input_of(j) != sched::kUnmatched);
            const auto i = static_cast<std::size_t>(matching_.input_of(j));
            const std::size_t q = i * config_.ports + j;
            assert(!voqs_.empty(q));
            if (direct) {
                deliver(packet(i, j, voqs_.pop(q)));
            } else if (!output_buffers_[j].full()) {
                output_buffers_[j].push(packet(i, j, voqs_.pop(q)));
            } else {
                continue;  // full output buffer leaves the packet in its VOQ
            }
            if (voqs_.empty(q)) requests_.set(i, j, false);
            if (track_queue_lengths_) --queue_lengths_[q];
        }
    }
}

void SwitchSim::step_fifo_mode() {
    if (stalled()) return;
    // Head-of-line requests: each input requests exactly the destination
    // of its FIFO head.
    requests_.clear();
    for (std::size_t i = 0; i < config_.ports; ++i) {
        if (!input_queues_[i].empty()) {
            requests_.set(i, input_queues_[i].front().destination);
        }
    }
    schedule();

    for (const std::size_t j : matching_.matched_outputs().set_bits()) {
        const std::int32_t i = matching_.input_of(j);
        assert(i != sched::kUnmatched);
        auto& q = input_queues_[static_cast<std::size_t>(i)];
        assert(!q.empty() && q.front().destination == j);
        deliver(q.pop());
    }
}

void SwitchSim::step() {
    if (slot_ == config_.warmup_slots) delivered_in_warmup_ = metrics_.delivered();
    injector_.begin_slot(slot_);
    step_arrivals();
    switch (config_.mode) {
        case SwitchMode::kVoq:
            step_voq_mode();
            break;
        case SwitchMode::kFifo:
            step_fifo_mode();
            break;
        case SwitchMode::kOutputBuffered:
            break;  // arrivals went straight into the output buffers
    }
    // Each output link drains one buffered packet per slot (kOutputBuffered,
    // or kVoq with speedup; no buffers exist otherwise).
    for (auto& q : output_buffers_) {
        if (!q.empty()) deliver(q.pop());
    }
    ++slot_;
    if (config_.paranoid && !accounting().balanced()) {
        throw std::logic_error(
            "SwitchSim: generated != delivered + queued + dropped after slot " +
            std::to_string(slot_ - 1));
    }
    if (config_.paranoid && !requests_mirror_voqs()) {
        throw std::logic_error(
            "SwitchSim: request matrix does not mirror the VOQs after slot " +
            std::to_string(slot_ - 1));
    }
}

bool SwitchSim::requests_mirror_voqs() const {
    // kVoq: R(t) = 1[Q(t) > 0]. RequestMatrix's == compares every view
    // (rows, columns, row counts, total) against a fresh build.
    if (config_.mode != SwitchMode::kVoq) return true;
    sched::RequestMatrix expected(config_.ports);
    for (std::size_t i = 0; i < config_.ports; ++i) {
        for (std::size_t j = 0; j < config_.ports; ++j) {
            if (!voqs_.empty(i * config_.ports + j)) expected.set(i, j);
        }
    }
    return requests_ == expected;
}

Accounting SwitchSim::accounting() const noexcept {
    Accounting a;
    a.generated = metrics_.generated();
    a.delivered_unique = metrics_.delivered();
    a.dropped = metrics_.dropped();
    for (const auto& q : input_queues_) a.queued += q.size();
    a.queued += voqs_.total_buffered();
    for (const auto& q : output_buffers_) a.queued += q.size();
    return a;
}

SimResult SwitchSim::run() {
    while (slot_ < config_.slots) step();
    return result();
}

SimResult SwitchSim::result() const {
    SimResult r;
    r.mean_delay = metrics_.delay_stat().mean();
    r.p50_delay = static_cast<double>(metrics_.delay_histogram().percentile(0.50));
    r.p99_delay = static_cast<double>(metrics_.delay_histogram().percentile(0.99));
    r.max_delay = metrics_.delay_stat().count() ? metrics_.delay_stat().max() : 0.0;
    r.offered_load = traffic_->offered_load();
    r.generated = metrics_.generated();
    r.delivered = metrics_.delivered();
    r.dropped = metrics_.dropped();
    r.measured = metrics_.measured();
    r.fabric_blocked = fabric_blocked_;
    r.mean_choices =
        choices_slots_ ? choices_accum_ / static_cast<double>(choices_slots_)
                       : 0.0;
    r.ports = config_.ports;
    r.sched = observer_.counters();
    r.faults = injector_.counters();
    const std::uint64_t measured_slots =
        slot_ > config_.warmup_slots ? slot_ - config_.warmup_slots : 0;
    r.throughput =
        measured_slots == 0
            ? 0.0
            : static_cast<double>(metrics_.delivered() - delivered_in_warmup_) /
                  (static_cast<double>(measured_slots) *
                   static_cast<double>(config_.ports));
    if (metrics_.has_service_matrix()) {
        r.service.resize(config_.ports * config_.ports);
        for (std::size_t i = 0; i < config_.ports; ++i) {
            for (std::size_t j = 0; j < config_.ports; ++j) {
                r.service[i * config_.ports + j] = metrics_.service(i, j);
            }
        }
    }
    return r;
}

}  // namespace lcf::sim
