#include "sim/switch_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lcf::sim {

SwitchSim::SwitchSim(const SimConfig& config,
                     std::unique_ptr<sched::Scheduler> scheduler,
                     std::unique_ptr<traffic::TrafficGenerator> traffic)
    : config_(config),
      scheduler_(std::move(scheduler)),
      traffic_(std::move(traffic)),
      metrics_(config.ports, config.ports, config.warmup_slots,
               config.record_service_matrix),
      requests_(config.ports),
      matching_(config.ports),
      down_ports_(config.ports) {
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
            input_queues_.assign(config_.ports,
                                 PacketQueue(config_.pq_capacity));
            voqs_.assign(config_.ports,
                         VoqBank(config_.ports, config_.voq_capacity));
            if (config_.speedup > 1) {
                output_buffers_.assign(config_.ports,
                                       PacketQueue(config_.outbuf_capacity));
            }
            break;
        case SwitchMode::kFifo:
            input_queues_.assign(config_.ports,
                                 PacketQueue(config_.fifo_capacity));
            break;
        case SwitchMode::kOutputBuffered:
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
        if (config_.trace_capacity > 0) {
            trace_.emplace(config_.ports, config_.ports,
                           config_.trace_capacity);
        }
        if (config_.paranoid) {
            checker_.emplace(obs::ParanoidChecker::options_for(
                scheduler_->name(), scheduler_->iteration_limit()));
            checker_->reset(config_.ports, config_.ports);
        }
    }
    if (!config_.fault_plan.empty()) {
        injector_.emplace(config_.fault_plan);
        injector_->reset(config_.ports);
    }
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

void SwitchSim::observe_schedule() {
    // Observe the matching as produced by the scheduler, before the
    // fabric may reject connections: the invariants being checked (and
    // the starvation ages) are properties of the scheduler itself.
    counters_.observe_cycle(requests_.total(), matching_.size());
    if (trace_) {
        trace_->record(counters_.cycles - 1, requests_, matching_);
    }
    if (checker_) {
        checker_->check_cycle(requests_, matching_);
        checker_->check_iterations(scheduler_->last_iterations());
    }
}

void SwitchSim::apply_fabric() {
    if (!clos_) return;
    const fabric::ClosRoute route = clos_->route(matching_);
    for (const std::size_t input : route.rejected_inputs) {
        matching_.unmatch_input(input);
        ++fabric_blocked_;
    }
}

void SwitchSim::deliver(const Packet& p) {
    // The packet crosses the output link during the current slot and is
    // gone at its end: delay = (slot_ + 1) - generated_slot, so a packet
    // forwarded in its generation slot has the minimum delay of 1.
    const std::uint64_t delay = slot_ + 1 - p.generated_slot;
    metrics_.on_delivered(p.generated_slot, delay, p.source, p.destination);
    if (slot_ >= config_.warmup_slots) ++departed_after_warmup_;
}

void SwitchSim::step_arrivals() {
    traffic_->arrivals(slot_, arrival_buf_.data());
    for (std::size_t i = 0; i < config_.ports; ++i) {
        const std::int32_t dst = arrival_buf_[i];
        if (dst == traffic::kNoArrival) continue;
        metrics_.on_generated();
        if (down_ports_.test(i)) {
            // A crashed host offers the packet into the void.
            metrics_.on_dropped();
            ++next_packet_id_;
            continue;
        }
        const Packet p{next_packet_id_++, static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(dst), slot_};
        bool accepted = false;
        switch (config_.mode) {
            case SwitchMode::kVoq:
            case SwitchMode::kFifo:
                accepted = input_queues_[i].push(p);
                break;
            case SwitchMode::kOutputBuffered:
                accepted = output_buffers_[p.destination].push(p);
                break;
        }
        if (!accepted) metrics_.on_dropped();
    }
}

void SwitchSim::step_voq_mode() {
    // PQ -> VOQ: move packets as long as the head's VOQ has space
    // ("buffered in the packet queues and next, if space permits, in the
    // virtual output queues").
    for (std::size_t i = 0; i < config_.ports; ++i) {
        auto& pq = input_queues_[i];
        while (!pq.empty() &&
               !voqs_[i].queue(pq.front().destination).full()) {
            const std::size_t dst = pq.front().destination;
            voqs_[i].push(pq.pop());
            if (track_queue_lengths_) {
                ++queue_lengths_[i * config_.ports + dst];
            }
        }
    }

    // A fault-plan stall freezes the switch core for the slot: no
    // scheduling phases run and no matching is produced. Buffered
    // packets stay put; only the output links (speedup drain below)
    // keep moving.
    const bool stalled = injector_ && injector_->scheduler_stalled(slot_);
    if (stalled) {
        ++counters_.stalled_cycles;
        matching_.reset(config_.ports, config_.ports);
    }
    for (std::size_t phase = 0; !stalled && phase < config_.speedup; ++phase) {
        // Request matrix from VOQ occupancy: a word copy of each bank's
        // incrementally maintained occupancy vector.
        for (std::size_t i = 0; i < config_.ports; ++i) {
            requests_.row(i) = voqs_[i].occupancy();
        }
        if (injector_) mask_down_ports();

        if (phase == 0 && slot_ >= config_.warmup_slots) {
            // "Choices" diagnostic: mean non-empty VOQs per input. Read
            // from the banks' incrementally maintained counts; with a
            // fault injector engaged the masked request rows differ from
            // raw occupancy, so fall back to counting the actual rows.
            std::size_t nonempty = 0;
            if (injector_) {
                for (std::size_t i = 0; i < config_.ports; ++i) {
                    nonempty += requests_.row(i).count();
                }
            } else {
                for (std::size_t i = 0; i < config_.ports; ++i) {
                    nonempty += voqs_[i].nonempty_count();
                }
            }
            choices_accum_ += static_cast<double>(nonempty) /
                              static_cast<double>(config_.ports);
            ++choices_slots_;
        }

        // Weight-aware schedulers (iLQF) additionally see the occupancy
        // counts behind the request bits (maintained at push/pop, not
        // gathered here).
        if (track_queue_lengths_) {
            scheduler_->observe_queue_lengths(queue_lengths_, config_.ports);
        }

        scheduler_->schedule(requests_, matching_);
        assert(matching_.valid_for(requests_));
        observe_schedule();
        apply_fabric();

        // Transfer the head-of-VOQ packet of every matched pair,
        // visiting only the matched outputs (set-bit scan — at high load
        // most outputs are matched, but at low load this skips nearly
        // the whole port range). At speedup 1 the packet crosses
        // straight onto the output link; with speedup the fabric outruns
        // the link, so packets land in the per-output buffer drained at
        // line rate below.
        for (const std::size_t j : matching_.matched_outputs().set_bits()) {
            const std::int32_t i = matching_.input_of(j);
            assert(i != sched::kUnmatched);
            auto& bank = voqs_[static_cast<std::size_t>(i)];
            assert(!bank.queue(j).empty());
            if (config_.speedup == 1) {
                deliver(bank.pop(j));
            } else if (!output_buffers_[j].full()) {
                output_buffers_[j].push(bank.pop(j));
            } else {
                continue;  // full output buffer leaves the packet in its VOQ
            }
            if (track_queue_lengths_) {
                --queue_lengths_[static_cast<std::size_t>(i) * config_.ports + j];
            }
        }
    }

    if (config_.speedup > 1) {
        for (std::size_t j = 0; j < config_.ports; ++j) {
            if (!output_buffers_[j].empty()) {
                deliver(output_buffers_[j].pop());
            }
        }
    }
}

void SwitchSim::mask_down_ports() {
    // Degraded-mode scheduling: crashed ports vanish from the request
    // matrix — their rows (as initiators) and their columns (as targets)
    // — so the scheduler matches only the surviving ports and never
    // wastes a grant on a connection nobody can terminate.
    if (down_ports_.none()) return;
    for (std::size_t i = 0; i < config_.ports; ++i) {
        if (down_ports_.test(i)) {
            requests_.row(i).clear();
        } else {
            requests_.row(i).subtract(down_ports_);
        }
    }
}

void SwitchSim::step_fifo_mode() {
    const bool stalled = injector_ && injector_->scheduler_stalled(slot_);
    if (stalled) {
        ++counters_.stalled_cycles;
        matching_.reset(config_.ports, config_.ports);
        return;
    }
    // Head-of-line requests: each input requests exactly the destination
    // of its FIFO head.
    requests_.clear();
    for (std::size_t i = 0; i < config_.ports; ++i) {
        if (!input_queues_[i].empty()) {
            requests_.set(i, input_queues_[i].front().destination);
        }
    }
    if (injector_) mask_down_ports();

    scheduler_->schedule(requests_, matching_);
    assert(matching_.valid_for(requests_));
    observe_schedule();
    apply_fabric();

    for (const std::size_t j : matching_.matched_outputs().set_bits()) {
        const std::int32_t i = matching_.input_of(j);
        assert(i != sched::kUnmatched);
        auto& q = input_queues_[static_cast<std::size_t>(i)];
        assert(!q.empty() && q.front().destination == j);
        deliver(q.pop());
    }
}

void SwitchSim::step_outbuf_mode() {
    // Arrivals were written straight into the output buffers (the fabric
    // of an output-buffered switch accepts up to n packets per output per
    // slot); each output link drains one packet per slot.
    for (std::size_t j = 0; j < config_.ports; ++j) {
        if (!output_buffers_[j].empty()) {
            deliver(output_buffers_[j].pop());
        }
    }
}

void SwitchSim::step() {
    if (injector_) {
        injector_->begin_slot(slot_);
        for (std::size_t i = 0; i < config_.ports; ++i) {
            down_ports_.set(i, !injector_->host_up(i, slot_));
        }
    }
    step_arrivals();
    switch (config_.mode) {
        case SwitchMode::kVoq:
            step_voq_mode();
            break;
        case SwitchMode::kFifo:
            step_fifo_mode();
            break;
        case SwitchMode::kOutputBuffered:
            step_outbuf_mode();
            break;
    }
    ++slot_;
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
    r.sched = counters_;
    if (injector_) r.faults = injector_->counters();
    if (trace_) {
        r.sched.max_starvation_age = std::max(
            r.sched.max_starvation_age, trace_->ages().high_watermark());
    }
    if (checker_) {
        r.sched.max_starvation_age = std::max(r.sched.max_starvation_age,
                                              checker_->max_starvation_age());
        r.sched.paranoid_violations = checker_->violation_count();
    }
    const std::uint64_t measured_slots =
        slot_ > config_.warmup_slots ? slot_ - config_.warmup_slots : 0;
    r.throughput =
        measured_slots == 0
            ? 0.0
            : static_cast<double>(departed_after_warmup_) /
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
