#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <thread>

#include "clint/bulk_channel.hpp"
#include "clint/quick_channel.hpp"
#include "core/factory.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/traffic.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void Report::run_checked(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    failures.insert(failures.end(), problems.begin(), problems.end());
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "voq_n256_uniform", "fig12_n16_sweep", "clint_faulted"};
    return names;
}

namespace {

using lcf::sim::SimConfig;
using lcf::sim::SimResult;
using lcf::sim::SwitchMode;
using lcf::sim::SwitchSim;

// Set-up is short and noisy: every workload times it this many times up
// front, and once more per repetition, and reports the fast end of the
// samples (see kRateQuantile).
constexpr int kSetupSamples = 9;
// Queue depths are sampled between steps (outside every span) once per
// this many slots, to keep the O(n²) VOQ walk out of the traced rate.
constexpr std::uint64_t kQueueSampleEvery = 32;
// Slots per timed chunk (see step_in_chunks): about 10 ms of host time.
constexpr std::uint64_t kVoqChunk = 100;
constexpr std::uint64_t kClintChunk = 1000;
// A reported slot rate is this quantile of the run's chunk (or sweep)
// rates. Other processes on the host only ever slow a chunk down, and
// they come and go within a run, so the fast end of the distribution is
// the steady estimate of what the simulator itself costs.
constexpr double kRateQuantile = 0.9;

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
double ratio(T num, T den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

// Run `body` until `seconds` of host time have passed, at least once.
template <typename F>
void repeat_for(double seconds, F&& body) {
    const std::int64_t start = now_ns();
    do {
        body();
    } while (seconds_since(start) < seconds);
}

// Host seconds construct() takes; what it built is destroyed untimed.
template <typename F>
double time_setup(F&& construct) {
    const std::int64_t start = now_ns();
    const auto built = construct();
    return seconds_since(start);
}

// Steps slots [0, slots) through step(t). Warm-up slots, where the
// simulator's queues still grow their storage, run untimed; the rest are
// timed in chunks, appending each chunk's slot rate (see kRateQuantile).
template <typename Step>
void step_in_chunks(std::uint64_t slots, std::uint64_t warmup, std::uint64_t chunk,
                    std::vector<double>& rates, Step&& step) {
    std::uint64_t t = 0;
    for (; t < warmup; ++t) step(t);
    while (t < slots) {
        const std::uint64_t end = std::min(slots, t + chunk);
        const auto n = static_cast<double>(end - t);
        const std::int64_t start = now_ns();
        for (; t < end; ++t) step(t);
        rates.push_back(n / seconds_since(start));
    }
}

// Slot rate of running several simulators one after another, from each
// one's own rate.
double combined_rate(const std::vector<double>& rates) {
    double seconds_per_slot = 0.0;
    for (const double r : rates) seconds_per_slot += 1.0 / r;
    return static_cast<double>(rates.size()) / seconds_per_slot;
}

// ---------------------------------------------------------------------
// Switch simulations
// ---------------------------------------------------------------------

struct SwitchRun {
    TimedScheduler* scheduler = nullptr;  // owned by sim; set when traced
    std::unique_ptr<SwitchSim> sim;
};

// The simulator sim::run_named builds for `config_name`, with timed
// wrappers around its scheduler and traffic when `log` is given.
SwitchRun make_switch(const std::string& config_name, SimConfig config,
                      double load, SpanLog* log) {
    SwitchRun run;
    std::unique_ptr<lcf::sched::Scheduler> scheduler;
    if (config_name == "outbuf") {
        config.mode = SwitchMode::kOutputBuffered;
    } else {
        config.mode = config_name == "fifo" ? SwitchMode::kFifo : SwitchMode::kVoq;
        scheduler = lcf::core::make_scheduler(config_name);
    }
    std::unique_ptr<lcf::traffic::TrafficGenerator> traffic =
        lcf::traffic::make_traffic("uniform", load);
    if (log != nullptr) {
        if (scheduler) {
            auto timed = std::make_unique<TimedScheduler>(std::move(scheduler), *log);
            run.scheduler = timed.get();
            scheduler = std::move(timed);
        }
        traffic = std::make_unique<TimedTraffic>(std::move(traffic), *log);
    }
    run.sim = std::make_unique<SwitchSim>(config, std::move(scheduler),
                                          std::move(traffic));
    return run;
}

struct QueueStats {
    double occupancy_sum = 0.0;  // packets per input, summed over samples
    std::uint64_t samples = 0;
    std::size_t pq_depth_max = 0;

    void sample(const SwitchSim& sim) {
        const std::size_t n = sim.config().ports;
        const SwitchMode mode = sim.config().mode;
        if (mode == SwitchMode::kOutputBuffered) return;
        std::size_t buffered = 0;
        for (std::size_t i = 0; i < n; ++i) {
            pq_depth_max = std::max(pq_depth_max, sim.input_queue(i).size());
            if (mode == SwitchMode::kVoq) buffered += sim.voq(i).total_buffered();
        }
        occupancy_sum += static_cast<double>(buffered) / static_cast<double>(n);
        ++samples;
    }
    void merge(const QueueStats& o) {
        occupancy_sum += o.occupancy_sum;
        samples += o.samples;
        pq_depth_max = std::max(pq_depth_max, o.pq_depth_max);
    }
};

// One slot inside a step span, with queue depths sampled outside it.
void traced_step(SwitchSim& sim, SpanLog& log, QueueStats& queues, std::uint64_t t) {
    {
        Scoped step(&log, SpanKind::kStep);
        sim.step();
    }
    if (t % kQueueSampleEvery == 0) queues.sample(sim);
}

// Packets the switch holds right now, read through its public queues.
std::uint64_t queued_packets(const SwitchSim& sim) {
    const std::size_t n = sim.config().ports;
    std::uint64_t queued = 0;
    for (std::size_t p = 0; p < n; ++p) {
        switch (sim.config().mode) {
            case SwitchMode::kVoq:
                queued += sim.input_queue(p).size() + sim.voq(p).total_buffered();
                if (sim.config().speedup > 1) queued += sim.output_buffer(p).size();
                break;
            case SwitchMode::kFifo:
                queued += sim.input_queue(p).size();
                break;
            case SwitchMode::kOutputBuffered:
                queued += sim.output_buffer(p).size();
                break;
        }
    }
    return queued;
}

bool same_result(const SimResult& a, const SimResult& b) {
    return a.generated == b.generated && a.delivered == b.delivered &&
           a.dropped == b.dropped && a.measured == b.measured &&
           a.mean_delay == b.mean_delay && a.p99_delay == b.p99_delay &&
           a.throughput == b.throughput && a.sched.cycles == b.sched.cycles &&
           a.sched.grants == b.sched.grants;
}

// Conservation (generated = delivered + dropped + queued), agreement
// with `expected` (an earlier run of the same inputs), and, when traced,
// validity of every matching.
std::vector<std::string> check_switch(const SwitchRun& run,
                                      const SimResult* expected,
                                      const std::string& label) {
    std::vector<std::string> problems;
    const auto& m = run.sim->metrics();
    if (m.generated() != m.delivered() + m.dropped() + queued_packets(*run.sim)) {
        problems.push_back(label + ": generated != delivered + dropped + queued");
    }
    if (expected != nullptr && !same_result(run.sim->result(), *expected)) {
        problems.push_back(label + ": result differs from an earlier run of the same seed");
    }
    if (run.scheduler != nullptr && run.scheduler->counts().invalid > 0) {
        problems.push_back(label + ": " +
                           std::to_string(run.scheduler->counts().invalid) +
                           " matchings not valid for their requests");
    }
    return problems;
}

void sched_layer(Report& report, const std::string& name, LayerTimes& times,
                 const ScheduleCounts& counts) {
    const std::string p = "sched." + name + ".";
    report.per_layer[p + "schedule_ns_p50"] = times.quantile(SpanKind::kSchedule, 0.50);
    report.per_layer[p + "schedule_ns_p99"] = times.quantile(SpanKind::kSchedule, 0.99);
    report.per_layer[p + "share"] =
        ratio(times.total(SpanKind::kSchedule), times.total(SpanKind::kStep));
    report.per_layer[p + "iterations_mean"] = ratio(counts.iterations, counts.calls);
    report.per_layer[p + "match_ratio"] = ratio(counts.matched, counts.matchable);
}

// sim, traffic and tracer layers of a switch workload. Each step span's
// direct children are schedule, probe and arrivals, so
// sim self + sched + traffic + probe = step time exactly.
void switch_layers(Report& report, LayerTimes& all, const QueueStats& queues,
                   std::uint64_t drops) {
    const auto steps = static_cast<double>(all.n(SpanKind::kStep));
    const double step_ns = all.total(SpanKind::kStep);
    report.per_layer["sim.self_ns_per_slot"] = ratio(all.self(SpanKind::kStep), steps);
    report.per_layer["sim.step_ns_p50"] = all.quantile(SpanKind::kStep, 0.50);
    report.per_layer["sim.step_ns_p99"] = all.quantile(SpanKind::kStep, 0.99);
    report.per_layer["sim.share"] = ratio(all.self(SpanKind::kStep), step_ns);
    report.per_layer["sim.voq_occupancy_mean"] =
        ratio(queues.occupancy_sum, static_cast<double>(queues.samples));
    report.per_layer["sim.pq_depth_max"] = static_cast<double>(queues.pq_depth_max);
    report.per_layer["sim.drops"] = static_cast<double>(drops);
    report.per_layer["traffic.arrivals_ns_per_slot"] =
        ratio(all.total(SpanKind::kArrivals), steps);
    report.per_layer["traffic.share"] = ratio(all.total(SpanKind::kArrivals), step_ns);
    report.per_layer["trace.probe_ns_per_slot"] = ratio(all.total(SpanKind::kProbe), steps);
}

void common_end_to_end(Report& report, double slots_per_s, double setup_s) {
    report.end_to_end["slots_per_s"] = slots_per_s;
    report.end_to_end["setup_s"] = setup_s;
    report.end_to_end["peak_rss_mb"] = peak_rss_mb();
}

// ---------------------------------------------------------------------
// voq_n256_uniform: three schedulers, one after another, on one thread
// ---------------------------------------------------------------------

constexpr double kVoqLoad = 0.9;

Report run_voq(const Options& options) {
    const std::vector<std::string> names = {"lcf_central", "lcf_dist", "islip"};
    SimConfig base;
    base.ports = 256;
    base.slots = 2500;
    base.warmup_slots = 500;
    base.seed = lcf::util::derive_seed(options.seed, 1);

    Report report;
    report.config = {{"ports", "256"},
                     {"traffic", "uniform"},
                     {"load", "0.9"},
                     {"slots", std::to_string(base.slots)},
                     {"warmup_slots", std::to_string(base.warmup_slots)},
                     {"schedulers", "lcf_central,lcf_dist,islip"}};

    auto construct = [&] {
        std::vector<SwitchRun> runs;
        for (const auto& name : names) {
            runs.push_back(make_switch(name, base, kVoqLoad, nullptr));
        }
        return runs;
    };
    std::vector<double> setup;
    for (int s = 0; s < kSetupSamples; ++s) setup.push_back(time_setup(construct));

    const std::size_t k = names.size();
    std::vector<std::vector<double>> rates(k);
    std::vector<SimResult> first;
    std::vector<lcf::util::Histogram> delays;
    repeat_for(options.seconds, [&] {
        const std::int64_t start = now_ns();
        std::vector<SwitchRun> runs = construct();
        setup.push_back(seconds_since(start));
        for (std::size_t i = 0; i < k; ++i) {
            SwitchSim& sim = *runs[i].sim;
            step_in_chunks(base.slots, base.warmup_slots, kVoqChunk, rates[i],
                           [&sim](std::uint64_t) { sim.step(); });
            const bool is_first = first.size() < k;
            report.run_checked(check_switch(runs[i], is_first ? nullptr : &first[i], names[i]));
            if (is_first) {
                first.push_back(sim.result());
                delays.push_back(sim.metrics().delay_histogram());
            }
        }
    });

    std::vector<double> rate(k);
    for (std::size_t i = 0; i < k; ++i) rate[i] = quantile(rates[i], kRateQuantile);
    const double untraced = combined_rate(rate);
    common_end_to_end(report, untraced, quantile(setup, 1.0 - kRateQuantile));
    for (std::size_t i = 0; i < k; ++i) {
        report.end_to_end["slots_per_s." + names[i]] = rate[i];
    }
    lcf::util::Histogram pooled = delays[0];
    double throughput = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (i > 0) pooled.merge(delays[i]);
        throughput += first[i].throughput;
        generated += first[i].generated;
        dropped += first[i].dropped;
    }
    report.end_to_end["mean_delay_slots"] = pooled.mean();
    report.end_to_end["p99_delay_slots"] = static_cast<double>(pooled.percentile(0.99));
    report.end_to_end["goodput"] = throughput / static_cast<double>(k);
    report.per_layer["loss_fraction"] = ratio(dropped, generated);

    if (!options.trace) return report;
    LayerTimes all;
    QueueStats queues;
    std::vector<double> traced(k);
    for (std::size_t i = 0; i < k; ++i) {
        auto log = std::make_unique<SpanLog>(static_cast<std::uint32_t>(i));
        log->reserve(4 * base.slots + 8);
        SwitchRun run = make_switch(names[i], base, kVoqLoad, log.get());
        std::vector<double> chunk_rates;
        step_in_chunks(base.slots, base.warmup_slots, kVoqChunk, chunk_rates,
                       [&](std::uint64_t t) { traced_step(*run.sim, *log, queues, t); });
        traced[i] = quantile(chunk_rates, kRateQuantile);
        report.run_checked(check_switch(run, &first[i], names[i] + " (traced)"));
        LayerTimes mine;
        mine.add(*log);
        all.add(*log);
        sched_layer(report, names[i], mine, run.scheduler->counts());
        report.spans.push_back(std::move(log));
    }
    switch_layers(report, all, queues, dropped);
    report.per_layer["trace.overhead"] = 1.0 - combined_rate(traced) / untraced;
    return report;
}

// ---------------------------------------------------------------------
// fig12_n16_sweep: the Figure-12 line-up over a thinned load grid,
// through sim::sweep on the shared pool
// ---------------------------------------------------------------------

// The 23-point Figure-12 grid thinned to six points: three below the
// knee, three at and past saturation (fifo saturates near 0.6).
const std::vector<double>& fig12_loads() {
    static const std::vector<double> loads = {0.2, 0.5, 0.8, 0.9, 0.95, 1.0};
    return loads;
}

struct PointOutcome {
    std::unique_ptr<SpanLog> log;
    std::vector<std::string> problems;
    ScheduleCounts counts;
    QueueStats queues;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::thread::id worker;
};

Report run_fig12(const Options& options) {
    const std::vector<std::string>& names = lcf::core::figure12_names();
    const std::vector<double>& loads = fig12_loads();
    SimConfig base;  // Figure-12 defaults: 16 ports, VOQ 256, PQ 1000
    base.slots = 11000;
    base.warmup_slots = 1000;
    base.seed = lcf::util::derive_seed(options.seed, 2);
    const std::size_t points = names.size() * loads.size();
    const auto total_slots = static_cast<double>(points * base.slots);

    Report report;
    std::string load_list;
    for (const double load : loads) {
        if (!load_list.empty()) load_list += ',';
        load_list += std::to_string(load).substr(0, 4);
    }
    report.config = {{"ports", std::to_string(base.ports)},
                     {"voq_capacity", std::to_string(base.voq_capacity)},
                     {"pq_capacity", std::to_string(base.pq_capacity)},
                     {"traffic", "uniform"},
                     {"loads", load_list},
                     {"slots", std::to_string(base.slots)},
                     {"warmup_slots", std::to_string(base.warmup_slots)},
                     {"configs", "figure12_names (9)"}};

    // Set-up: start the shared pool once (a per-process cost), then
    // construct every grid point's simulator, as sim::sweep does inside
    // each timed sweep.
    const std::int64_t pool_start = now_ns();
    lcf::util::ThreadPool& pool = lcf::util::ThreadPool::shared();
    lcf::util::parallel_for_n(0, 0, pool.size(), [](std::size_t) {});
    const double pool_s = seconds_since(pool_start);
    report.workers = pool.size();
    report.config.emplace_back("workers", std::to_string(pool.size()));
    auto construct = [&] {
        std::vector<SwitchRun> runs;
        for (const auto& name : names) {
            for (const double load : loads) {
                runs.push_back(make_switch(name, base, load, nullptr));
            }
        }
        return runs;
    };
    std::vector<double> setup;
    for (int s = 0; s < kSetupSamples; ++s) setup.push_back(time_setup(construct));

    std::vector<double> rates;
    std::vector<lcf::sim::SweepPoint> first;
    repeat_for(options.seconds, [&] {
        setup.push_back(time_setup(construct));
        const std::int64_t start = now_ns();
        std::vector<lcf::sim::SweepPoint> sweep =
            lcf::sim::sweep(names, loads, base, "uniform");
        rates.push_back(total_slots / seconds_since(start));
        for (std::size_t p = 0; p < points; ++p) {
            const SimResult& r = sweep[p].result;
            std::vector<std::string> problems;
            if (r.generated < r.delivered + r.dropped) {
                problems.push_back(sweep[p].config_name + ": delivered + dropped > generated");
            }
            if (!first.empty() && !same_result(r, first[p].result)) {
                problems.push_back(sweep[p].config_name +
                                   ": result differs from an earlier sweep of the same seed");
            }
            report.run_checked(problems);
        }
        if (first.empty()) first = std::move(sweep);
    });
    const double untraced = quantile(rates, kRateQuantile);
    common_end_to_end(report, untraced, pool_s + quantile(setup, 1.0 - kRateQuantile));

    double delay_sum = 0.0;
    double p99_max = 0.0;
    double throughput = 0.0;
    std::uint64_t measured = 0;
    std::uint64_t generated = 0;
    std::uint64_t dropped = 0;
    for (const auto& point : first) {
        const SimResult& r = point.result;
        delay_sum += r.mean_delay * static_cast<double>(r.measured);
        measured += r.measured;
        p99_max = std::max(p99_max, r.p99_delay);
        throughput += r.throughput;
        generated += r.generated;
        dropped += r.dropped;
    }
    // One sweep times its configurations together, so the per-scheduler
    // rates are measured on voq_n256_uniform only.
    for (const char* name : {"lcf_central", "lcf_dist", "islip"}) {
        report.end_to_end[std::string("slots_per_s.") + name] = untraced;
    }
    report.end_to_end["mean_delay_slots"] = ratio(delay_sum, static_cast<double>(measured));
    report.end_to_end["p99_delay_slots"] = p99_max;
    report.end_to_end["goodput"] = throughput / static_cast<double>(points);
    report.per_layer["loss_fraction"] = ratio(dropped, generated);

    // Verification pass: rebuild every point from outside the sweep,
    // check conservation and agreement with the sweep, and (traced)
    // record spans. Runs after the timed sweeps, so it never counts
    // toward slots_per_s.
    std::vector<PointOutcome> outcomes(points);
    const std::int64_t pass_start = now_ns();
    lcf::util::parallel_for_n(0, 0, points, [&](std::size_t p) {
        PointOutcome& out = outcomes[p];
        out.worker = std::this_thread::get_id();
        if (options.trace) {
            out.log = std::make_unique<SpanLog>(static_cast<std::uint32_t>(p));
            out.log->reserve(4 * base.slots + 8);
        }
        const std::string& name = names[p / loads.size()];
        out.start_ns = now_ns();
        {
            Scoped point(out.log.get(), SpanKind::kPoint);
            SwitchRun run = make_switch(name, base, loads[p % loads.size()], out.log.get());
            if (out.log) {
                for (std::uint64_t t = 0; t < base.slots; ++t) {
                    traced_step(*run.sim, *out.log, out.queues, t);
                }
            } else {
                run.sim->run();
            }
            out.problems = check_switch(run, &first[p].result, name + " (rebuilt)");
            if (run.scheduler != nullptr) out.counts = run.scheduler->counts();
        }
        out.end_ns = now_ns();
    });
    const std::int64_t pass_end = now_ns();
    for (const auto& out : outcomes) report.run_checked(out.problems);
    if (!options.trace) return report;

    LayerTimes all;
    QueueStats queues;
    std::vector<double> point_s;
    double busy_s = 0.0;
    std::map<std::thread::id, std::int64_t> last_end;
    for (std::size_t c = 0; c < names.size(); ++c) {
        LayerTimes mine;
        ScheduleCounts counts;
        for (std::size_t l = 0; l < loads.size(); ++l) {
            PointOutcome& out = outcomes[c * loads.size() + l];
            mine.add(*out.log);
            all.add(*out.log);
            counts += out.counts;
            queues.merge(out.queues);
            const double s = static_cast<double>(out.end_ns - out.start_ns) * 1e-9;
            point_s.push_back(s);
            busy_s += s;
            auto& end = last_end[out.worker];
            end = std::max(end, out.end_ns);
        }
        if (names[c] != "outbuf") sched_layer(report, names[c], mine, counts);
    }
    switch_layers(report, all, queues, dropped);
    const double wall_s = static_cast<double>(pass_end - pass_start) * 1e-9;
    std::int64_t first_idle = pass_end;
    for (const auto& [worker, end] : last_end) first_idle = std::min(first_idle, end);
    report.per_layer["pool.efficiency"] =
        ratio(busy_s, wall_s * static_cast<double>(pool.size()));
    report.per_layer["pool.point_s_p50"] = quantile(point_s, 0.5);
    report.per_layer["pool.point_s_max"] = *std::max_element(point_s.begin(), point_s.end());
    // Straggler tail: from the moment the first worker ran out of points
    // to the end of the sweep.
    report.per_layer["pool.tail_s"] = static_cast<double>(pass_end - first_idle) * 1e-9;
    report.per_layer["trace.overhead"] = 1.0 - (total_slots / wall_s) / untraced;
    for (auto& out : outcomes) report.spans.push_back(std::move(out.log));
    return report;
}

// ---------------------------------------------------------------------
// clint_faulted: the integrated 16-host cluster under a fault plan
// ---------------------------------------------------------------------

constexpr std::uint64_t kClintSlots = 40000;
constexpr std::uint64_t kClintWarmup = kClintSlots / 10;

struct MulticastEvent {
    std::uint64_t slot;
    std::size_t host;
    std::uint16_t targets;
};
constexpr std::array<MulticastEvent, 4> kMulticasts = {{
    {0, 0, 0x00F0},
    {0, 8, 0xF000},
    {kClintSlots / 2, 12, 0x000F},
    {kClintSlots / 2, 4, 0x0F00},
}};

struct ClintConfigs {
    lcf::clint::BulkChannelConfig bulk;
    lcf::clint::QuickChannelConfig quick;
};

// Faults are short against the run, so the few packets they delay by
// hundreds of slots stay beyond the p99 and the delay metrics do not
// swing with which packets a fault happens to catch.
ClintConfigs clint_configs(std::uint64_t seed) {
    constexpr std::uint64_t s = kClintSlots;
    lcf::fault::FaultPlan plan;
    plan.seed = lcf::util::derive_seed(seed, 5);
    plan.add_host_crash(3, s / 4, s / 4 + 400)
        .add_link_down({lcf::fault::LinkKind::kDownlink, 5}, s / 2, s / 2 + 200)
        .add_scheduler_stall(3 * s / 4, 3 * s / 4 + 64)
        .add_bit_error_epoch({lcf::fault::LinkKind::kUplink, lcf::fault::kAllLinks},
                             s / 3, s / 3 + 2000, 1e-4);
    ClintConfigs c;
    c.bulk.hosts = 16;
    c.bulk.slots = s;
    c.bulk.warmup_slots = kClintWarmup;
    c.bulk.seed = lcf::util::derive_seed(seed, 3);
    c.bulk.bit_error_rate = 1e-5;
    c.bulk.max_retries = 8;
    c.bulk.exponential_backoff = true;
    c.bulk.fault_plan = plan;
    c.quick.hosts = 16;
    c.quick.slots = s;
    c.quick.warmup_slots = kClintWarmup;
    c.quick.seed = lcf::util::derive_seed(seed, 4);
    c.quick.bit_error_rate = 1e-5;
    c.quick.fault_plan = plan;
    return c;
}

constexpr double kBulkLoad = 0.6;
constexpr double kQuickLoad = 0.2;

struct ClintRun {
    std::unique_ptr<lcf::clint::BulkChannelSim> bulk;
    std::unique_ptr<lcf::clint::QuickChannelSim> quick;
};

ClintRun make_clint(const ClintConfigs& c, SpanLog* log) {
    auto traffic = [log](double load) -> std::unique_ptr<lcf::traffic::TrafficGenerator> {
        auto t = lcf::traffic::make_traffic("uniform", load);
        if (log == nullptr) return t;
        return std::make_unique<TimedTraffic>(std::move(t), *log);
    };
    return {std::make_unique<lcf::clint::BulkChannelSim>(c.bulk, traffic(kBulkLoad)),
            std::make_unique<lcf::clint::QuickChannelSim>(c.quick, traffic(kQuickLoad))};
}

// The lockstep loop of clint::run_clint, plus the multicast schedule.
void step_clint(ClintRun& run, SpanLog* log, std::vector<double>& rates) {
    std::size_t next = 0;
    step_in_chunks(kClintSlots, kClintWarmup, kClintChunk, rates, [&](std::uint64_t t) {
        Scoped slot(log, SpanKind::kSlot);
        for (; next < kMulticasts.size() && kMulticasts[next].slot == t; ++next) {
            run.bulk->enqueue_multicast(kMulticasts[next].host, kMulticasts[next].targets);
        }
        {
            Scoped step(log, SpanKind::kBulkStep);
            run.bulk->step();
        }
        for (const auto& [target, initiator] : run.bulk->last_acks()) {
            run.quick->inject_control(target, initiator);
        }
        Scoped step(log, SpanKind::kQuickStep);
        run.quick->step();
    });
}

struct ClintOutcome {
    lcf::clint::BulkChannelResult bulk;
    lcf::clint::QuickChannelResult quick;
    lcf::clint::BulkAccounting bulk_acct;
    lcf::clint::QuickAccounting quick_acct;
    std::uint64_t control_preemptions = 0;
};

ClintOutcome outcome_of(const ClintRun& run) {
    return {run.bulk->result(), run.quick->result(), run.bulk->accounting(),
            run.quick->accounting(), run.quick->control_preemptions()};
}

std::vector<std::string> check_clint(const ClintOutcome& o,
                                     const ClintOutcome* expected,
                                     const std::string& label) {
    std::vector<std::string> problems;
    if (!o.bulk_acct.balanced()) problems.push_back(label + ": bulk accounting unbalanced");
    if (!o.quick_acct.balanced()) problems.push_back(label + ": quick accounting unbalanced");
    if (expected != nullptr) {
        const auto& e = *expected;
        const bool same =
            o.bulk.generated == e.bulk.generated &&
            o.bulk.delivered_unique == e.bulk.delivered_unique &&
            o.bulk.retransmissions == e.bulk.retransmissions &&
            o.bulk.mean_delay == e.bulk.mean_delay &&
            o.bulk.p99_delay == e.bulk.p99_delay && o.bulk.goodput == e.bulk.goodput &&
            o.quick.generated == e.quick.generated &&
            o.quick.delivered_unique == e.quick.delivered_unique &&
            o.quick.collisions == e.quick.collisions &&
            o.control_preemptions == e.control_preemptions;
        if (!same) problems.push_back(label + ": result differs from an earlier run of the same seed");
    }
    return problems;
}

Report run_clint(const Options& options) {
    const ClintConfigs configs = clint_configs(options.seed);
    Report report;
    report.config = {{"hosts", "16"},
                     {"traffic", "uniform"},
                     {"bulk_load", "0.6"},
                     {"quick_load", "0.2"},
                     {"slots", std::to_string(kClintSlots)},
                     {"warmup_slots", std::to_string(kClintWarmup)},
                     {"bit_error_rate", "1e-5"},
                     {"max_retries", "8"},
                     {"backoff", "exponential"},
                     {"multicasts", std::to_string(kMulticasts.size())},
                     {"faults", "host 3 down 400 slots, downlink 5 down 200 slots, "
                                "64-slot stall, 2000-slot uplink BER 1e-4 epoch"}};

    auto construct = [&] { return make_clint(configs, nullptr); };
    std::vector<double> setup;
    for (int s = 0; s < kSetupSamples; ++s) setup.push_back(time_setup(construct));

    std::vector<double> rates;
    std::vector<ClintOutcome> first;
    repeat_for(options.seconds, [&] {
        const std::int64_t start = now_ns();
        ClintRun run = construct();
        setup.push_back(seconds_since(start));
        step_clint(run, nullptr, rates);
        const ClintOutcome o = outcome_of(run);
        report.run_checked(check_clint(o, first.empty() ? nullptr : &first[0], "clint"));
        if (first.empty()) first.push_back(o);
    });
    const double untraced = quantile(rates, kRateQuantile);
    common_end_to_end(report, untraced, quantile(setup, 1.0 - kRateQuantile));
    // The bulk channel's scheduler is a built-in LCF central (RR variant)
    // no wrapper can reach; per-scheduler rates are measured on
    // voq_n256_uniform only.
    for (const char* name : {"lcf_central", "lcf_dist", "islip"}) {
        report.end_to_end[std::string("slots_per_s.") + name] = untraced;
    }
    const ClintOutcome& o = first[0];
    report.end_to_end["mean_delay_slots"] = o.bulk.mean_delay;
    report.end_to_end["p99_delay_slots"] = static_cast<double>(o.bulk.p99_delay);
    report.end_to_end["goodput"] = o.bulk.goodput;
    report.per_layer["loss_fraction"] =
        ratio(o.bulk_acct.dropped + o.bulk_acct.abandoned + o.quick_acct.dropped +
                  o.quick_acct.abandoned,
              o.bulk_acct.generated + o.quick_acct.generated);

    if (!options.trace) return report;
    auto log = std::make_unique<SpanLog>(0);
    log->reserve(6 * kClintSlots + 8);
    ClintRun run = make_clint(configs, log.get());
    std::vector<double> traced_rates;
    step_clint(run, log.get(), traced_rates);
    report.run_checked(check_clint(outcome_of(run), &o, "clint (traced)"));
    LayerTimes times;
    times.add(*log);
    const double slot_ns = times.total(SpanKind::kSlot);
    const auto slots = static_cast<double>(times.n(SpanKind::kSlot));
    auto& layer = report.per_layer;
    layer["clint.bulk_step_ns_p50"] = times.quantile(SpanKind::kBulkStep, 0.50);
    layer["clint.bulk_step_ns_p99"] = times.quantile(SpanKind::kBulkStep, 0.99);
    layer["clint.quick_step_ns_p50"] = times.quantile(SpanKind::kQuickStep, 0.50);
    layer["clint.bulk_share"] = ratio(times.total(SpanKind::kBulkStep), slot_ns);
    layer["clint.retransmissions"] = static_cast<double>(o.bulk.retransmissions);
    layer["clint.config_crc_errors"] = static_cast<double>(o.bulk.config_crc_errors);
    layer["clint.grant_crc_errors"] = static_cast<double>(o.bulk.grant_crc_errors);
    layer["clint.duplicate_deliveries"] = static_cast<double>(o.bulk.duplicate_deliveries);
    layer["clint.first_try_ratio"] = 1.0 - ratio(o.bulk.recovered, o.bulk.delivered_unique);
    layer["clint.quick_collisions"] = static_cast<double>(o.quick.collisions);
    layer["clint.control_preemptions"] = static_cast<double>(o.control_preemptions);
    lcf::fault::FaultCounters faults = o.bulk.faults;
    faults.merge(o.quick.faults);
    layer["fault.bits_flipped"] = static_cast<double>(faults.bits_flipped);
    layer["fault.packets_dropped"] = static_cast<double>(faults.packets_dropped);
    layer["fault.crashes"] = static_cast<double>(faults.crashes);
    layer["fault.stalled_slots"] = static_cast<double>(faults.stalled_slots);
    layer["traffic.arrivals_ns_per_slot"] = ratio(times.total(SpanKind::kArrivals), slots);
    layer["traffic.share"] = ratio(times.total(SpanKind::kArrivals), slot_ns);
    layer["trace.overhead"] = 1.0 - quantile(traced_rates, kRateQuantile) / untraced;
    report.spans.push_back(std::move(log));
    return report;
}

}  // namespace

Report run_workload(const Options& options) {
    if (options.workload == "voq_n256_uniform") return run_voq(options);
    if (options.workload == "fig12_n16_sweep") return run_fig12(options);
    if (options.workload == "clint_faulted") return run_clint(options);
    throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
