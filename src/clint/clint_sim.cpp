#include "clint/clint_sim.hpp"

#include "traffic/traffic.hpp"
#include "util/rng.hpp"

namespace lcf::clint {

ClintResult run_clint(const ClintConfig& config) {
    BulkChannelConfig bulk;
    bulk.hosts = config.hosts;
    bulk.slots = config.slots;
    bulk.warmup_slots = config.warmup_slots;
    bulk.seed = util::derive_seed(config.seed, 1);
    bulk.bit_error_rate = config.bit_error_rate;
    bulk.fault_plan = config.bulk_faults;

    QuickChannelConfig quick;
    quick.hosts = config.hosts;
    quick.slots = config.slots;
    quick.warmup_slots = config.warmup_slots;
    quick.seed = util::derive_seed(config.seed, 2);
    quick.bit_error_rate = config.bit_error_rate;
    quick.fault_plan = config.quick_faults;

    const auto traffic_at = [&](double load) {
        return traffic::make_traffic(config.traffic, load);
    };
    ClintResult result;
    if (config.integrated) {
        BulkChannelSim bulk_sim(bulk, traffic_at(config.bulk_load));
        QuickChannelSim quick_sim(quick, traffic_at(config.quick_load));
        for (std::uint64_t t = 0; t < config.slots; ++t) {
            bulk_sim.step();
            for (const auto& [target, initiator] : bulk_sim.last_acks()) {
                quick_sim.inject_control(target, initiator);
            }
            quick_sim.step();
        }
        result.bulk = bulk_sim.result();
        result.quick = quick_sim.result();
        result.quick_control_sent = quick_sim.control_sent();
        result.quick_control_preemptions = quick_sim.control_preemptions();
    } else {
        result.bulk = BulkChannelSim(bulk, traffic_at(config.bulk_load)).run();
        result.quick =
            QuickChannelSim(quick, traffic_at(config.quick_load)).run();
    }
    return result;
}

}  // namespace lcf::clint
