#pragma once
// Traffic generation interface. The paper's Figure 12 uses Bernoulli
// arrivals with uniformly distributed destinations; the other generators
// here support the ablation benches (bursty, hotspot, diagonal,
// permutation, trace replay).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lcf::traffic {

/// Sentinel returned by TrafficGenerator::arrival when no packet arrives.
inline constexpr std::int32_t kNoArrival = -1;

/// One traffic pattern. reset() is called once per simulation with the
/// switch geometry and a seed; arrivals are then drawn once per (slot,
/// input) in nondecreasing slot order, either one input at a time via
/// arrival() or a whole slot at once via arrivals(). The generators here
/// derive from PerInputTraffic, which defines arrivals() as arrival()
/// for ascending inputs, so the two entry points give the same arrival
/// vector by construction.
class TrafficGenerator {
public:
    virtual ~TrafficGenerator();

    /// Prepare for a run over an `inputs` × `outputs` switch. Generators
    /// derive independent per-input streams from `seed`. Non-virtual:
    /// rejects an empty geometry (destinations are drawn below
    /// `outputs`), records the geometry for arrivals(), then dispatches
    /// to do_reset().
    void reset(std::size_t inputs, std::size_t outputs, std::uint64_t seed);

    /// Destination of the packet generated at `input` in `slot`, or
    /// kNoArrival.
    virtual std::int32_t arrival(std::size_t input, std::uint64_t slot) = 0;

    /// Batch form: out[i] = arrival(i, slot) for every input i in
    /// ascending order, in one virtual dispatch per slot instead of one
    /// per port. `out` must hold at least inputs() entries.
    virtual void arrivals(std::uint64_t slot, std::int32_t* out) = 0;

    /// Inputs configured by the most recent reset() (0 before the first).
    [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }

    /// Mean offered load per input in [0, 1] (packets per slot).
    [[nodiscard]] virtual double offered_load() const noexcept = 0;

    /// Stable identifier, e.g. "uniform" or "bursty".
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

protected:
    /// Generator-specific part of reset().
    virtual void do_reset(std::size_t inputs, std::size_t outputs,
                          std::uint64_t seed) = 0;

private:
    std::size_t inputs_ = 0;
};

/// The one batch loop. `G` derives from PerInputTraffic<G> and defines
/// `arrival()` inside its class body, so the qualified call below is
/// inlined rather than dispatched once per input. `G` must be final: an
/// override of arrival() in a further subclass would be bypassed here.
template <class G>
class PerInputTraffic : public TrafficGenerator {
public:
    void arrivals(std::uint64_t slot, std::int32_t* out) final {
        static_assert(std::is_final_v<G>);
        auto& self = static_cast<G&>(*this);
        const std::size_t n = inputs();
        for (std::size_t i = 0; i < n; ++i) out[i] = self.G::arrival(i, slot);
    }
};

/// Returns `p` when it lies in [0, 1]; otherwise (NaN included) throws
/// std::invalid_argument naming `what`.
double checked_probability(double p, const char* what);

/// Construct a generator by name: "uniform", "bursty", "pareto",
/// "hotspot", "diagonal", "permutation". `load` is the per-input offered
/// load. Throws std::invalid_argument for unknown names.
std::unique_ptr<TrafficGenerator> make_traffic(std::string_view name,
                                               double load);

/// All names accepted by make_traffic(), in documentation order.
const std::vector<std::string>& traffic_names();

/// True when `name` is accepted by make_traffic().
bool is_traffic_name(std::string_view name);

}  // namespace lcf::traffic
