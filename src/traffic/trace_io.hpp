#pragma once
// Trace persistence and capture: save arrival traces to CSV, load them
// back, and record the output of any generator so that a stochastic
// workload can be replayed exactly (for bug reproduction, cross-
// scheduler comparisons on identical arrivals, or feeding external
// traces into the simulator).

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "traffic/trace.hpp"

namespace lcf::traffic {

/// Write entries as CSV with a `slot,input,destination` header.
void write_trace_csv(std::ostream& out, const std::vector<TraceEntry>& entries);

/// Parse a trace CSV (as produced by write_trace_csv; blank lines and
/// a header row are tolerated). Throws std::runtime_error on malformed
/// rows.
std::vector<TraceEntry> read_trace_csv(std::istream& in);

/// Decorator that forwards to an inner generator while recording every
/// arrival it produces. After a run, take() yields the trace. Batched
/// callers are recorded too: arrivals() is PerInputTraffic's loop over
/// this arrival(), which asks the inner generator one input at a time.
class RecordingTraffic final : public PerInputTraffic<RecordingTraffic> {
public:
    explicit RecordingTraffic(std::unique_ptr<TrafficGenerator> inner);

    std::int32_t arrival(std::size_t input, std::uint64_t slot) override {
        const std::int32_t dst = inner_->arrival(input, slot);
        if (dst != kNoArrival) {
            entries_.push_back(
                TraceEntry{slot, input, static_cast<std::size_t>(dst)});
        }
        return dst;
    }
    [[nodiscard]] double offered_load() const noexcept override {
        return inner_->offered_load();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "recording";
    }

    /// The arrivals recorded so far (in call order).
    [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
        return entries_;
    }
    /// Move the recorded trace out.
    [[nodiscard]] std::vector<TraceEntry> take() noexcept {
        return std::move(entries_);
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    std::unique_ptr<TrafficGenerator> inner_;
    std::vector<TraceEntry> entries_;
};

}  // namespace lcf::traffic
