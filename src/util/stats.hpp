#pragma once
// Streaming statistics used by the simulator's metric collectors.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace lcf::util {

/// Single-pass mean / variance / extremes accumulator (Welford's method).
/// All operations are O(1); no samples are stored.
class RunningStat {
public:
    /// Fold one observation into the accumulator. Inline: simulators
    /// call it once per delivered packet.
    void add(double x) noexcept {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    /// Merge another accumulator (parallel reduction support).
    void merge(const RunningStat& other) noexcept;

    /// Number of observations folded in so far.
    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    /// Sample mean; 0 when empty.
    [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance; 0 when fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    /// Square root of variance().
    [[nodiscard]] double stddev() const noexcept;
    /// Smallest observation; +inf when empty.
    [[nodiscard]] double min() const noexcept { return min_; }
    /// Largest observation; -inf when empty.
    [[nodiscard]] double max() const noexcept { return max_; }
    /// Sum of all observations.
    [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_;
    double max_;

public:
    RunningStat() noexcept;
};

}  // namespace lcf::util
