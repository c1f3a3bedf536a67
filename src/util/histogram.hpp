#pragma once
// Integer-valued histogram with exact low range and saturating overflow
// bucket; used for queue-occupancy and packet-delay distributions.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lcf::util {

/// Histogram over non-negative integer samples. Values in [0, capacity)
/// are counted exactly; larger values accumulate in an overflow bucket
/// (still contributing their exact value to mean/percentile interpolation
/// bounds via total_/count_ bookkeeping).
///
/// Buckets are allocated only up to the largest value recorded so far,
/// doubling from 64 and never past capacity(); buckets not allocated
/// read as 0, so every query answers as if all capacity() buckets
/// existed.
class Histogram {
public:
    /// `capacity` exact buckets (one per integer value).
    explicit Histogram(std::size_t capacity = 1024) : capacity_(capacity) {}

    /// Record one sample (may allocate when it exceeds every earlier one).
    /// Inline for the common case of a value inside the allocated range.
    void add(std::uint64_t value) {
        if (value < buckets_.size()) {
            ++buckets_[value];
        } else {
            add_beyond(value);
        }
        ++count_;
        total_ += static_cast<double>(value);
    }
    /// Merge another histogram of the same capacity.
    void merge(const Histogram& other);

    /// Total number of samples recorded.
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    /// Exact mean over all samples (overflowed values included exactly).
    [[nodiscard]] double mean() const noexcept;
    /// Samples that landed in the overflow bucket.
    [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
    /// Count for exact bucket `v` (precondition: v < capacity()).
    [[nodiscard]] std::uint64_t bucket(std::size_t v) const noexcept {
        return v < buckets_.size() ? buckets_[v] : 0;
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// Smallest value v such that at least `q` (in [0,1]) of the samples
    /// are <= v. Overflowed samples are treated as capacity(). Returns 0
    /// when empty.
    [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

private:
    /// Allocate buckets up to at least `size` (at most capacity()).
    void grow(std::size_t size);
    /// Bucket (or overflow) count of a value past the allocated range.
    void add_beyond(std::uint64_t value);

    std::size_t capacity_;
    std::vector<std::uint64_t> buckets_;  // the first buckets_.size() values
    std::uint64_t count_ = 0;
    std::uint64_t overflow_ = 0;
    double total_ = 0.0;
};

}  // namespace lcf::util
