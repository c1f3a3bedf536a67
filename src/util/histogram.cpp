#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>

namespace lcf::util {

void Histogram::grow(std::size_t size) {
    std::size_t n = std::max<std::size_t>(buckets_.size(), 64);
    while (n < size) n *= 2;
    buckets_.resize(std::min(n, capacity_), 0);
}

void Histogram::add_beyond(std::uint64_t value) {
    if (value >= capacity_) {
        ++overflow_;
    } else {
        grow(value + 1);
        ++buckets_[value];
    }
}

void Histogram::merge(const Histogram& other) {
    assert(capacity_ == other.capacity_);
    if (other.buckets_.size() > buckets_.size()) grow(other.buckets_.size());
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double Histogram::mean() const noexcept {
    return count_ ? total_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t Histogram::percentile(double q) const noexcept {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank at least 1: with q == 0 (or small enough that the rounded
    // rank is 0) the answer is the smallest recorded value, not bucket
    // 0 — `seen >= 0` would accept the very first bucket unconditionally.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < buckets_.size(); ++v) {
        seen += buckets_[v];
        if (seen >= target) return v;
    }
    return capacity_;
}

}  // namespace lcf::util
