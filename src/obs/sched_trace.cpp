#include "obs/sched_trace.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "util/csv.hpp"

namespace lcf::obs {

StarvationAges::StarvationAges(std::size_t inputs, std::size_t outputs) {
    reset(inputs, outputs);
}

void StarvationAges::reset(std::size_t inputs, std::size_t outputs) {
    inputs_ = inputs;
    outputs_ = outputs;
    ages_.assign(inputs * outputs, 0);
    high_watermark_ = 0;
}

std::uint64_t StarvationAges::observe(const sched::RequestMatrix& requests,
                                      const sched::Matching& matching) {
    assert(requests.inputs() == inputs_ && requests.outputs() == outputs_);
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < inputs_; ++i) {
        const std::int32_t granted = matching.output_of(i);
        const auto& row = requests.row(i);
        for (std::size_t j = 0; j < outputs_; ++j) {
            auto& age = ages_[i * outputs_ + j];
            if (!row.test(j) || granted == static_cast<std::int32_t>(j)) {
                age = 0;
            } else {
                worst = std::max(worst, ++age);
            }
        }
    }
    high_watermark_ = std::max(high_watermark_, worst);
    return worst;
}

std::uint64_t StarvationAges::max_age() const noexcept {
    std::uint64_t worst = 0;
    for (const auto a : ages_) worst = std::max(worst, a);
    return worst;
}

SchedTrace::SchedTrace(std::size_t inputs, std::size_t outputs,
                       std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
    reset(inputs, outputs);
}

void SchedTrace::reset(std::size_t inputs, std::size_t outputs) {
    inputs_ = inputs;
    outputs_ = outputs;
    recorded_ = 0;
    ring_.clear();
    ring_.resize(capacity_);
    grant_counts_.assign(inputs * outputs, 0);
    ages_.reset(inputs, outputs);
}

void SchedTrace::record(std::uint64_t cycle,
                        const sched::RequestMatrix& requests,
                        const sched::Matching& matching) {
    assert(requests.inputs() == inputs_ && requests.outputs() == outputs_);
    const std::uint64_t request_bits = requests.total();
    const std::uint64_t granted = matching.size();
    const std::uint64_t worst = ages_.observe(requests, matching);

    TraceRecord& rec = ring_[recorded_ % capacity_];
    rec.cycle = cycle;
    rec.requests = static_cast<std::uint32_t>(request_bits);
    rec.granted = static_cast<std::uint32_t>(granted);
    rec.max_age = static_cast<std::uint32_t>(worst);
    rec.grant_of_output.assign(outputs_, sched::kUnmatched);
    for (std::size_t j = 0; j < outputs_; ++j) {
        const std::int32_t i = matching.input_of(j);
        rec.grant_of_output[j] = i;
        if (i != sched::kUnmatched) {
            ++grant_counts_[static_cast<std::size_t>(i) * outputs_ + j];
        }
    }
    ++recorded_;
}

const TraceRecord& SchedTrace::at(std::size_t k) const noexcept {
    assert(k < size());
    const std::size_t oldest =
        recorded_ <= capacity_ ? 0 : recorded_ % capacity_;
    return ring_[(oldest + k) % capacity_];
}

void SchedTrace::export_csv(std::ostream& out) const {
    util::CsvWriter csv(out);
    csv.row("cycle", "requests", "granted", "max_starvation_age", "matching");
    for (std::size_t k = 0; k < size(); ++k) {
        const TraceRecord& rec = at(k);
        std::string pairs;
        for (std::size_t j = 0; j < rec.grant_of_output.size(); ++j) {
            if (rec.grant_of_output[j] == sched::kUnmatched) continue;
            if (!pairs.empty()) pairs += ' ';
            pairs += std::to_string(rec.grant_of_output[j]);
            pairs += "->";
            pairs += std::to_string(j);
        }
        csv.row(rec.cycle, rec.requests, rec.granted, rec.max_age, pairs);
    }
}

void SchedTrace::export_jsonl(std::ostream& out) const {
    for (std::size_t k = 0; k < size(); ++k) {
        const TraceRecord& rec = at(k);
        out << "{\"cycle\":" << rec.cycle << ",\"requests\":" << rec.requests
            << ",\"granted\":" << rec.granted
            << ",\"max_starvation_age\":" << rec.max_age << ",\"grants\":[";
        bool first = true;
        for (std::size_t j = 0; j < rec.grant_of_output.size(); ++j) {
            if (rec.grant_of_output[j] == sched::kUnmatched) continue;
            if (!first) out << ',';
            out << '[' << rec.grant_of_output[j] << ',' << j << ']';
            first = false;
        }
        out << "]}\n";
    }
}

}  // namespace lcf::obs
