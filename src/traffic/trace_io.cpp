#include "traffic/trace_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace lcf::traffic {

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceEntry>& entries) {
    out << "slot,input,destination\n";
    for (const auto& e : entries) {
        out << e.slot << ',' << e.input << ',' << e.destination << '\n';
    }
}

namespace {

std::uint64_t parse_field(std::string_view field, std::size_t line_no) {
    std::uint64_t value{};
    const auto [p, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || p != field.data() + field.size()) {
        throw std::runtime_error("trace CSV: bad number on line " +
                                 std::to_string(line_no));
    }
    return value;
}

}  // namespace

std::vector<TraceEntry> read_trace_csv(std::istream& in) {
    std::vector<TraceEntry> entries;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (line_no == 1 && line.rfind("slot", 0) == 0) continue;  // header
        const auto c1 = line.find(',');
        const auto c2 = c1 == std::string::npos ? std::string::npos
                                                : line.find(',', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos) {
            throw std::runtime_error("trace CSV: expected 3 fields on line " +
                                     std::to_string(line_no));
        }
        TraceEntry e;
        e.slot = parse_field(std::string_view(line).substr(0, c1), line_no);
        e.input = parse_field(
            std::string_view(line).substr(c1 + 1, c2 - c1 - 1), line_no);
        e.destination =
            parse_field(std::string_view(line).substr(c2 + 1), line_no);
        entries.push_back(e);
    }
    return entries;
}

RecordingTraffic::RecordingTraffic(std::unique_ptr<TrafficGenerator> inner)
    : inner_(std::move(inner)) {
    if (inner_ == nullptr) {
        throw std::invalid_argument("recording traffic needs an inner generator");
    }
}

void RecordingTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                                std::uint64_t seed) {
    inner_->reset(inputs, outputs, seed);
    entries_.clear();
}

}  // namespace lcf::traffic
