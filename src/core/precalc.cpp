#include "core/precalc.hpp"

namespace lcf::core {

std::size_t MulticastResult::connections() const noexcept {
    std::size_t n = 0;
    for (const auto v : fanout) {
        if (v != sched::kUnmatched) ++n;
    }
    return n;
}

bool MulticastResult::consistent() const noexcept {
    for (std::size_t j = 0; j < fanout.size(); ++j) {
        const std::int32_t i = unicast.outputs() > j ? unicast.input_of(j)
                                                     : sched::kUnmatched;
        if (i != sched::kUnmatched && fanout[j] != i) return false;
    }
    return true;
}

}  // namespace lcf::core
