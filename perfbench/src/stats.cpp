#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double q,
                                 std::size_t min_beyond) {
    if (values.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
    const std::size_t n = values.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n))); // 1-based
    const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
    if (n - 1 - index < min_beyond) return std::nullopt;
    std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                     values.end());
    return values[index];
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double window_goodput(std::uint64_t confirmed_start, double t_start,
                      std::uint64_t confirmed_end, double t_end) {
    if (!(t_end > t_start)) throw std::invalid_argument("empty goodput window");
    if (confirmed_end < confirmed_start)
        throw std::invalid_argument("confirmed counter went backwards");
    return static_cast<double>(confirmed_end - confirmed_start) / (t_end - t_start);
}

std::optional<CpuTicks> parse_proc_stat(const std::string& line) {
    const auto close = line.rfind(')');
    if (close == std::string::npos) return std::nullopt;
    // After "pid (comm)" come field 3 (state) onwards; utime is field 14.
    std::istringstream in(line.substr(close + 1));
    std::string field;
    CpuTicks ticks;
    for (int index = 3; index <= 15; ++index) {
        if (!(in >> field)) return std::nullopt;
        if (index < 14) continue;
        if (field.empty() ||
            !std::all_of(field.begin(), field.end(),
                         [](char c) { return c >= '0' && c <= '9'; }))
            return std::nullopt;
        (index == 14 ? ticks.user : ticks.sys) = std::stoull(field);
    }
    return ticks;
}

double cpu_us_per_tx(const CpuTicks& start, const CpuTicks& end,
                     double ticks_per_s, std::uint64_t txs) {
    if (end.user < start.user || end.sys < start.sys)
        throw std::invalid_argument("CPU ticks went backwards");
    if (txs == 0) throw std::invalid_argument("no transactions in the window");
    const double ticks = static_cast<double>(end.total() - start.total());
    return ticks / ticks_per_s * 1e6 / static_cast<double>(txs);
}

double stale_fraction(std::uint64_t height_gained, std::uint64_t blocks_checked) {
    if (blocks_checked == 0) return 0.0;
    return 1.0 - static_cast<double>(height_gained) /
                     static_cast<double>(blocks_checked);
}

} // namespace perfbench
