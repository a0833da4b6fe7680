// The benchmark's own arithmetic: percentiles with an honesty rule, window
// goodput, /proc CPU-tick deltas, failure accounting and the stale-block
// fraction. Kept free of I/O so tests/test_perfbench.cpp can pin each one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `q` (0 < q < 1) of `values`, or nullopt when fewer than
/// `min_beyond` samples lie strictly beyond the chosen rank: a tail the
/// sample cannot support is refused, not guessed. Nearest-rank on the sorted
/// sample (rank = ceil(q * n)).
std::optional<double> percentile(std::vector<double> values, double q,
                                 std::size_t min_beyond = 10);

/// Median of a non-empty sample (mean of the middle pair when n is even).
double median(std::vector<double> values);

/// Txs confirmed per second between two observations of one node's
/// confirmed-tx counter. Throws std::invalid_argument on a non-positive
/// window or a counter that went backwards.
double window_goodput(std::uint64_t confirmed_start, double t_start,
                      std::uint64_t confirmed_end, double t_end);

/// utime + stime of one task, in clock ticks.
struct CpuTicks {
    std::uint64_t user = 0;
    std::uint64_t sys = 0;
    std::uint64_t total() const { return user + sys; }
};

/// Parse the utime/stime fields (14 and 15) of a /proc/<pid>/stat or
/// /proc/<pid>/task/<tid>/stat line. The comm field may hold spaces and
/// parentheses, so fields are counted after the *last* ')'. Returns nullopt
/// on a malformed line.
std::optional<CpuTicks> parse_proc_stat(const std::string& line);

/// Microseconds of CPU per tx for a tick delta: (end - start) ticks at
/// `ticks_per_s` over `txs` transactions. Throws std::invalid_argument when
/// the counter went backwards or `txs` is zero.
double cpu_us_per_tx(const CpuTicks& start, const CpuTicks& end,
                     double ticks_per_s, std::uint64_t txs);

/// Failure accounting for one run. Every scheduled arrival is attempted;
/// it fails when the node refused it, it was never sent (connection lost or
/// shed), or it was accepted but not confirmed after the drain.
struct Outcome {
    std::uint64_t scheduled = 0;
    std::uint64_t sent = 0;
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    /// Txs the checked node confirmed over the run (its counter minus the
    /// history it recovered).
    std::uint64_t confirmed = 0;

    std::uint64_t attempted() const { return scheduled; }
    std::uint64_t unsent() const { return scheduled - sent; }
    std::uint64_t unconfirmed() const {
        return confirmed >= accepted ? 0 : accepted - confirmed;
    }
    std::uint64_t failed() const { return refused + unsent() + unconfirmed(); }
    /// Accounting holds together: every sent tx got exactly one verdict and
    /// no node confirmed more than was accepted.
    bool consistent() const {
        return sent <= scheduled && accepted + refused == sent &&
               confirmed <= accepted;
    }
};

/// Share of the blocks a node validated that did not end on its chain:
/// 1 - height gained / blocks checked. Zero when nothing was checked.
double stale_fraction(std::uint64_t height_gained, std::uint64_t blocks_checked);

} // namespace perfbench
