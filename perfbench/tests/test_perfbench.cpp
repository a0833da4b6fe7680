// Tests of the benchmark's own arithmetic and of the history builder.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "history.hpp"
#include "procstat.hpp"
#include "stats.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag)
        : path(fs::current_path() / ("perfbench-test-" + tag + "-" +
                                     std::to_string(::getpid()))) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

} // namespace

TEST(Percentile, NearestRankOnShuffledInput) {
    std::vector<double> v = one_to(1000);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 0.5), 500.0);
    EXPECT_EQ(percentile(v, 0.99), 990.0);
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyond) {
    // p99 of 1000 samples leaves exactly 10 beyond rank 990: supported.
    EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());
    // p99 of 999 samples picks rank 990 and leaves only 9 beyond: refused.
    EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
    EXPECT_FALSE(percentile(one_to(100), 0.99).has_value());
    // The median needs 10 samples beyond it too.
    EXPECT_TRUE(percentile(one_to(21), 0.5).has_value());
    EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_FALSE(percentile(one_to(100), 1.0).has_value());
}

TEST(Median, OddAndEvenSamples) {
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(WindowGoodput, CountsOnlyTheWindow) {
    EXPECT_DOUBLE_EQ(window_goodput(200'000, 3.0, 350'000, 33.0), 5000.0);
    EXPECT_THROW(window_goodput(10, 5.0, 20, 5.0), std::invalid_argument);
    EXPECT_THROW(window_goodput(20, 1.0, 10, 2.0), std::invalid_argument);
}

TEST(ProcStat, ParsesTicksAfterACommWithSpacesAndParens) {
    const std::string line =
        "4242 (dlt node) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
        "1234 567 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
    const auto ticks = parse_proc_stat(line);
    ASSERT_TRUE(ticks.has_value());
    EXPECT_EQ(ticks->user, 1234u);
    EXPECT_EQ(ticks->sys, 567u);
    EXPECT_FALSE(parse_proc_stat("4242 (x) S 1 2").has_value());
    EXPECT_FALSE(parse_proc_stat("no parens").has_value());
}

TEST(ProcStat, CpuPerTxFromTickDeltas) {
    // 150 ticks at 100 Hz = 1.5 s of CPU over 5000 txs = 300 us/tx.
    EXPECT_DOUBLE_EQ(cpu_us_per_tx({1000, 500}, {1100, 550}, 100.0, 5000), 300.0);
    EXPECT_THROW(cpu_us_per_tx({10, 10}, {9, 20}, 100.0, 1), std::invalid_argument);
    EXPECT_THROW(cpu_us_per_tx({1, 1}, {2, 2}, 100.0, 0), std::invalid_argument);
}

TEST(ProcStat, ReadsOwnProcessAndPeakRss) {
    const auto self = sample_process(::getpid());
    ASSERT_TRUE(self.has_value());
    EXPECT_GT(self->vm_hwm_mb, 0.0);
    EXPECT_FALSE(self->threads.empty());
    EXPECT_EQ(parse_vm_hwm_mb("Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t1 kB\n"), 2.0);
    EXPECT_FALSE(parse_vm_hwm_mb("Name:\tx\n").has_value());
}

TEST(ProcStat, LoopIsBusiestThreadAndRpcFollowsIt) {
    ProcSample start, end;
    start.threads = {{10, {5, 5}}, {11, {0, 0}}, {12, {0, 0}}, {13, {0, 0}}};
    end.threads = {{10, {9, 9}}, {11, {1, 0}}, {12, {80, 20}}, {13, {10, 5}}};
    const auto roles = thread_roles(10, start, end);
    ASSERT_TRUE(roles.has_value());
    EXPECT_EQ(roles->loop.total(), 100u);
    EXPECT_EQ(roles->rpc.total(), 15u);
}

TEST(Outcome, FailuresAreRefusedUnsentAndUnconfirmed) {
    Outcome o;
    o.scheduled = 1000;
    o.sent = 990;
    o.accepted = 985;
    o.refused = 5;
    o.confirmed = 980;
    EXPECT_TRUE(o.consistent());
    EXPECT_EQ(o.attempted(), 1000u);
    EXPECT_EQ(o.unsent(), 10u);
    EXPECT_EQ(o.unconfirmed(), 5u);
    EXPECT_EQ(o.failed(), 20u);

    o.confirmed = 986; // more confirmed than accepted
    EXPECT_FALSE(o.consistent());
    o.confirmed = 985;
    o.refused = 4; // a sent tx without a verdict
    EXPECT_FALSE(o.consistent());
}

TEST(StaleFraction, ShareOfCheckedBlocksOffTheChain) {
    EXPECT_NEAR(stale_fraction(98, 100), 0.02, 1e-12);
    EXPECT_DOUBLE_EQ(stale_fraction(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(stale_fraction(0, 0), 0.0);
}

TEST(History, SameSeedSameTipOtherSeedOtherTip) {
    TempDir dir("history");
    const HistorySpec spec{"perfbench-test", 7, 600, 3};
    const HistoryInfo a = build_history(dir.path / "a", spec);
    const HistoryInfo b = build_history(dir.path / "b", spec);
    EXPECT_EQ(a.height, 3u);
    EXPECT_EQ(a.txs, 600u);
    EXPECT_EQ(a.tip, b.tip);
    EXPECT_GT(a.bytes, 0u);

    HistorySpec other = spec;
    other.seed = 8;
    EXPECT_NE(build_history(dir.path / "c", other).tip, a.tip);

    copy_history(dir.path / "a", dir.path / "copy");
    EXPECT_EQ(directory_bytes(dir.path / "copy"), directory_bytes(dir.path / "a"));
    EXPECT_THROW(build_history(dir.path / "a", spec), std::invalid_argument);
}
