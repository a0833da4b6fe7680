// perfbench: steady-state benchmark of a 4-process loopback dlt-node cluster
// on a recovered chain. One invocation runs one workload:
//
//   perfbench --workload pbft_steady|nakamoto_fast --seed N --seconds S
//             --trace 0|1 --node-bin PATH --work-dir DIR
//
// It builds the fixed chain history, cold-starts the cluster on fresh copies
// of it (several times without --trace, to time set-up), replays an open-loop
// app::WorkloadEngine trace seeded by --seed below the cluster's knee,
// measures a block-aligned steady window of S seconds from outside the
// program (RPC replies and /proc of the daemons), drains, checks the
// correctness gates, crash-restarts a backup, and stops the cluster. With
// --trace 1 it also replays the tx stream through one node's public calls
// with spans around each, and prints the per-layer metrics instead of the
// end-to-end ones. The last stdout line is the JSON result; a failed gate
// exits non-zero without it. See perfbench/README.md for the catalogue.
#include <fcntl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/cluster.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "history.hpp"
#include "loader.hpp"
#include "procstat.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace fs = std::filesystem;
using namespace dlt;
using namespace perfbench;

namespace {

// --- Fixed benchmark constants -----------------------------------------------

struct Workload {
    const char* name;
    core::ReplicaEngine engine;
    double interval; // PBFT proposal tick / Nakamoto mean block interval (s)
    double rate;     // offered tx/s, Poisson
};

// pbft_steady: a fifth of the ~14.8k tx/s that one 1 MB block per ~0.43 s
// tick allows, so the per-tx path (RPC ingest, decode, dedup, admission,
// relay, ~1.3k-tx connects) sets the cost, not the block cap. At 5k tx/s the
// daemons' latency and CPU per tx followed the host's load (steal).
// nakamoto_fast: ~10 blocks/s flooded by every node with forks and reorgs,
// ~100 txs per block, so the per-block path sets the cost; the short
// interval gives a run a few hundred blocks.
constexpr Workload kWorkloads[] = {
    {"pbft_steady", core::ReplicaEngine::kPbft, 0.4, 3000.0},
    {"nakamoto_fast", core::ReplicaEngine::kNakamoto, 0.1, 1000.0},
};

constexpr std::size_t kNodes = 4;
constexpr std::uint64_t kDaemonSeed = 1;
constexpr const char* kChainTag = "perfbench";
const HistorySpec kHistory{kChainTag, 0x5EED, 200'000, 80};
constexpr int kSetupStarts = 5;   // cold starts per untraced run; median reported
constexpr double kWarmup = 3.0;   // seconds of load before the window opens
constexpr double kTail = 1.0;     // load after the window, so it closes on a block
constexpr double kStatusPeriod = 0.05;
constexpr double kConnectRetryStep = 0.025; // RpcClient::connect's retry sleep
constexpr std::uint32_t kVictim = 3;        // a PBFT backup (replica 0 is primary)

double steady_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Wall-clock marks of the run's phases, printed for whoever tunes run length.
std::vector<std::pair<const char*, double>> g_phases;
const double g_start = steady_s();
void mark(const char* phase) { g_phases.emplace_back(phase, steady_s() - g_start); }

struct GateFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what) {
    if (!ok) throw GateFailure(what);
}

// --- Watchdog: never outlive the run's time limit ----------------------------

/// "/proc/<pid>/task/<pid>/children", filled in before the alarm is armed so
/// the handler needs no allocation.
char g_children_path[64];

/// SIGKILL and reap every child (daemons, including any mid-spawn), then
/// exit without a result. Uses only async-signal-safe calls.
extern "C" void on_watchdog(int) {
    char buf[4096];
    ssize_t n = -1;
    if (const int fd = ::open(g_children_path, O_RDONLY | O_CLOEXEC); fd >= 0) {
        n = ::read(fd, buf, sizeof(buf) - 1);
        ::close(fd);
    }
    int pid = 0;
    for (ssize_t i = 0; i <= n; ++i) {
        if (i < n && buf[i] >= '0' && buf[i] <= '9') {
            pid = pid * 10 + (buf[i] - '0');
        } else if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            pid = 0;
        }
    }
    static const char msg[] = "perfbench: watchdog expired, run abandoned\n";
    (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    ::_exit(3);
}

// --- Daemon RPC bodies ---------------------------------------------------------

// Reply layouts are NodeDaemon's (core/node_daemon.hpp); RpcClient parses the
// same bodies but only behind its blocking one-request-at-a-time calls.
app::NodeStatus parse_status(const Bytes& body) {
    Reader r{ByteView(body)};
    app::NodeStatus s;
    s.height = r.u64();
    s.tip = r.fixed<32>();
    s.confirmed_txs = r.u64();
    s.mempool_size = r.u64();
    s.connected_peers = r.u32();
    s.clock = r.f64();
    r.expect_done();
    return s;
}

std::vector<double> parse_latencies(const Bytes& body) {
    Reader r{ByteView(body)};
    const std::uint64_t n = r.varint_count(8);
    std::vector<double> out(n);
    for (double& v : out) v = r.f64();
    r.expect_done();
    return out;
}

std::string parse_metrics(const Bytes& body) {
    Reader r{ByteView(body)};
    std::string text = r.str();
    r.expect_done();
    return text;
}

/// Sum of a counter across its labels in the daemon's obs JSON snapshot.
double counter_sum(const std::string& json, const std::string& name) {
    double total = 0;
    const std::string key = "\"" + name;
    for (auto pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + key.size())) {
        const char next = json[pos + key.size()];
        if (next != '"' && next != '{') continue;
        const auto colon = json.find("\":", pos + key.size());
        if (colon == std::string::npos) break;
        total += std::strtod(json.c_str() + colon + 2, nullptr);
    }
    return total;
}

// --- Cluster set-up --------------------------------------------------------------

struct Context {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    fs::path node_bin;
    fs::path work;
    fs::path history_dir;
    HistoryInfo history;
    int cluster_count = 0;
    int port_retries = 0;
};

fs::path node_log(const fs::path& cluster_dir, std::size_t node) {
    return cluster_dir / ("node" + std::to_string(node)) / "node.log";
}

/// Whether a daemon's log, from byte `from` on, shows it failed to bind a
/// port. Ports come from ClusterDriver's free_port(), which can hand one
/// out twice and can pick one that a connecting socket takes before the
/// daemon binds it (RpcClient even connects to itself when the kernel gives
/// the probe the target port while nothing listens there yet).
bool bind_failed(const fs::path& log, std::uintmax_t from = 0) {
    std::ifstream in(log);
    in.seekg(static_cast<std::streamoff>(from));
    std::string line;
    while (std::getline(in, line))
        if (line.find("Address already in use") != std::string::npos) return true;
    return false;
}

std::uintmax_t log_size(const fs::path& log) {
    std::error_code ec;
    const auto size = fs::file_size(log, ec);
    return ec ? 0 : size;
}

/// Recovered height from the daemon's last "READY ... height=N" log line.
std::optional<std::uint64_t> ready_height(const fs::path& log) {
    std::ifstream in(log);
    std::string line;
    std::optional<std::uint64_t> height;
    while (std::getline(in, line)) {
        if (!line.starts_with("READY ")) continue;
        const auto pos = line.find(" height=");
        if (pos != std::string::npos) height = std::stoull(line.substr(pos + 8));
    }
    return height;
}

/// Write back the fresh copies before timing a start, so recovery does not
/// race the kernel's writeback of the files it reads.
void flush_to_disk(const fs::path& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
}

struct Started {
    std::unique_ptr<app::ClusterDriver> driver;
    fs::path dir;
    double setup_s = 0;
};

/// Poll every node until it answers RPC, reports the recovered history and
/// has all its peers. Throws GateFailure when a daemon could not bind its
/// ports or when that takes over 30 s.
void await_ready(app::ClusterDriver& driver, const fs::path& dir, const HistoryInfo& h,
                 double t0) {
    std::vector<bool> ready(kNodes, false);
    while (std::count(ready.begin(), ready.end(), true) < static_cast<long>(kNodes)) {
        gate(steady_s() - t0 < 30.0, "cluster did not become ready within 30 s");
        for (std::size_t i = 0; i < kNodes; ++i) {
            if (ready[i]) continue;
            const auto st = driver.rpc(i).status();
            if (!st) {
                gate(!bind_failed(node_log(dir, i)),
                     "node " + std::to_string(i) + " could not bind its ports");
                continue;
            }
            // Recovered history: its txs, and its tip unless a Nakamoto node
            // has already mined on top of it.
            gate(st->confirmed_txs == h.txs && st->height >= h.height &&
                     (st->height > h.height || st->tip == h.tip),
                 "node " + std::to_string(i) + " did not recover the history");
            ready[i] = st->connected_peers == kNodes - 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/// Cold-start the cluster on fresh history copies and time it from spawn
/// until every node is ready. A start in which a daemon could not bind its
/// ports is abandoned, untimed, and retried on fresh ports.
Started cold_start(Context& ctx) {
    for (int attempt = 0; attempt < 4; ++attempt) {
        Started s;
        s.dir = ctx.work / ("cluster" + std::to_string(ctx.cluster_count++));
        for (std::size_t i = 0; i < kNodes; ++i)
            copy_history(ctx.history_dir, s.dir / ("node" + std::to_string(i)));
        flush_to_disk(s.dir);
        app::ClusterConfig config;
        config.node_count = kNodes;
        config.engine = ctx.workload->engine;
        config.block_interval = ctx.workload->interval;
        config.work_dir = s.dir;
        config.node_binary = ctx.node_bin.string();
        config.seed = kDaemonSeed;
        config.lsm_state = true;
        config.chain_tag = kChainTag;
        s.driver = std::make_unique<app::ClusterDriver>(config);

        const double t0 = steady_s();
        try {
            s.driver->start();
                await_ready(*s.driver, s.dir, ctx.history, t0);
        } catch (const std::exception&) {
            bool collided = false;
            for (std::size_t i = 0; i < kNodes; ++i)
                collided = collided || bind_failed(node_log(s.dir, i));
            if (!collided) throw;
            s.driver.reset();
                fs::remove_all(s.dir);
            ++ctx.port_retries;
            continue;
        }
        s.setup_s = steady_s() - t0;
        for (std::size_t i = 0; i < kNodes; ++i) {
            std::optional<std::uint64_t> height;
            for (int tries = 0; tries < 100 && !(height = ready_height(node_log(s.dir, i)));
                 ++tries)
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            gate(height == ctx.history.height,
                 "node " + std::to_string(i) + " recovered a height other than the history's");
        }
        // The driver's own RPC connections are not close-on-exec and each
        // daemon serves one client at a time: release them for the loader.
        for (std::size_t i = 0; i < kNodes; ++i) s.driver->rpc(i).close();
        return s;
    }
    throw GateFailure("cluster ports kept colliding");
}

void stop_cluster(Started& s) {
    const std::vector<int> codes = s.driver->stop_all();
    for (std::size_t i = 0; i < codes.size(); ++i)
        gate(codes[i] == 0, "node " + std::to_string(i) + " exited with code " +
                                std::to_string(codes[i]));
    s.driver.reset();
    fs::remove_all(s.dir);
}

// --- The measured run ------------------------------------------------------------

struct EdgeSnapshot {
    bool taken = false;
    double t = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t height = 0;
    std::vector<ProcSample> procs; // one per daemon, in node order
    std::vector<std::optional<std::vector<double>>> latencies;
    std::vector<std::optional<std::string>> metrics;
    bool complete() const {
        for (std::size_t i = 0; i < kNodes; ++i)
            if (!latencies[i] || !metrics[i]) return false;
        return taken;
    }
};

struct RunResult {
    std::vector<double> setup_s;
    Outcome outcome;
    EdgeSnapshot start, end;
    std::vector<double> confirm_latencies;
    LoaderStats loader;
    double loader_wall_s = 0;
    double rejoin_s = 0;
    std::vector<int> pids; // daemon pids during the window, in node order
};

RunResult run_cluster(Context& ctx, const std::vector<Arrival>& trace) {
    RunResult result;
    const int starts = ctx.trace ? 1 : kSetupStarts;
    Started cluster;
    for (int k = 0; k < starts; ++k) {
        if (cluster.driver) stop_cluster(cluster);
        cluster = cold_start(ctx);
        result.setup_s.push_back(cluster.setup_s);
    }

    mark("setup");
    const auto pids = daemon_pids();
    gate(pids.size() == kNodes, "could not find the daemons' pids");
    for (const auto& [node, pid] : pids) result.pids.push_back(pid);
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < kNodes; ++i) ports.push_back(cluster.driver->rpc_port(i));

    const double window_open = kWarmup;
    const double window_close = kWarmup + ctx.seconds;
    const double deadline = window_close + kTail + 60.0;
    {
        Loader loader(ports, trace, ctx.trace);
        EdgeSnapshot* edges[2] = {&result.start, &result.end};
        for (EdgeSnapshot* e : edges) {
            e->latencies.resize(kNodes);
            e->metrics.resize(kNodes);
        }
        bool status_out = false;
        double next_status = 0;
        std::uint64_t last_height = 0;
        const auto take_edge = [&](EdgeSnapshot& e, std::uint64_t tag, double t,
                                   const app::NodeStatus& st) {
            e.taken = true;
            e.t = t;
            e.confirmed = st.confirmed_txs;
            e.height = st.height;
            for (const auto& [node, pid] : pids) {
                const auto sample = sample_process(pid);
                gate(sample.has_value(), "daemon " + std::to_string(node) + " vanished");
                e.procs.push_back(*sample);
            }
            for (std::uint32_t i = 0; i < kNodes; ++i) {
                loader.control(i, Rpc::kLatencies, tag);
                loader.control(i, Rpc::kMetrics, tag);
            }
        };

        // Phase 1: open-loop load through the steady window.
        const bool loaded = loader.run(
            [&] {
                return loader.trace_done() && loader.submits_in_flight() == 0 &&
                       result.end.complete();
            },
            [&](double t) {
                if (!status_out && t >= next_status) {
                    loader.control(0, Rpc::kStatus, 0);
                    status_out = true;
                    next_status = t + kStatusPeriod;
                }
            },
            [&](const Reply& r) {
                EdgeSnapshot& e = *edges[std::min<std::uint64_t>(r.tag, 1)];
                if (r.kind == Rpc::kLatencies) {
                    e.latencies[r.node] = parse_latencies(r.body);
                } else if (r.kind == Rpc::kMetrics) {
                    e.metrics[r.node] = parse_metrics(r.body);
                } else {
                    status_out = false;
                    const app::NodeStatus st = parse_status(r.body);
                    const bool advanced = last_height != 0 && st.height > last_height;
                    last_height = st.height;
                    if (!advanced) return;
                    if (!result.start.taken && r.received_at >= window_open)
                        take_edge(result.start, 0, r.received_at, st);
                    else if (result.start.taken && !result.end.taken &&
                             r.received_at >= window_close)
                        take_edge(result.end, 1, r.received_at, st);
                }
            },
            deadline);
        gate(loaded, "the steady window did not close on a block in time");
        mark("load");

        // Phase 2: drain until every mempool is empty and all tips agree.
        std::vector<std::optional<app::NodeStatus>> round(kNodes);
        std::size_t answered = 0;
        bool drained = false, round_out = false;
        double next_round = loader.now();
        const bool drained_in_time = loader.run(
            [&] { return drained; },
            [&](double t) {
                if (round_out || t < next_round) return;
                std::fill(round.begin(), round.end(), std::nullopt);
                answered = 0;
                for (std::uint32_t i = 0; i < kNodes; ++i)
                    loader.control(i, Rpc::kStatus, 2);
                round_out = true;
                next_round = t + kStatusPeriod;
            },
            [&](const Reply& r) {
                if (r.tag != 2) return; // a phase-1 status still in flight
                round[r.node] = parse_status(r.body);
                if (++answered < kNodes) return;
                round_out = false;
                drained = true;
                for (const auto& st : round)
                    drained = drained && st->mempool_size == 0 && st->tip == round[0]->tip &&
                              st->confirmed_txs == round[0]->confirmed_txs;
            },
            loader.now() + 30.0);
        gate(drained_in_time, "mempools did not empty and tips did not agree within 30 s");
        result.loader = loader.stats();
        result.loader_wall_s = loader.now();

        Outcome& o = result.outcome;
        o.scheduled = trace.size();
        o.sent = result.loader.sent;
        o.accepted = result.loader.accepted;
        o.refused = result.loader.refused;
        o.confirmed = round[0]->confirmed_txs - ctx.history.txs;
        gate(o.consistent(), "a node confirmed more txs than were accepted");
        mark("drain");
    }

    // Gate: SIGKILL a backup, restart it on its data dir and ports, and wait
    // for its tip to agree with the others. The loader's sockets and the
    // driver's clients are all closed here, so the restarted daemon inherits
    // no RPC connection that would hold a peer's single client slot.
    app::ClusterDriver& driver = *cluster.driver;
    driver.signal_node(kVictim, SIGKILL);
    gate(driver.wait_node(kVictim) == -SIGKILL, "victim did not die on SIGKILL");
    const fs::path victim_log = node_log(cluster.dir, kVictim);
    std::uintmax_t log_from = log_size(victim_log);
    double t_restart = steady_s();
    driver.restart_node(kVictim);
    while (true) {
        gate(steady_s() - t_restart < 30.0, "restarted node did not rejoin within 30 s");
        std::vector<Hash256> tips;
        for (std::size_t i = 0; i < kNodes; ++i)
            if (const auto st = driver.rpc(i).status()) tips.push_back(st->tip);
        if (tips.size() < kNodes && bind_failed(victim_log, log_from)) {
            // The restarted daemon lost one of its old ports (see
            // bind_failed): reap it and restart it again.
            gate(driver.wait_node(kVictim) == 1, "victim failed in an unexpected way");
            ++ctx.port_retries;
            log_from = log_size(victim_log);
            t_restart = steady_s();
            driver.restart_node(kVictim);
                continue;
        }
        if (tips.size() == kNodes &&
            std::all_of(tips.begin(), tips.end(), [&](const Hash256& t) { return t == tips[0]; }))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    result.rejoin_s = steady_s() - t_restart;
    mark("rejoin");
    stop_cluster(cluster);
    mark("stop");

    for (std::size_t i = 0; i < kNodes; ++i) {
        const auto& before = *result.start.latencies[i];
        const auto& after = *result.end.latencies[i];
        gate(after.size() >= before.size(), "a node's latency log shrank");
        result.confirm_latencies.insert(result.confirm_latencies.end(),
                                        after.begin() + static_cast<long>(before.size()),
                                        after.end());
    }
    return result;
}

// --- Reporting ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string format_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string read_first_line_with(const char* path, const char* key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.starts_with(key)) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--node-bin PATH --work-dir DIR\n";
    std::exit(2);
}

int run(int argc, char** argv) {
    Context ctx;
    std::string workload;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") workload = value;
        else if (arg == "--seed") ctx.seed = std::stoull(value), have_seed = true;
        else if (arg == "--seconds") ctx.seconds = std::stod(value);
        else if (arg == "--trace") {
            if (value != "0" && value != "1") usage("--trace must be 0 or 1");
            ctx.trace = value == "1";
        }
        else if (arg == "--node-bin") ctx.node_bin = fs::absolute(value);
        else if (arg == "--work-dir") ctx.work = fs::absolute(value);
        else usage("unknown option " + arg);
    }
    for (const Workload& w : kWorkloads)
        if (workload == w.name) ctx.workload = &w;
    if (ctx.workload == nullptr) usage("unknown workload '" + workload + "'");
    if (!have_seed) usage("--seed is required");
    if (!(ctx.seconds >= 1 && ctx.seconds <= 60)) usage("--seconds must be in [1, 60]");
    if (ctx.node_bin.empty() || ::access(ctx.node_bin.c_str(), X_OK) != 0)
        usage("--node-bin must name the dlt-node executable");
    if (ctx.work.empty()) usage("--work-dir is required");

    std::snprintf(g_children_path, sizeof(g_children_path), "/proc/%d/task/%d/children",
                  ::getpid(), ::getpid());
    std::signal(SIGALRM, on_watchdog);
    ::alarm(170);
    // Remove what runs ended by the watchdog left behind.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(ctx.work, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("run-") && ::kill(std::stoi(name.substr(4)), 0) != 0)
            fs::remove_all(entry.path(), ec);
    }
    ctx.work /= "run-" + std::to_string(::getpid());
    fs::remove_all(ctx.work);
    fs::create_directories(ctx.work);
    struct Cleanup {
        fs::path dir;
        ~Cleanup() {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{ctx.work};

    ctx.history_dir = ctx.work / "history";
    const double t_hist = steady_s();
    ctx.history = build_history(ctx.history_dir, kHistory);
    const double history_build_s = steady_s() - t_hist;
    const auto trace = make_trace(ctx.workload->rate, kWarmup + ctx.seconds + kTail,
                                  kNodes, ctx.seed);
    gate(!trace.empty(), "empty demand trace");
    mark("history+trace");

    utsname uts{};
    ::uname(&uts);
    const char* threads = std::getenv("DLT_THREADS");
    std::cout << "context nproc=" << std::thread::hardware_concurrency() << " cpu=\""
              << read_first_line_with("/proc/cpuinfo", "model name") << "\" kernel="
              << uts.release << " build=" << PERFBENCH_BUILD_TYPE
              << " DLT_THREADS=" << (threads != nullptr ? threads : "unset")
              << " daemon_seed=" << kDaemonSeed << " history_txs=" << ctx.history.txs
              << " history_blocks=" << ctx.history.height << " history_tip="
              << ctx.history.tip.hex().substr(0, 16) << " history_mb="
              << format_number(static_cast<double>(ctx.history.bytes) / (1 << 20))
              << " history_build_s=" << format_number(history_build_s)
              << " workload=" << ctx.workload->name << " demand_seed=" << ctx.seed
              << " offered_tps=" << ctx.workload->rate
              << " interval_s=" << ctx.workload->interval
              << " window_s=" << ctx.seconds << " warmup_s=" << kWarmup
              << " harness_status_rpc_per_s=" << 1.0 / kStatusPeriod << " trace=" << ctx.trace
              << "\n";

    RunResult r = run_cluster(ctx, trace);

    const double tps = ticks_per_second();
    const double window = r.end.t - r.start.t;
    const std::uint64_t window_txs = r.end.confirmed - r.start.confirmed;
    const std::uint64_t window_blocks = r.end.height - r.start.height;
    gate(window_txs > 0 && window_blocks > 0, "nothing confirmed in the window");
    const double goodput =
        window_goodput(r.start.confirmed, r.start.t, r.end.confirmed, r.end.t);
    const auto offered_in_window = std::count_if(
        trace.begin(), trace.end(),
        [&](const Arrival& a) { return a.at >= r.start.t && a.at < r.end.t; });
    const auto p50 = percentile(r.confirm_latencies, 0.5);
    const auto p99 = percentile(r.confirm_latencies, 0.99);
    gate(p50.has_value(), "too few confirmations for a median");

    CpuTicks all_start, all_end;
    double rss_mb = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
        all_start.user += r.start.procs[i].process.user;
        all_start.sys += r.start.procs[i].process.sys;
        all_end.user += r.end.procs[i].process.user;
        all_end.sys += r.end.procs[i].process.sys;
        rss_mb = std::max(rss_mb, r.end.procs[i].vm_hwm_mb);
    }
    const double cpu_per_tx = cpu_us_per_tx(all_start, all_end, tps, window_txs);
    const double setup = median(r.setup_s);

    std::cout << "window: " << format_number(window) << " s, " << window_txs
              << " txs confirmed at node 0 of " << offered_in_window
              << " offered, " << window_blocks << " blocks, "
              << r.confirm_latencies.size() << " latency samples\n";
    std::cout << "outcome: attempted=" << r.outcome.attempted()
              << " accepted=" << r.outcome.accepted << " refused=" << r.outcome.refused
              << " unsent=" << r.outcome.unsent()
              << " unconfirmed=" << r.outcome.unconfirmed() << "\n";
    std::cout << "setup: " << r.setup_s.size() << " cold starts [";
    for (std::size_t i = 0; i < r.setup_s.size(); ++i)
        std::cout << (i ? " " : "") << format_number(r.setup_s[i]);
    std::cout << "], median " << format_number(setup) << " s; RpcClient's " << kConnectRetryStep * 1e3
              << " ms connect-retry step is at most "
              << format_number(kConnectRetryStep / setup * 100) << "% of it; "
              << ctx.port_retries << " port-collision retries\n";

    std::vector<Metric> metrics;
    if (!ctx.trace) {
        metrics = {
            {"setup_s", setup, "s"},
            {"goodput_tps", goodput, "1/s"},
            {"confirm_p50_s", *p50, "s"},
            {"cpu_us_per_tx", cpu_per_tx, "us"},
            {"rss_mb", rss_mb, "MB"},
        };
    } else {
        // Per-thread and per-counter deltas across the window.
        CpuTicks loop_all, rpc_all;
        double loop_busy = 0, node0_loop_us_per_tx = 0;
        for (std::size_t i = 0; i < kNodes; ++i) {
            const auto roles = thread_roles(r.pids[i], r.start.procs[i], r.end.procs[i]);
            gate(roles.has_value(), "could not identify a daemon's loop and RPC threads");
            loop_all.user += roles->loop.user;
            loop_all.sys += roles->loop.sys;
            rpc_all.user += roles->rpc.user;
            rpc_all.sys += roles->rpc.sys;
            const double loop_s = static_cast<double>(roles->loop.total()) / tps;
            loop_busy = std::max(loop_busy, loop_s / window);
            if (i == 0) node0_loop_us_per_tx = loop_s * 1e6 / static_cast<double>(window_txs);
        }
        const auto delta = [&](std::size_t node, const char* name) {
            return counter_sum(*r.end.metrics[node], name) -
                   counter_sum(*r.start.metrics[node], name);
        };
        const auto delta_all = [&](const char* name) {
            double total = 0;
            for (std::size_t i = 0; i < kNodes; ++i) total += delta(i, name);
            return total;
        };
        const double txs = static_cast<double>(window_txs);
        const double cpu_total = static_cast<double>(all_end.total() - all_start.total());
        const double sys_total = static_cast<double>(all_end.sys - all_start.sys);

        // Single-node replay of the same stream, batched like the cluster.
        ReplaySpec spec;
        spec.chain_tag = kChainTag;
        spec.nakamoto = ctx.workload->engine == core::ReplicaEngine::kNakamoto;
        spec.txs_per_block = std::max<std::size_t>(
            1, static_cast<std::size_t>(txs / static_cast<double>(window_blocks) + 0.5));
        copy_history(ctx.history_dir, ctx.work / "replay");
        const ReplayResult rp = replay(ctx.work / "replay", spec, trace);
        mark("replay");
        copy_history(ctx.history_dir, ctx.work / "replica-open");
        const double replica_open_s =
            time_replica_open(ctx.work / "replica-open", kChainTag, spec.nakamoto);
        const auto span_us = [&](const char* name) {
            const auto it = rp.spans.find(name);
            return it == rp.spans.end() ? 0.0 : it->second.us_per_call();
        };
        const double replay_us_per_tx = rp.wall_s * 1e6 / static_cast<double>(rp.txs);
        const LoaderStats& ls = r.loader;
        const double overhead =
            ls.rpcs[0] == 0 || ls.rpcs[1] == 0 || ls.cpu_s[0] == 0
                ? 0.0
                : (ls.cpu_s[1] / static_cast<double>(ls.rpcs[1])) /
                          (ls.cpu_s[0] / static_cast<double>(ls.rpcs[0])) -
                      1.0;
        const auto or_refused = [](std::optional<double> v) { return v ? *v : -1.0; };
        const double height_gained = static_cast<double>(window_blocks);

        metrics = {
            {"app.submit_lag_p50_s", or_refused(percentile(ls.submit_lag, 0.5)), "s"},
            {"app.submit_lag_p99_s", or_refused(percentile(ls.submit_lag, 0.99)), "s"},
            {"app.loader_late_p99_s", or_refused(percentile(ls.late, 0.99)), "s"},
            {"app.confirm_p99_s", or_refused(p99), "s"},
            {"app.confirm_samples", static_cast<double>(r.confirm_latencies.size()), "count"},
            {"app.failed_frac",
             static_cast<double>(r.outcome.failed()) /
                 static_cast<double>(r.outcome.attempted()),
             "ratio"},
            {"app.control_rpcs_per_s",
             static_cast<double>(ls.control_rpcs) / r.loader_wall_s, "1/s"},
            {"app.connect_retry_share", kConnectRetryStep / setup, "ratio"},
            {"app.port_retries", static_cast<double>(ctx.port_retries), "count"},
            {"core.loop_busy_frac", loop_busy, "ratio"},
            {"core.loop_cpu_us_per_tx", static_cast<double>(loop_all.total()) / tps * 1e6 / txs,
             "us"},
            {"core.rpc_cpu_us_per_tx", static_cast<double>(rpc_all.total()) / tps * 1e6 / txs,
             "us"},
            {"core.sys_cpu_frac", cpu_total > 0 ? sys_total / cpu_total : 0.0, "ratio"},
            {"core.blocks_per_s", height_gained / window, "1/s"},
            {"core.window_blocks", height_gained, "count"},
            {"core.stale_block_frac",
             stale_fraction(window_blocks, static_cast<std::uint64_t>(
                                               delta(0, "validation_blocks_checked_total"))),
             "ratio"},
            {"core.rejoin_s", r.rejoin_s, "s"},
            {"core.replica_open_s", replica_open_s, "s"},
            {"core.connect_block_us", span_us("core.connect_block"), "us"},
            {"core.tx_index_us", span_us("core.tx_index"), "us"},
            {"core.confirm_index_us", span_us("core.confirm_index"), "us"},
            {"net.bytes_sent_per_tx", delta_all("net_tcp_bytes_sent_total") / txs, "B"},
            {"net.frames_sent_per_tx", delta_all("net_tcp_frames_sent_total") / txs, "count"},
            {"net.send_drops", delta_all("net_tcp_send_drops_total"), "count"},
            {"net.reconnects", delta_all("net_tcp_reconnects_total"), "count"},
            {"net.frame_encode_us", span_us("net.frame_encode"), "us"},
            {"net.frame_decode_us", span_us("net.frame_decode"), "us"},
            {"ledger.admissions_per_tx", delta_all("mempool_admission_total") / txs, "count"},
            {"ledger.txs_per_block", txs / height_gained, "count"},
            {"ledger.tx_decode_us", span_us("ledger.tx_decode"), "us"},
            {"ledger.tx_encode_us", span_us("ledger.tx_encode"), "us"},
            {"ledger.admit_us", span_us("ledger.admit"), "us"},
            {"ledger.template_us", span_us("ledger.template"), "us"},
            {"ledger.assemble_us", span_us("ledger.assemble"), "us"},
            {"ledger.block_encode_us", span_us("ledger.block_encode"), "us"},
            {"ledger.block_decode_us", span_us("ledger.block_decode"), "us"},
            {"ledger.check_block_us", span_us("ledger.check_block"), "us"},
            {"ledger.fork_choice_us", span_us("ledger.fork_choice"), "us"},
            {"ledger.remove_confirmed_us", span_us("ledger.remove_confirmed"), "us"},
            {"datastruct.merkle_us", span_us("datastruct.merkle"), "us"},
            {"crypto.txid_us", span_us("crypto.txid"), "us"},
            {"storage.wal_appends_per_block", delta(0, "wal_appends_total") / height_gained,
             "count"},
            {"storage.wal_bytes_per_tx", delta(0, "wal_bytes_appended_total") / txs, "B"},
            {"storage.node_open_s", rp.node_open_s, "s"},
            {"trace.reconcile", rp.spanned_s / rp.wall_s, "ratio"},
            {"trace.coverage", replay_us_per_tx / node0_loop_us_per_tx, "ratio"},
            {"trace.overhead_frac", overhead, "ratio"},
        };
        std::cout << "replay: " << rp.txs << " txs in " << rp.blocks << " blocks of "
                  << spec.txs_per_block << ", " << format_number(replay_us_per_tx)
                  << " us/tx; node 0 loop " << format_number(node0_loop_us_per_tx)
                  << " us/tx; " << ls.spans.size() << " loader spans\n";
        std::ofstream spans(ctx.work.parent_path() /
                            (std::string("spans-") + ctx.workload->name + ".csv"));
        spans << "rpc,node,id,start_s,end_s\n";
        for (const Span& s : ls.spans)
            spans << rpc_name(s.kind) << ',' << s.node << ',' << s.id << ','
                  << format_number(s.start) << ',' << format_number(s.end) << '\n';
    }

    std::cout << "phases (s since start):";
    for (const auto& [phase, t] : g_phases) std::cout << " " << phase << "=" << format_number(t);
    std::cout << "\n";
    for (const Metric& m : metrics)
        std::cout << "metric " << m.name << " = " << format_number(m.value) << " " << m.unit
                  << "\n";
    std::ostringstream json;
    json << "{\"correct\": true, \"attempted\": " << r.outcome.attempted()
         << ", \"failed\": " << r.outcome.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
             << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
             << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const GateFailure& e) {
        std::cerr << "perfbench: gate failed: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 2;
    }
}
