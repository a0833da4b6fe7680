// E29 — real-transport deployment mode (ROADMAP item 1): the same consensus
// stack that runs under the discrete-event Scheduler must hold up as an
// N-process loopback cluster of dlt-node daemons speaking framed TCP. The
// harness
//
//   1. generates one deterministic demand trace (app::WorkloadEngine against
//      a recording TxHost — Zipf agents, Poisson arrivals, fee bidding),
//   2. replays that trace wall-clock over each node's RPC port against a
//      live ClusterDriver cluster (Nakamoto and PBFT engines), measuring
//      confirmed tps and submit→inclusion latency percentiles from the
//      daemons' own lifecycle stamps,
//   3. replays the same trace through the same core::Replica code over a
//      full-mesh SimTransportHub (virtual time, same ReplicaConfig) as the
//      prediction, so the sim-to-wall gap measures only the transport,
//   4. SIGKILLs one node mid-run, restarts it on its old data dir and ports,
//      and requires it to rejoin: WAL/LSM recovery plus protocol catch-up
//      until its tip digest agrees with the cluster.
//
// DLT_E29_QUICK=1 shrinks every dimension for CI smoke runs.
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "app/cluster.hpp"
#include "app/workload.hpp"
#include "bench_util.hpp"
#include "core/replica.hpp"
#include "net/transport/sim_transport.hpp"

using namespace dlt;

namespace {

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() / ("dlt-bench-e29-" + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

// --- Demand trace ------------------------------------------------------------

/// TxHost that records what the workload engine would submit instead of
/// feeding a network: the bench replays the identical (tx, node, time) stream
/// against both the socket cluster (wall clock) and the simulation baselines.
class TraceHost final : public app::TxHost {
public:
    struct Entry {
        ledger::Transaction tx;
        double at = 0; // virtual seconds from trace start
        std::uint32_t node = 0;
    };

    sim::Scheduler& scheduler() override { return scheduler_; }
    const ledger::Mempool& mempool_of(net::NodeId) const override {
        return mempool_;
    }
    void submit_transaction(const ledger::Transaction& tx,
                            net::NodeId origin) override {
        entries.push_back(Entry{tx, scheduler_.now(), origin});
    }

    std::vector<Entry> entries;
    sim::Scheduler scheduler_;

private:
    ledger::Mempool mempool_; // fee-floor oracle for market-follower agents
};

std::vector<TraceHost::Entry> make_trace(double tps, double duration,
                                         std::uint32_t submit_nodes,
                                         std::uint64_t seed) {
    TraceHost host;
    app::WorkloadParams params;
    params.population = 10'000;
    params.base_tps = tps;
    params.submit_nodes = submit_nodes;
    app::WorkloadEngine engine(host, params, seed);
    engine.start();
    host.scheduler().run_until(duration);
    engine.stop();
    return std::move(host.entries);
}

// --- Small stats helpers -----------------------------------------------------

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
}

/// Crude counter extraction from the obs JSON snapshot ("name":value).
double metric_from_json(const std::string& json, const std::string& name) {
    const auto key = "\"" + name + "\":";
    const auto pos = json.find(key);
    if (pos == std::string::npos) return 0;
    return std::strtod(json.c_str() + pos + key.size(), nullptr);
}

// --- Live-cluster cell -------------------------------------------------------

struct ClusterCell {
    double tps = 0;
    double p50 = 0, p99 = 0;
    std::uint64_t submitted = 0, accepted = 0, confirmed = 0;
    bool digests_agree = false;
    std::size_t clean_exits = 0;
    double net_bytes_sent = 0, net_frames_sent = 0, reconnects = 0, view_changes = 0;
    double blocks_mined = 0, reorgs = 0;
};

/// Poll every node until one simultaneous status round shows identical tips.
bool await_digest_agreement(app::ClusterDriver& cluster, double timeout_s) {
    bench::Timer timer;
    while (timer.elapsed_s() < timeout_s) {
        std::vector<app::NodeStatus> statuses;
        bool all = true;
        for (std::size_t i = 0; i < cluster.node_count() && all; ++i) {
            if (!cluster.alive(i)) continue;
            const auto s = cluster.rpc(i).status();
            if (!s) {
                all = false;
                break;
            }
            statuses.push_back(*s);
        }
        if (all && !statuses.empty()) {
            bool agree = true;
            for (const auto& s : statuses)
                agree = agree && s.tip == statuses.front().tip;
            if (agree) return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
}

/// Replay `trace` against a live cluster at wall-clock pace; when
/// `kill_rejoin` is set, SIGKILL the highest-id node a third of the way in
/// and restart it at two thirds, requiring recovery + catch-up.
ClusterCell run_cluster_cell(const app::ClusterConfig& config,
                             const std::vector<TraceHost::Entry>& trace,
                             bool kill_rejoin, double settle_timeout_s,
                             int* rejoin_exit = nullptr) {
    const std::size_t nodes = config.node_count;
    app::ClusterDriver cluster(config);
    cluster.start();

    ClusterCell cell;
    const double trace_end = trace.empty() ? 0 : trace.back().at;
    const std::size_t victim = nodes - 1;
    const double kill_at = trace_end / 3.0;
    const double restart_at = 2.0 * trace_end / 3.0;
    bool killed = false, restarted = !kill_rejoin;

    bench::Timer clock;
    for (const auto& entry : trace) {
        while (clock.elapsed_s() < entry.at)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (kill_rejoin && !killed && clock.elapsed_s() >= kill_at) {
            cluster.signal_node(victim, SIGKILL);
            const int code = cluster.wait_node(victim);
            if (rejoin_exit != nullptr) *rejoin_exit = code;
            killed = true;
        }
        if (killed && !restarted && clock.elapsed_s() >= restart_at) {
            cluster.restart_node(victim);
            restarted = true;
        }
        std::size_t target = entry.node % nodes;
        if (!cluster.alive(target)) target = (target + 1) % nodes;
        ++cell.submitted;
        if (cluster.rpc(target).submit(entry.tx)) ++cell.accepted;
    }
    if (killed && !restarted) {
        cluster.restart_node(victim);
        restarted = true;
    }

    // Drain: poll until the confirmed count stops moving (or timeout).
    std::uint64_t last_confirmed = 0;
    int stable_rounds = 0;
    bench::Timer settle;
    while (settle.elapsed_s() < settle_timeout_s && stable_rounds < 6) {
        std::uint64_t confirmed = 0;
        for (std::size_t i = 0; i < cluster.node_count(); ++i) {
            if (!cluster.alive(i)) continue;
            if (const auto s = cluster.rpc(i).status())
                confirmed = std::max(confirmed, s->confirmed_txs);
        }
        stable_rounds = confirmed == last_confirmed ? stable_rounds + 1 : 0;
        last_confirmed = confirmed;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    cell.confirmed = last_confirmed;
    const double window = clock.elapsed_s();
    cell.tps = bench::rate_per_sec(static_cast<double>(cell.confirmed), window);

    cell.digests_agree = await_digest_agreement(cluster, settle_timeout_s);

    std::vector<double> latencies;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        if (!cluster.alive(i)) continue;
        const auto node_lat = cluster.rpc(i).latencies();
        latencies.insert(latencies.end(), node_lat.begin(), node_lat.end());
    }
    cell.p50 = percentile(latencies, 0.50);
    cell.p99 = percentile(latencies, 0.99);

    if (cluster.alive(0)) {
        const std::string metrics = cluster.rpc(0).metrics_json();
        cell.net_bytes_sent = metric_from_json(metrics, "net_tcp_bytes_sent_total");
        cell.net_frames_sent = metric_from_json(metrics, "net_tcp_frames_sent_total");
        cell.reconnects = metric_from_json(metrics, "net_tcp_reconnects_total");
        cell.view_changes = metric_from_json(metrics, "pbft_view_changes_total");
        cell.blocks_mined = metric_from_json(metrics, "consensus_blocks_mined_total");
        cell.reorgs = metric_from_json(metrics, "consensus_reorgs_total");
    }

    for (const int code : cluster.stop_all())
        if (code == 0) ++cell.clean_exits;
    return cell;
}

// --- Simulation prediction ---------------------------------------------------

struct SimCell {
    double tps = 0;
    double p50 = 0, p99 = 0;
    std::uint64_t confirmed = 0;
};

/// The cluster's nodes as in-process core::Replicas over a full-mesh
/// SimTransportHub: the ReplicaConfig dlt-node builds from `config`, fresh
/// data dirs under `work_dir`, and the trace replayed in virtual time.
SimCell run_replica_sim(const app::ClusterConfig& config,
                        const std::vector<TraceHost::Entry>& trace, double duration,
                        double drain) {
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(config.seed));
    net::transport::SimTransportHub hub(network, config.node_count);
    network.build_full_mesh();
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < config.node_count; ++id) {
        core::ReplicaConfig rc; // what dlt-node's flags set (ClusterDriver)
        rc.engine = config.engine;
        rc.node_count = static_cast<std::uint32_t>(config.node_count);
        rc.block_interval = config.block_interval;
        rc.seed = config.seed;
        rc.state_engine =
            config.lsm_state ? core::StateEngine::kPersistent : core::StateEngine::kInMemory;
        rc.chain_tag = config.chain_tag;
        rc.sync_interval = config.sync_interval;
        rc.data_dir = config.work_dir / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), rc));
    }
    for (auto& r : replicas) r->start();
    for (const auto& entry : trace)
        scheduler.schedule_at(entry.at, [&replicas, &entry] {
            replicas[entry.node % replicas.size()]->submit_transaction(entry.tx);
        });
    scheduler.run_until(duration + drain);
    for (auto& r : replicas) r->stop();

    SimCell cell;
    std::vector<double> latencies;
    for (const auto& r : replicas) {
        cell.confirmed = std::max(cell.confirmed, r->confirmed_txs());
        const auto& lat = r->confirmation_latencies();
        latencies.insert(latencies.end(), lat.begin(), lat.end());
    }
    cell.tps = bench::rate_per_sec(static_cast<double>(cell.confirmed), duration);
    cell.p50 = percentile(latencies, 0.50);
    cell.p99 = percentile(latencies, 0.99);
    return cell;
}

} // namespace

int main() {
#ifdef DLT_NODE_BIN_PATH
    // Baked-in build-tree location; an explicit DLT_NODE_BIN still wins.
    ::setenv("DLT_NODE_BIN", DLT_NODE_BIN_PATH, /*overwrite=*/0);
#endif
    const bool quick = std::getenv("DLT_E29_QUICK") != nullptr;
    bench::Run run("E29");
    bench::ObsEnv obs_env;
    bench::title("E29 - loopback cluster vs simulation",
                 "The socket-backed deployment mode must confirm transactions "
                 "at wall-clock rates comparable to the virtual-time "
                 "prediction, agree on tip digests across processes, and "
                 "survive kill + restart of a node through WAL recovery.");
    run.note("mode", quick ? "quick" : "full");

    const std::size_t nodes = 4;
    const double interval = quick ? 0.3 : 0.4;
    const double duration = quick ? 4.0 : 12.0;
    const double offered_tps = quick ? 60.0 : 150.0;
    const double settle = quick ? 6.0 : 10.0;
    run.metric("nodes", static_cast<std::uint64_t>(nodes));
    run.metric("offered_tps", offered_tps);
    run.metric("trace_seconds", duration);

    const auto trace =
        make_trace(offered_tps, duration, static_cast<std::uint32_t>(nodes), 29);
    std::printf("demand trace: %zu transactions over %.1fs (%.0f tx/s offered)\n\n",
                trace.size(), duration, offered_tps);

    TempDir dirs("work");
    bench::Table table({"cell", "engine", "confirmed", "tps", "p50 s", "p99 s",
                        "digests", "clean exits"});
    const auto cluster_config = [&](core::ReplicaEngine engine, const std::string& dir) {
        app::ClusterConfig config;
        config.node_count = nodes;
        config.engine = engine;
        config.block_interval = interval;
        config.work_dir = dirs.path / dir;
        config.chain_tag = "e29";
        return config;
    };
    const auto cluster_row = [&](const char* cell, const char* engine,
                                 const ClusterCell& c) {
        table.row({cell, engine, bench::fmt_int(c.confirmed), bench::fmt(c.tps, 1),
                   bench::fmt(c.p50, 3), bench::fmt(c.p99, 3),
                   c.digests_agree ? "agree" : "DISAGREE", bench::fmt_int(c.clean_exits)});
    };
    const auto sim_row = [&](const char* engine, const SimCell& c) {
        table.row({"sim", engine, bench::fmt_int(c.confirmed), bench::fmt(c.tps, 1),
                   bench::fmt(c.p50, 3), bench::fmt(c.p99, 3), "-", "-"});
    };

    // Cells 1 and 2: each engine over sockets vs the same replicas over the
    // simulated transport.
    const ClusterCell nk = run_cluster_cell(
        cluster_config(core::ReplicaEngine::kNakamoto, "nakamoto"), trace, false, settle);
    const SimCell nk_sim =
        run_replica_sim(cluster_config(core::ReplicaEngine::kNakamoto, "nakamoto-sim"),
                        trace, duration, 10.0 * interval);
    cluster_row("cluster", "nakamoto", nk);
    sim_row("nakamoto", nk_sim);

    const ClusterCell pb = run_cluster_cell(
        cluster_config(core::ReplicaEngine::kPbft, "pbft"), trace, false, settle);
    const SimCell pb_sim = run_replica_sim(
        cluster_config(core::ReplicaEngine::kPbft, "pbft-sim"), trace, duration, 5.0);
    cluster_row("cluster", "pbft", pb);
    sim_row("pbft", pb_sim);

    // Cell 3: kill one node (SIGKILL), restart it on the same data dir and
    // ports, and require LSM/WAL recovery plus catch-up to digest agreement.
    int killed_exit = 0;
    const ClusterCell kr =
        run_cluster_cell(cluster_config(core::ReplicaEngine::kNakamoto, "rejoin"), trace,
                         true, settle, &killed_exit);
    cluster_row("kill+rejoin", "nakamoto", kr);
    table.print();

    std::printf("\nnode-0 transport: %.0f bytes / %.0f frames sent, %.0f reconnects, "
                "%.0f blocks mined, %.0f reorgs (nakamoto cell); %.0f frames sent, "
                "%.0f view changes (pbft cell); killed node exit %d (expected %d)\n",
                nk.net_bytes_sent, nk.net_frames_sent, nk.reconnects, nk.blocks_mined,
                nk.reorgs, pb.net_frames_sent, pb.view_changes, killed_exit, -SIGKILL);

    run.metric("nakamoto_wall_tps", nk.tps);
    run.metric("nakamoto_wall_p50_s", nk.p50);
    run.metric("nakamoto_wall_p99_s", nk.p99);
    run.metric("nakamoto_confirmed", nk.confirmed);
    run.metric("nakamoto_submitted", nk.submitted);
    run.metric("nakamoto_accepted", nk.accepted);
    run.metric("nakamoto_digests_agree", static_cast<std::uint64_t>(nk.digests_agree));
    run.metric("nakamoto_clean_exits", static_cast<std::uint64_t>(nk.clean_exits));
    run.metric("nakamoto_net_bytes_sent", nk.net_bytes_sent);
    run.metric("nakamoto_net_frames_sent", nk.net_frames_sent);
    run.metric("nakamoto_blocks_mined", nk.blocks_mined);
    run.metric("nakamoto_reorgs", nk.reorgs);
    run.metric("nakamoto_sim_tps", nk_sim.tps);
    run.metric("nakamoto_sim_p50_s", nk_sim.p50);
    run.metric("nakamoto_sim_p99_s", nk_sim.p99);
    run.metric("pbft_wall_tps", pb.tps);
    run.metric("pbft_wall_p50_s", pb.p50);
    run.metric("pbft_wall_p99_s", pb.p99);
    run.metric("pbft_confirmed", pb.confirmed);
    run.metric("pbft_submitted", pb.submitted);
    run.metric("pbft_accepted", pb.accepted);
    run.metric("pbft_digests_agree", static_cast<std::uint64_t>(pb.digests_agree));
    run.metric("pbft_clean_exits", static_cast<std::uint64_t>(pb.clean_exits));
    run.metric("pbft_net_frames_sent", pb.net_frames_sent);
    run.metric("pbft_view_changes", pb.view_changes);
    run.metric("pbft_sim_tps", pb_sim.tps);
    run.metric("pbft_sim_p50_s", pb_sim.p50);
    run.metric("pbft_sim_p99_s", pb_sim.p99);
    run.metric("rejoin_killed_exit", static_cast<double>(killed_exit));
    run.metric("rejoin_digests_agree", static_cast<std::uint64_t>(kr.digests_agree));
    run.metric("rejoin_clean_exits", static_cast<std::uint64_t>(kr.clean_exits));
    run.metric("rejoin_confirmed", kr.confirmed);
    const bool rejoin_ok = kr.digests_agree && killed_exit == -SIGKILL &&
                           kr.clean_exits == nodes;
    run.metric("rejoin_success", static_cast<std::uint64_t>(rejoin_ok));

    run.write_json();
    obs_env.write_artifacts();
    return 0;
}
