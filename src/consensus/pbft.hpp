// Practical Byzantine Fault Tolerance (paper §2.4: Hyperledger's committing
// peers "execute a Practical Byzantine Fault-Tolerance protocol"), in two parts:
//  - PbftEngine: one replica's PRE-PREPARE / PREPARE / COMMIT agreement with
//    digest-bound votes, and view changes with NEW-VIEW re-proposal when the
//    primary stalls or equivocates. It orders opaque request batches over a
//    net::transport::Transport, so the deployed core::Replica runs it too.
//  - PbftCluster: a harness of 3f+1 engines over a SimTransportHub plus the
//    client side (multicast, request queues, batch cutting), fault injection
//    and inspection. Drives E04, E08, E17, E19, E22, E27, core::ReplicatedApp.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/transport/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/txlifecycle.hpp"

namespace dlt::consensus {

struct PbftConfig {
    std::uint32_t f = 1;                  // tolerated Byzantine replicas; n = 3f+1
    std::size_t batch_size = 100;         // requests per proposal
    SimDuration batch_interval = 0.2;     // cut a partial batch after this long
    SimDuration view_change_timeout = 5.0;
    net::LinkParams link{};
};

/// Byzantine behaviour injected into a replica (for tests and E17).
enum class PbftFault {
    kNone,
    kCrashed,      // fail-stop: drops everything
    kEquivocating, // as primary, sends conflicting pre-prepares to halves
};

/// One committed batch in a replica's ledger.
struct CommittedBatch {
    std::uint64_t sequence = 0;
    std::uint32_t view = 0;
    std::vector<Bytes> requests;
    SimTime committed_at = 0;
};

/// The digest pre-prepares, prepares and commits carry for a batch.
Hash256 pbft_batch_digest(const std::vector<Bytes>& requests);

/// One replica's agreement state; peer ids are replica ids 0..n-1 and the
/// primary of view v is v % n. Runs on the transport's callback thread.
class PbftEngine {
public:
    using BatchHook = std::function<void(std::uint64_t sequence, const std::vector<Bytes>&)>;
    /// What the engine asks of its owner. Every hook may be empty.
    struct Hooks {
        BatchHook pre_prepared;                     // first sight of a batch
        BatchHook committed;                        // commit quorum (executes in order)
        std::function<void(CommittedBatch)> execute; // sequence order, once each
        std::function<bool()> has_pending;  // work waits outside: keep the view timer
        std::function<void()> may_propose;  // primary: after executing, on a new view
    };

    /// `replicas` is n; it tolerates f = (n-1)/3 faults with n-f quorums.
    PbftEngine(net::transport::Transport& transport, std::uint32_t replicas,
               double view_change_timeout, Hooks hooks);

    std::uint32_t view() const { return view_; }
    std::uint32_t primary_of_view(std::uint32_t view) const { return view % n_; }
    bool is_primary() const { return primary_of_view(view_) == id_; }
    std::uint64_t last_executed() const { return last_executed_; }
    /// A pre-prepared batch has not executed yet.
    bool in_flight() const {
        return std::ranges::any_of(slots_, [](const auto& e) { return e.second.pre_prepared; });
    }

    /// False when `topic` is not PBFT's. Malformed or inactive: dropped.
    bool handle(net::transport::PeerId from, const std::string& topic, ByteView payload);

    /// Primary: order `requests` at the next sequence number.
    void propose(std::vector<Bytes> requests);
    /// Byzantine primary (tests and E17): send `requests` to even-numbered
    /// replicas and `conflicting` to odd ones under one sequence number.
    void equivocate(const std::vector<Bytes>& requests,
                    const std::vector<Bytes>& conflicting);

    /// Start the view-change timer unless it is already running.
    void arm_view_timer();
    /// Catch-up applied batches up to `sequence` outside the engine. Counts
    /// as progress; later committed slots execute.
    void skip_to(std::uint64_t sequence);
    /// An inactive engine ignores messages, sends nothing and runs no timer
    /// (a fail-stopped replica, or a stopped node).
    void set_active(bool active);

private:
    struct Slot {
        std::optional<Hash256> digest;      // of the batch, from the first message
        std::vector<Bytes> requests;        // payload (known once pre-prepared)
        std::uint32_t view = 0;
        std::set<std::uint32_t> prepares;   // replicas that sent matching PREPARE
        std::set<std::uint32_t> commits;    // replicas that sent matching COMMIT
        bool pre_prepared = false;
        bool prepared = false;
        bool committed = false;
    };

    /// Work waits for ordering: the view-change timer runs.
    bool outstanding() const {
        return !slots_.empty() || (hooks_.has_pending && hooks_.has_pending());
    }
    /// Cancel the view-change timer; re-arm it while work is outstanding.
    void restart_view_timer();
    void broadcast(const std::string& topic, ByteView payload);
    Bytes encode_pre_prepare(std::uint64_t seq, const std::vector<Bytes>& requests) const;
    void handle_pre_prepare(net::transport::PeerId from, ByteView payload);
    /// PREPARE or COMMIT: (view, sequence, batch digest, sender).
    void handle_vote(net::transport::PeerId from, ByteView payload, bool commit);
    void try_advance(std::uint64_t sequence);
    void execute_ready();

    void start_view_change();
    void handle_view_change(net::transport::PeerId from, ByteView payload);
    void handle_new_view(net::transport::PeerId from, ByteView payload);
    void enter_view(std::uint32_t view);

    net::transport::Transport& transport_;
    std::uint32_t id_;
    std::uint32_t n_;
    std::uint32_t f_;
    double view_change_timeout_;
    Hooks hooks_;
    bool active_ = true;

    std::uint32_t view_ = 0;
    std::uint64_t next_sequence_ = 1; // primary: next seq to assign
    std::uint64_t last_executed_ = 0;
    std::map<std::uint64_t, Slot> slots_; // by sequence
    std::optional<net::transport::TimerId> view_timer_;
    std::map<std::uint32_t, std::set<std::uint32_t>> view_votes_; // target view -> voters

    obs::Counter* batches_committed_ = nullptr; // pbft_batches_committed_total
    obs::Counter* requests_executed_ = nullptr; // pbft_requests_executed_total
    obs::Counter* view_changes_ = nullptr;      // pbft_view_changes_total
};

class PbftCluster {
public:
    PbftCluster(PbftConfig config, std::uint64_t seed);

    std::uint32_t replica_count() const { return n_; }
    std::uint32_t primary_of_view(std::uint32_t view) const { return view % n_; }

    /// Submit a client request; it is forwarded to every replica (clients
    /// multicast so a faulty primary cannot censor silently).
    void submit(Bytes request);

    /// Inject a fault into one replica.
    void set_fault(std::uint32_t replica, PbftFault fault);

    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Committed batches at one replica (in sequence order).
    const std::vector<CommittedBatch>& log_of(std::uint32_t replica) const;

    /// Total requests executed at one replica.
    std::size_t executed_requests(std::uint32_t replica) const;

    /// True when all non-faulty replicas have identical logs.
    bool logs_consistent() const;

    /// Highest view number reached by any correct replica (counts view changes).
    std::uint32_t max_view() const;

    /// Mean commit latency (submit -> commit at replica 0) over committed
    /// requests; nullopt when nothing committed.
    std::optional<double> mean_commit_latency() const;

    const net::TrafficStats& traffic() const { return network_.stats(); }
    /// Underlying simulated network (fault injection: apply a FaultPlan,
    /// partition/heal the cluster).
    net::Network& network() { return network_; }

    /// Request lifecycle telemetry keyed by request digest, observed at
    /// replica 0: submit → pre-prepare (first-seen) → commit (inclusion at the
    /// batch sequence) → execute (deterministic finality). The mempool stage
    /// has no PBFT analogue and stays unstamped.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }

private:
    /// The client-side state kept next to each replica's engine.
    struct Replica {
        std::unique_ptr<PbftEngine> engine;
        PbftFault fault = PbftFault::kNone;
        std::deque<Bytes> pending; // un-proposed requests
        std::vector<CommittedBatch> log;
        std::optional<sim::EventId> batch_timer;
    };

    void handle_request(std::uint32_t replica, const Bytes& request);
    void maybe_cut_batch(std::uint32_t replica);
    void propose_batch(std::uint32_t replica);
    void on_committed(std::uint32_t replica, std::uint64_t sequence,
                      const std::vector<Bytes>& requests);
    void on_execute(std::uint32_t replica, CommittedBatch batch);

    PbftConfig config_;
    std::uint32_t n_;
    sim::Scheduler scheduler_;
    Rng rng_;
    net::Network network_;
    net::transport::SimTransportHub hub_;
    std::vector<Replica> replicas_;
    std::unordered_map<Hash256, SimTime> submit_times_;
    std::vector<double> commit_latencies_;
    obs::TxLifecycleTracker lifecycle_;
};

} // namespace dlt::consensus
