// Replica: one consensus node written against net::transport::Transport, so
// the same protocol logic runs inside the deterministic simulator
// (SimTransport) and as a real networked process (TcpTransport under
// dlt-node) — the deployment mode E29 measures against its sim prediction.
//
// Two engines (ReplicaEngine):
//
//   kNakamoto — proof-of-work longest chain. Block discovery is the standard
//     Poisson race (each replica holds 1/n of the hash power, so the network
//     mines one block per block_interval in expectation), blocks flood to all
//     peers, branches are tracked in an in-memory ChainStore and the most-work
//     tip wins (ties to the lower hash — the network-wide rule the sim uses).
//     Missing ancestry is fetched hop-by-hop ("getblk" walk-back), which also
//     serves as the catch-up path after a restart or partition.
//
//   kPbft — a deliberately simplified PBFT: replica 0 is the stable primary
//     (no view change; a primary failure halts the cluster, which DESIGN.md
//     records as the scope cut), batches commit through the classic
//     pre-prepare / prepare / commit exchange with 2f+1 quorums, and a lagging
//     backup catches up by requesting committed blocks by sequence number —
//     the path the E29 kill-and-restart cell exercises.
//
// Transaction relay. A replica sends each of its own submissions to every
// peer ("tx"). In a full mesh (peer_ids().size() + 1 == node_count) that
// fan-out already reaches every replica, so a received "tx" is admitted and
// not relayed: 3 frames per tx on 4 nodes instead of the flood's 9. Partial
// meshes keep flooding (admit, then relay to every peer but the sender).
// Repair: when a replica has connected two blocks since it admitted one of
// its own submissions, and the tx is still in its mempool, it sends the tx
// once as "txr". A peer receiving "txr" admits the tx if it is new and, if
// the tx is then in its mempool, forwards it once as "tx" to every peer but
// the sender — so a cut submitter<->producer link is routed around in one
// hop, at most another 9 frames (the old flood's cost). The trigger counts
// blocks, so a PBFT cluster that proposes nothing else waits for the next
// block before the repair fires.
//
// Durability comes from core::PersistentNode: every connect/disconnect is
// WAL-journaled under ReplicaConfig::data_dir, so a SIGKILLed replica reopens
// to its exact committed chain and rejoins by catch-up.
//
// Threading: every method except the constructor must run on the transport's
// callback thread (the daemon posts RPC work into the loop). The constructor
// installs the message handler; call start() from the loop (or before the TCP
// loop starts) to arm timers.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/persistent_node.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/validation.hpp"
#include "net/transport/transport.hpp"

namespace dlt::core {

enum class ReplicaEngine : std::uint8_t { kNakamoto, kPbft };

struct ReplicaConfig {
    ReplicaEngine engine = ReplicaEngine::kNakamoto;
    /// Total replica count (peer ids 0..node_count-1; ours comes from the
    /// transport). Sets the PBFT quorum and the per-replica hash share.
    std::uint32_t node_count = 4;
    /// Expected seconds between blocks network-wide (Nakamoto) or the
    /// primary's batch-proposal tick (PBFT).
    double block_interval = 2.0;
    std::size_t max_block_bytes = 1'000'000;
    std::size_t max_block_txs = 10'000;
    /// Signature policy for structural checks; deployment defaults to kSkip
    /// exactly like the million-user workload experiments (a measurement
    /// knob — see DESIGN.md).
    ledger::SigCheckMode sig_mode = ledger::SigCheckMode::kSkip;
    ledger::MempoolConfig mempool{};
    std::string chain_tag = "e29";
    std::uint32_t genesis_bits = 0x207fffff;
    /// Durable state root for this replica (created on first open).
    std::filesystem::path data_dir;
    StateEngine state_engine = StateEngine::kInMemory;
    storage::FsyncMode fsync = storage::FsyncMode::kNever;
    /// Seed for the replica's private randomness (mining race, peer picks).
    std::uint64_t seed = 1;
    /// Seconds between catch-up probes (tip/sequence requests to a random
    /// peer); also the bootstrap delay after start().
    double sync_interval = 0.5;
};

class Replica {
public:
    /// Opens (or recovers) the durable node under config.data_dir and
    /// installs the transport handler. Timers start at start().
    Replica(net::transport::Transport& transport, ReplicaConfig config);

    /// Arm the engine timers (mining / proposal / catch-up probes).
    void start();
    /// Cancel timers and stop reacting to messages. The durable node needs no
    /// flush — every connect was WAL-committed when it happened.
    void stop();

    /// Inject a locally submitted transaction: mempool admission, gossip to
    /// every peer, and lifecycle stamping for confirmation latency.
    /// Returns false when the mempool refused it.
    bool submit_transaction(const ledger::Transaction& tx);

    // --- Inspection (transport thread, or any thread after stop()) -----------
    const Hash256& tip() const { return node_.tip(); }
    std::uint64_t height() const { return node_.height(); }
    /// Non-coinbase transactions on the canonical chain.
    std::uint64_t confirmed_txs() const { return confirmed_txs_; }
    /// Submit→canonical-inclusion latency of each locally submitted
    /// transaction that has confirmed, in confirmation order (seconds).
    const std::vector<double>& confirmation_latencies() const { return latencies_; }
    std::size_t mempool_size() const { return mempool_.size(); }
    /// Own submissions neither confirmed nor dropped by the mempool yet.
    std::size_t pending_submissions() const { return submitted_at_.size(); }
    PersistentNode& node() { return node_; }
    const ReplicaConfig& config() const { return config_; }

private:
    // Shared paths -----------------------------------------------------------
    void on_message(net::transport::PeerId from, const std::string& topic,
                    ByteView payload);
    ledger::Block assemble_block();
    void connected(const ledger::Block& block);
    void disconnected(const ledger::Block& block);
    net::transport::PeerId random_peer();
    void arm_sync_timer();
    /// Every configured replica is a direct peer (the relay policy's switch).
    bool full_mesh() const;
    /// Send "txr" for own submissions that two connected blocks left out.
    void repair_left_out();

    // Nakamoto ---------------------------------------------------------------
    void nk_handle_block(const ledger::Block& block, net::transport::PeerId from,
                         bool relay);
    void nk_try_insert(const ledger::Block& block);
    void nk_update_active_tip();
    Hash256 nk_select_tip() const;
    void nk_mark_invalid(const Hash256& hash);
    void nk_request_block(const Hash256& hash, net::transport::PeerId from);
    void nk_schedule_mining();
    void nk_sync_probe();

    // PBFT -------------------------------------------------------------------
    struct PbftRound {
        std::optional<ledger::Block> block;
        Hash256 block_hash;
        std::set<net::transport::PeerId> prepares;
        std::set<net::transport::PeerId> commits;
        bool sent_prepare = false;
        bool sent_commit = false;
        bool executed = false;
    };
    bool pbft_primary() const { return transport_.local_id() == 0; }
    std::size_t pbft_quorum() const {
        const std::size_t f = (config_.node_count - 1) / 3;
        return 2 * f + 1;
    }
    void pbft_propose();
    void pbft_check_round(std::uint64_t seq);
    void pbft_execute_ready();
    void pbft_sync_probe();

    net::transport::Transport& transport_;
    ReplicaConfig config_;
    ledger::ValidationRules rules_;
    Rng rng_;

    PersistentNode node_;
    ledger::Mempool mempool_;
    crypto::Address miner_;

    // Nakamoto branch tracking (seeded from the durable canonical chain).
    ledger::ChainStore chain_;
    std::unordered_map<Hash256, std::vector<ledger::Block>> orphans_; // by parent
    std::unordered_set<Hash256> invalid_;
    std::unordered_set<Hash256> requested_; // ancestor fetches in flight
    std::optional<net::transport::TimerId> mining_timer_;

    // PBFT round state.
    std::map<std::uint64_t, PbftRound> rounds_;
    std::uint64_t max_seen_seq_ = 0;
    std::optional<net::transport::TimerId> propose_timer_;

    std::optional<net::transport::TimerId> sync_timer_;
    bool running_ = false;

    // Locally submitted transactions awaiting confirmation: admission time
    // (for latency) and chain height at admission (for the repair trigger).
    struct OwnSubmission {
        double at = 0;
        std::uint64_t height = 0;
    };
    std::unordered_map<Hash256, OwnSubmission> submitted_at_;
    /// Own submissions in admission order; each is checked once for repair,
    /// two blocks after its admission height.
    std::deque<Hash256> repair_queue_;
    /// Every txid ever admitted, relayed, or seen on a connected block. The
    /// simulator's gossip overlay deduplicates deliveries at the overlay
    /// layer; over raw sockets a late relay would re-admit a tx that already
    /// confirmed (record txs carry no UTXO conflict to stop a second
    /// inclusion), so the replica suppresses re-entry itself.
    std::unordered_set<Hash256> seen_txs_;
    std::vector<double> latencies_;
    std::uint64_t confirmed_txs_ = 0;
};

} // namespace dlt::core
