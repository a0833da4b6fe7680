// Replica: one consensus node written against net::transport::Transport, so
// the same protocol logic runs inside the deterministic simulator
// (SimTransport) and as a real networked process (TcpTransport under
// dlt-node) — the deployment mode E29 measures against its sim prediction.
//
// Two engines (ReplicaEngine):
//
//   kNakamoto — consensus::NakamotoEngine, the Nakamoto consensus the
//     simulator's NakamotoNetwork runs: the exponential mining race (each
//     replica holds 1/n of the hash power, so the network mines one block per
//     block_interval in expectation), a branch index over every block seen,
//     most-work fork choice (ties to the lower hash) with the fallback off an
//     invalid branch, and reorgs applied to the PersistentNode with rollback.
//     Blocks travel on the replica's relay ("block"): an own block is
//     published, a received one goes on when it joined the index, and a
//     duplicate frame is dropped by id before it is decoded. A block with an
//     unknown parent waits in a bounded orphan pool while its ancestry is
//     fetched hop by hop ("d/getblock" answered by "d/block" or
//     "d/notfound"); every sync_interval the replica re-asks for missing
//     parents and asks a random peer for its tip ("gettip"), which is also
//     the catch-up path after a restart or partition. Only a ValidationError from connecting a
//     block marks it invalid; a disk error leaves it eligible.
//
//   kPbft — consensus::PbftEngine, the PBFT the simulator's PbftCluster runs
//     (digest-bound votes, view change after 10 block intervals without
//     progress), ordering one encoded block per batch at sequence == height.
//     The current primary proposes on its block_interval tick when its
//     mempool is non-empty and nothing is in flight. A lagging replica
//     catches up by sequence number ("getseq"/"seq"), which also advances
//     the engine's executed height. The view-change timer is armed from the
//     sync tick and from block events, never per transaction.
//
// Transaction relay. "block", "txs" and "txr" travel on one net::Relay (the
// flood GossipOverlay runs too; src/net/README.md): framed once as a 32-byte
// id || payload, handled once per replica, and sent on, whole and under its
// id, to every peer but the sender when on_flood() says so. Txs travel in
// batches: a "txs" payload is a varint count followed by the txs' own
// encodings (a block's tx-list layout). A replica's own submissions collect
// in a pending batch; the first one arms a timer, and the batch is published
// when it fires, min(block_interval / 64, 5 ms) later, or earlier once it
// would outgrow max_block_bytes. stop() publishes a pending batch, and a
// submission to a stopped replica leaves at once, so a tx already
// acknowledged to its client still leaves the node. A received batch is
// decoded whole before anything in it is admitted (a malformed one is
// dropped), then each tx goes through the seen-set and the mempool. In a full
// mesh (peer_ids().size() + 1 == node_count) the submitter's fan-out already
// reaches every replica, so a "txs" goes no further: 3 frames per batch on 4
// nodes. In a partial mesh a "txs" goes on when it admitted something.
// Repair: an own submission still in the mempool is due once it has waited
// 2 * block_interval, about two blocks' time. Due txs are published once,
// together, as a "txr" batch, which a peer admits and sends on when any of
// its txs is then in that peer's mempool, so a cut submitter<->producer link
// is routed around in one hop. The check runs after every connected block
// and, for PBFT, on every sync tick too: a PBFT cluster with nothing else to
// propose connects no block, and the repair must not wait for one.
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
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pbft.hpp"
#include "core/persistent_node.hpp"
#include "ledger/mempool.hpp"
#include "ledger/validation.hpp"
#include "net/relay.hpp"
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

class Replica : private consensus::NakamotoEngine::ChainState {
public:
    /// Opens (or recovers) the durable node under config.data_dir and
    /// installs the transport handler. Timers start at start().
    Replica(net::transport::Transport& transport, ReplicaConfig config);

    /// Arm the engine timers (mining / proposal / catch-up probes).
    void start();
    /// Send the pending own-submission batch, cancel timers and stop reacting
    /// to messages. The durable node needs no flush — every connect was
    /// WAL-committed when it happened.
    void stop();

    /// Inject a locally submitted transaction: mempool admission, gossip to
    /// every peer in the next batch, and lifecycle stamping for confirmation
    /// latency. Returns false when the mempool refused it, or when it alone
    /// outgrows max_block_bytes (no batch, and so no block, can carry it).
    bool submit_transaction(const ledger::Transaction& tx);

    // --- Inspection (transport thread, or any thread after stop()) -----------
    const Hash256& tip() const { return node_.tip(); }
    std::uint64_t height() const { return node_.height(); }
    /// PBFT view (0 for Nakamoto).
    std::uint32_t view() const { return pbft_ ? pbft_->view() : 0; }
    /// Non-coinbase transactions on the canonical chain.
    std::uint64_t confirmed_txs() const { return confirmed_txs_; }
    /// Submit→canonical-inclusion latency of each locally submitted
    /// transaction that has confirmed, in confirmation order (seconds).
    const std::vector<double>& confirmation_latencies() const { return latencies_; }
    std::size_t mempool_size() const { return mempool_.size(); }
    /// Own submissions neither confirmed nor dropped by the mempool yet.
    std::size_t pending_submissions() const { return submitted_at_.size(); }
    /// Blocks waiting for an unknown parent (Nakamoto; 0 for PBFT).
    std::size_t orphan_blocks() const { return nakamoto_ ? nakamoto_->orphan_count() : 0; }
    PersistentNode& node() { return node_; }
    const ReplicaConfig& config() const { return config_; }

private:
    // Chain state (both engines): the PersistentNode, plus the confirmed-tx
    // count, the seen-set and the latency of own submissions.
    void connect(const ledger::Block& block) override;
    void disconnect_tip(const ledger::Block& tip) override;
    const ledger::UtxoSet& utxo() const override { return node_.utxo(); }

    // Shared paths -----------------------------------------------------------
    void on_message(net::transport::PeerId from, const std::string& topic,
                    ByteView payload);
    net::transport::PeerId random_peer();
    void arm_sync_timer();
    /// Every configured replica is a direct peer (the relay policy's switch).
    bool full_mesh() const;
    /// Send own submissions that are due for repair as "txr" batches.
    void repair_left_out();
    /// Publish the pending own-submission batch (if any).
    void flush_own();
    /// The relay's verdict on a first-seen "block", "txs" or "txr" frame.
    bool on_flood(net::transport::PeerId from, const std::string& topic, ByteView payload);
    /// Admit a received "txs"/"txr" batch; true when it goes on.
    bool receive_batch(ByteView payload, bool repair);

    // PBFT -------------------------------------------------------------------
    void pbft_propose();
    /// Connect a committed block that extends the tip; false when it does not.
    bool pbft_connect(const ledger::Block& block);

    net::transport::Transport& transport_;
    ReplicaConfig config_;
    ledger::ValidationRules rules_;
    Rng rng_;
    /// The flood every "block", "txs" and "txr" message travels on.
    net::Relay relay_;

    PersistentNode node_;
    ledger::Mempool mempool_;
    crypto::Address miner_;

    // Nakamoto chain (kNakamoto only).
    std::unique_ptr<consensus::NakamotoEngine> nakamoto_;

    // PBFT agreement (kPbft only) and the proposal tick.
    std::unique_ptr<consensus::PbftEngine> pbft_;
    std::optional<net::transport::TimerId> propose_timer_;

    std::optional<net::transport::TimerId> sync_timer_;
    bool running_ = false;

    /// Tx gossip batch under construction: the txs' encodings back to back.
    /// Every sender checks fits() first, so no payload that take() returns
    /// exceeds max_block_bytes.
    class TxBatch {
    public:
        /// Whether one more tx of `encoded_bytes` keeps the payload <= limit.
        bool fits(std::size_t encoded_bytes, std::size_t limit) const;
        void add(ByteView encoded);
        bool empty() const { return count_ == 0; }
        /// The wire payload (varint count, then the txs); empties the batch.
        Bytes take();

    private:
        Bytes body_;
        std::uint64_t count_ = 0;
    };
    TxBatch own_batch_;
    std::optional<net::transport::TimerId> batch_timer_;

    // Locally submitted transactions awaiting confirmation, by admission time
    // (for latency and the repair trigger).
    std::unordered_map<Hash256, double> submitted_at_;
    /// Own submissions in admission order; each is checked for repair once,
    /// when it falls due.
    std::deque<Hash256> repair_queue_;
    /// Every txid ever admitted or seen on a connected block. The relay
    /// deduplicates frames, not txs: one tx can arrive in its batch and again
    /// in a repair, after it confirmed (record txs carry no UTXO conflict to
    /// stop a second inclusion), so the replica suppresses re-entry itself.
    std::unordered_set<Hash256> seen_txs_;
    std::vector<double> latencies_;
    std::uint64_t confirmed_txs_ = 0;
};

} // namespace dlt::core
