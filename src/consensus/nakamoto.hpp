// Nakamoto consensus (paper §2.4: proof-of-work, and "a branch selection
// algorithm is used by peers to decide which branch to accept"), in two parts:
//  - NakamotoEngine: one node's chain — branch index, orphan walk-back,
//    longest-chain or GHOST fork choice, reorg with rollback, the Poisson
//    mining race with retargeting, and block assembly — over a
//    net::transport::Transport and a ChainState, so the deployed
//    core::Replica runs it too.
//  - NakamotoNetwork: N engines on a gossip overlay with in-memory UTXO
//    state, plus tx gossip, lifecycle stamping at peer 0, ChainEvents, stats
//    and inspection. Drives E01-E03, E14, E22, E24, E25, E27 and the attacks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/events.hpp"
#include "crypto/keys.hpp"
#include "ledger/chain.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "net/gossip.hpp"
#include "net/network.hpp"
#include "net/transport/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/txlifecycle.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

/// Branch-selection policy (paper §2.4: "a branch selection algorithm is used
/// by peers to decide which branch to accept").
enum class BranchRule { kLongestChain, kGhost };

struct NakamotoParams {
    std::size_t node_count = 16;
    /// Expected seconds between blocks network-wide (Bitcoin: 600, Ethereum: ~15).
    double block_interval = 600.0;
    BranchRule branch_rule = BranchRule::kLongestChain;
    std::size_t max_block_bytes = 1'000'000;
    std::size_t max_block_txs = 10'000;
    ledger::ValidationRules validation{};
    net::GossipParams gossip{};
    net::LinkParams link{};
    std::size_t overlay_degree = 4;
    /// Per-peer mempool policy (bounds, relay floor, expiry, RBF bump). The
    /// default reproduces the historical greedy pool exactly.
    ledger::MempoolConfig mempool{};
    /// Relative hash power per node; empty means uniform. Normalized internally.
    std::vector<double> hashrate_shares;
    std::string chain_tag = "nakamoto";

    /// Difficulty retargeting (the mechanism that keeps Bitcoin's interval at
    /// 10 minutes no matter how much hash power joins — E2's flat-scaling
    /// claim). When disabled, difficulty stays at genesis bits.
    bool enable_retargeting = false;
    ledger::RetargetParams retarget{};

    /// Confirmations needed before the lifecycle tracker stamps a transaction
    /// k-deep-final (the k of §2.4's probabilistic finality).
    std::uint64_t finality_depth = 6;
};

/// One engine's counts (NakamotoNetwork::stats() sums every peer's). Mirrored
/// into the global MetricsRegistry (consensus_blocks_mined_total,
/// consensus_reorgs_total, consensus_invalid_blocks_total).
struct NakamotoStats {
    std::uint64_t blocks_mined = 0;
    std::uint64_t reorgs = 0;
    std::uint64_t invalid_blocks = 0;
};

/// One node's Nakamoto chain, on the transport's callback thread. Topics:
/// "block" (flood), "d/getblock" / "d/block" / "d/notfound" (ancestor
/// fetch) and "gettip" (the catch-up probe). Only a ValidationError from
/// ChainState::connect is a verdict on a block.
class NakamotoEngine {
public:
    using PeerId = net::transport::PeerId;

    /// The state the active chain is applied to: an in-memory UTXO set in
    /// the simulator, core::PersistentNode in a deployed replica.
    class ChainState {
    public:
        virtual ~ChainState() = default;
        /// Apply `block` on the tip, or throw and leave the state unchanged:
        /// ValidationError when the block is invalid there, anything else
        /// for a fault of the state itself (a disk error).
        virtual void connect(const ledger::Block& block) = 0;
        virtual void disconnect_tip(const ledger::Block& tip) = 0;
        virtual const ledger::UtxoSet& utxo() const = 0; // at the tip
    };

    /// What the engine asks of its owner. Every hook may be empty.
    struct Hooks {
        /// Publish an own block (mined, or released by publish()). A
        /// received block goes on through the owner's relay, by handle()'s
        /// verdict.
        std::function<void(const ledger::Block&)> flood;
        /// An own block was mined; false withholds it (indexed locally only,
        /// until publish()).
        std::function<bool(const ledger::Block&)> mined;
        std::function<void(const ledger::Block&)> inserted; // joined the index
        /// The active tip moved (disconnected old tip first, connected oldest
        /// first).
        std::function<void(const std::vector<Hash256>& disconnected,
                           const std::vector<Hash256>& connected)>
            reorged;
    };

    /// Orphans (blocks whose parent is unknown) kept at most. A full pool
    /// drops the orphans of the parent waited for longest, with that parent's
    /// fetch marker; a marker exists only for a parent some orphan waits for,
    /// so in-flight fetches stay under the same bound.
    static constexpr std::size_t kMaxOrphans = 1024;

    /// `params` supplies the interval, branch rule, block limits, validation
    /// rules and retargeting; `hashrate_share` is this node's fraction of the
    /// network's hash power (0: never mines).
    NakamotoEngine(net::transport::Transport& transport, const NakamotoParams& params,
                   const ledger::Block& genesis, double hashrate_share,
                   crypto::Address miner, Rng rng, ChainState& state,
                   ledger::Mempool& mempool, Hooks hooks);
    // Timers hold `this`.
    NakamotoEngine(const NakamotoEngine&) = delete;
    NakamotoEngine& operator=(const NakamotoEngine&) = delete;

    /// Index a block the state already holds on the active tip (a restarted
    /// node's recovered chain).
    void adopt_connected(const ledger::Block& block);

    void start(); // mining
    void stop();

    /// Handle one message; malformed payloads are dropped. Returns the relay
    /// verdict: true when it carried a block that joined the index.
    bool handle(PeerId from, const std::string& topic, ByteView payload);

    /// Re-ask a random peer for every orphan's parent and for its tip: the
    /// deployed catch-up after lost frames, a restart or a partition.
    void sync_probe();

    /// Flood an indexed block as an own block (releases a withheld one).
    void publish(const Hash256& hash);

    /// Scale the network's hash power; mining is re-aimed at the new rate.
    void set_network_hashrate(double multiplier);
    /// Difficulty bits a block extending `tip` must carry.
    std::uint32_t next_bits(const Hash256& tip) const;

    const ledger::ChainStore& chain() const { return chain_; }
    const Hash256& tip() const { return active_tip_; }
    std::uint64_t height() const { return chain_.find(active_tip_)->height; }
    const crypto::Address& miner() const { return miner_; }
    const NakamotoStats& stats() const { return stats_; }
    std::size_t orphan_count() const { return orphan_count_; }

private:
    /// Index a block from `from` (the local id for an own block), or hold it
    /// as an orphan and ask `from` for its parent: the walk-back goes one hop
    /// per round trip until the branch roots in the index. True when the
    /// block joined the index.
    bool accept(const ledger::Block& block, PeerId from);
    void hold_orphan(const ledger::Block& block, const Hash256& hash);
    void request_block(const Hash256& hash, PeerId from);
    /// `from` lacks `hash`: while an orphan still waits for it, ask the peer
    /// after `from` in peer_ids(), at most once around.
    void refetch(const Hash256& hash, PeerId from);
    /// Index `block` and every orphan it unblocks, then re-select the tip.
    void insert_and_update(const ledger::Block& block);
    void update_active_tip();
    bool path_contains_invalid(const Hash256& tip) const;
    /// True when a block of the new branch proved invalid (selection must run
    /// again). A state fault restores the old tip and returns false.
    bool reorg_to(const Hash256& new_tip);
    /// Apply one indexed block to the state and the mempool, or undo it.
    void connect_block(const Hash256& hash);
    void disconnect_block(const Hash256& hash);
    void schedule_mining();
    void mine();
    ledger::Block assemble_block();

    net::transport::Transport& transport_;
    NakamotoParams params_;
    std::uint32_t genesis_bits_;
    double hashrate_share_;
    crypto::Address miner_;
    Rng rng_;
    ChainState& state_;
    ledger::Mempool& mempool_;
    Hooks hooks_;

    ledger::ChainStore chain_;
    Hash256 active_tip_;
    std::unordered_set<Hash256> invalid_;
    struct OrphanGroup {
        std::uint64_t arrival = 0; // of the group's first block
        std::vector<ledger::Block> blocks;
    };
    std::unordered_map<Hash256, OrphanGroup> orphans_; // by parent
    std::map<std::uint64_t, Hash256> orphan_parents_;  // by arrival: eviction order
    std::uint64_t orphan_arrivals_ = 0;
    std::size_t orphan_count_ = 0;
    std::unordered_set<Hash256> requested_; // parents of orphan groups asked for
    /// Parents re-asked after a "d/notfound", with the number of answers.
    std::unordered_map<Hash256, std::size_t> refetches_;
    std::optional<net::transport::TimerId> mining_timer_;
    double network_hashrate_ = 1.0;
    NakamotoStats stats_;

    obs::Counter* blocks_mined_ = nullptr;   // consensus_blocks_mined_total
    obs::Counter* reorgs_ = nullptr;         // consensus_reorgs_total
    obs::Counter* invalid_blocks_ = nullptr; // consensus_invalid_blocks_total
};

// ChainEvents (the per-peer observer hook set) lives in consensus/events.hpp,
// shared with the DAG ledger.

class NakamotoNetwork {
public:
    explicit NakamotoNetwork(NakamotoParams params, std::uint64_t seed);

    /// Begin mining at every node.
    void start();

    /// Advance virtual time.
    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Inject a signed transaction at `origin`; it gossips to all peers.
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin = 0);

    /// Mined-block interposition hook for attack strategies. Invoked after a
    /// node assembles a block, before it is broadcast. Returning true keeps
    /// the honest path (broadcast + local adoption via gossip). Returning
    /// false *withholds* the block: it is inserted into the miner's own chain
    /// only (the miner keeps extending its private fork), and the strategy
    /// decides when — if ever — to release it via publish_block(). Pass
    /// nullptr to restore honest behaviour for every node.
    using MinedBlockHook = std::function<bool(net::NodeId, const ledger::Block&)>;
    void set_mined_block_hook(MinedBlockHook hook) { mined_hook_ = std::move(hook); }

    /// Broadcast a block already stored in `node`'s chain (the release half of
    /// a withhold/release strategy). No-op semantics match normal gossip:
    /// peers that already have the block deduplicate it.
    void publish_block(net::NodeId node, const Hash256& hash);

    /// Gossip overlay (attack drivers install relay filters / send direct
    /// block pushes through this).
    net::GossipOverlay& gossip() { return *gossip_; }

    /// Scale total network hash power (1.0 = one block per block_interval at
    /// genesis difficulty). With retargeting enabled, the interval recovers
    /// after the next adjustment; without it, blocks stay proportionally
    /// faster — the experiment behind §2.7's scalability observation.
    void set_network_hashrate(double multiplier);
    double network_hashrate() const { return network_hashrate_; }

    /// Difficulty bits a block extending `tip` must carry (per the retarget
    /// schedule; genesis bits when retargeting is off).
    std::uint32_t next_bits(net::NodeId node, const Hash256& tip) const;

    /// Observed mean block interval over the last `window` blocks of the
    /// canonical chain (timestamp deltas).
    std::optional<double> observed_interval(std::size_t window = 32) const;

    // --- Inspection -------------------------------------------------------------

    std::size_t node_count() const { return peers_.size(); }

    /// Active tip of one peer.
    const Hash256& tip_of(net::NodeId node) const;

    /// Chain height at one peer's active tip.
    std::uint64_t height_of(net::NodeId node) const;

    /// True when every peer's active tip is identical.
    bool converged() const;

    /// The tip held by a strict majority of peers (nullopt when none).
    std::optional<Hash256> majority_tip() const;

    /// Blocks on peer-0's active chain, excluding genesis.
    std::vector<ledger::Block> canonical_chain() const;

    /// Total non-coinbase transactions confirmed on peer-0's active chain.
    std::uint64_t confirmed_tx_count() const;

    /// Stale blocks known to peer 0 (mined but not on its active chain).
    std::size_t stale_blocks() const;
    /// Stale fraction: stale / total mined (the consistency cost in E3).
    double stale_rate() const;

    /// Depth (confirmations) of the block containing `txid` at peer 0, nullopt
    /// while unconfirmed.
    std::optional<std::uint64_t> confirmations_of(const Hash256& txid) const;

    /// Totals over every peer's engine.
    NakamotoStats stats() const;
    const net::TrafficStats& traffic() const { return network_->stats(); }

    /// Transaction lifecycle telemetry (submit → first-seen → mempool →
    /// inclusion → k-deep-final), observed from peer 0's chain.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }

    /// Observer hooks for one peer's chain events (see ChainEvents). Any node
    /// may be observed; an observer set is materialized on first access.
    /// Defaults to peer 0, the historically observed replica.
    ChainEvents& events(net::NodeId node = 0) { return observers_[node]; }
    /// Underlying simulated network (fault injection: apply a FaultPlan,
    /// partition/heal, churn).
    net::Network& network() { return *network_; }
    const ledger::ChainStore& chain_of(net::NodeId node) const;
    /// One peer's mempool (admission stats, fee-rate floor, resident size) —
    /// how fee-bidding wallets in the workload engine read the market.
    const ledger::Mempool& mempool_of(net::NodeId node) const;
    const ledger::UtxoSet& utxo_of(net::NodeId node) const;
    const crypto::Address& miner_address(net::NodeId node) const;
    sim::Scheduler& scheduler() { return scheduler_; }

private:
    /// One simulated node: its UTXO set at the active tip with undo data per
    /// connected block (the engine's chain state), its mempool and its
    /// engine, which runs over the node's overlay endpoint.
    struct Peer final : NakamotoEngine::ChainState {
        void connect(const ledger::Block& block) override;
        void disconnect_tip(const ledger::Block& tip) override;
        const ledger::UtxoSet& utxo() const override { return utxo_set; }

        const ledger::ValidationRules* rules = nullptr;
        ledger::UtxoSet utxo_set;
        std::unordered_map<Hash256, ledger::UtxoUndo> undo;
        ledger::Mempool mempool;
        std::unique_ptr<NakamotoEngine> engine;
    };

    void on_gossip(net::NodeId node, net::NodeId from, const std::string& topic,
                   ByteView payload);
    NakamotoEngine::Hooks engine_hooks(net::NodeId node);
    void on_reorg(net::NodeId node, const std::vector<Hash256>& disconnected,
                  const std::vector<Hash256>& connected);
    /// Observer set for `node`, or nullptr when none was registered.
    ChainEvents* find_events(net::NodeId node);

    NakamotoParams params_;
    MinedBlockHook mined_hook_;
    double network_hashrate_ = 1.0;
    sim::Scheduler scheduler_;
    Rng rng_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<net::GossipOverlay> gossip_;
    std::deque<Peer> peers_; // engines hold references into their Peer
    ledger::Block genesis_;
    obs::TxLifecycleTracker lifecycle_;
    /// Per-node chain-event observers, materialized on first events() access.
    std::unordered_map<net::NodeId, ChainEvents> observers_;
};

} // namespace dlt::consensus
