#include "consensus/nakamoto.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "consensus/pow.hpp"
#include "ledger/difficulty.hpp"

namespace dlt::consensus {

using ledger::Block;
using ledger::Transaction;
using net::NodeId;
using net::transport::PeerId;

namespace {

crypto::U256 block_work(const Block& block) {
    return ledger::work_from_target(ledger::compact_to_target(block.header.bits));
}

} // namespace

// --- NakamotoEngine ---------------------------------------------------------

NakamotoEngine::NakamotoEngine(net::transport::Transport& transport,
                               const NakamotoParams& params, const Block& genesis,
                               double hashrate_share, crypto::Address miner, Rng rng,
                               ChainState& state, ledger::Mempool& mempool, Hooks hooks)
    : transport_(transport),
      params_(params),
      genesis_bits_(genesis.header.bits),
      hashrate_share_(hashrate_share),
      miner_(std::move(miner)),
      rng_(std::move(rng)),
      state_(state),
      mempool_(mempool),
      hooks_(std::move(hooks)),
      chain_(genesis),
      active_tip_(genesis.hash()) {
    auto& registry = obs::MetricsRegistry::global();
    blocks_mined_ = &registry.counter("consensus_blocks_mined_total",
                                      "Blocks mined across all peers");
    reorgs_ = &registry.counter("consensus_reorgs_total",
                                "Reorganizations across all peers");
    invalid_blocks_ = &registry.counter("consensus_invalid_blocks_total",
                                        "Blocks rejected during connect");
}

void NakamotoEngine::adopt_connected(const Block& block) {
    DLT_EXPECTS(block.header.prev_hash == active_tip_);
    chain_.insert(block, block_work(block));
    active_tip_ = block.hash();
}

void NakamotoEngine::start() { schedule_mining(); }

void NakamotoEngine::stop() {
    if (mining_timer_) transport_.cancel_timer(*mining_timer_);
    mining_timer_.reset();
}

bool NakamotoEngine::handle(PeerId from, const std::string& topic, ByteView payload) {
    if (topic == "block" || topic == "d/block") {
        try {
            return accept(decode_from_bytes<Block>(payload), from);
        } catch (const DecodeError&) {
            return false; // undecodable block: dropped, as a real peer would
        }
    }
    if (topic == "d/getblock") {
        // Serve one block by hash so the asker's walk-back makes progress,
        // or say we lack it so the asker may try elsewhere.
        if (payload.size() != 32) return false;
        const Hash256 want = Hash256::from_bytes(payload);
        if (const auto* entry = chain_.find(want))
            transport_.send(from, "d/block", ByteView(encode_to_bytes(entry->block)));
        else
            transport_.send(from, "d/notfound", want.view());
        return false;
    }
    if (topic == "d/notfound") {
        if (payload.size() == 32) refetch(Hash256::from_bytes(payload), from);
        return false;
    }
    if (topic == "gettip") {
        if (active_tip_ != chain_.genesis_hash())
            transport_.send(from, "d/block",
                            ByteView(encode_to_bytes(chain_.find(active_tip_)->block)));
    }
    return false;
}

bool NakamotoEngine::accept(const Block& block, PeerId from) {
    const Hash256 hash = block.hash();
    if (chain_.contains(hash)) return false;
    try {
        ledger::check_block_structure(block, params_.validation);
    } catch (const ValidationError&) {
        return false; // malformed whatever its context: never indexed
    }
    if (!chain_.contains(block.header.prev_hash)) {
        hold_orphan(block, hash);
        request_block(block.header.prev_hash, from);
        return false;
    }
    if (block.header.bits != next_bits(block.header.prev_hash)) return false; // forged work
    insert_and_update(block);
    return true;
}

void NakamotoEngine::hold_orphan(const Block& block, const Hash256& hash) {
    const Hash256& parent = block.header.prev_hash;
    if (const auto known = orphans_.find(parent);
        known != orphans_.end() &&
        std::ranges::any_of(known->second.blocks, [&](const Block& b) { return b.hash() == hash; }))
        return;
    if (orphan_count_ >= kMaxOrphans) {
        // Full: drop the group waited for longest, with its fetch marker.
        const auto oldest = orphan_parents_.begin();
        const auto dropped = orphans_.find(oldest->second);
        orphan_count_ -= dropped->second.blocks.size();
        requested_.erase(oldest->second);
        refetches_.erase(oldest->second);
        orphans_.erase(dropped);
        orphan_parents_.erase(oldest);
    }
    auto [group, fresh] = orphans_.try_emplace(parent);
    if (fresh) {
        group->second.arrival = orphan_arrivals_++;
        orphan_parents_.emplace(group->second.arrival, parent);
    }
    group->second.blocks.push_back(block);
    ++orphan_count_;
}

void NakamotoEngine::request_block(const Hash256& hash, PeerId from) {
    if (from == transport_.local_id()) return; // locally injected: nobody to ask
    if (!requested_.insert(hash).second) return; // already in flight
    transport_.send(from, "d/getblock", hash.view());
}

void NakamotoEngine::refetch(const Hash256& hash, PeerId from) {
    // Clear the in-flight marker so a later arrival asks its sender too.
    requested_.erase(hash);
    const auto peers = transport_.peer_ids();
    if (!orphans_.contains(hash) || peers.empty()) return;
    if (++refetches_[hash] >= peers.size()) { // every peer was asked
        refetches_.erase(hash);
        return;
    }
    const auto at = std::find(peers.begin(), peers.end(), from);
    transport_.send(at == peers.end() || at + 1 == peers.end() ? peers.front() : *(at + 1),
                    "d/getblock", hash.view());
}

void NakamotoEngine::insert_and_update(const Block& block) {
    // Insert the block and any orphans it unblocks (depth first).
    std::vector<Block> pending{block};
    while (!pending.empty()) {
        const Block current = std::move(pending.back());
        pending.pop_back();
        const Hash256 hash = current.hash();
        requested_.erase(hash); // a pending ancestor fetch is satisfied
        refetches_.erase(hash);
        if (!chain_.contains(hash)) {
            // An orphan whose difficulty is wrong for its parent claims work
            // it was not mined at: never indexed.
            if (current.header.bits != next_bits(current.header.prev_hash)) continue;
            chain_.insert(current, block_work(current), transport_.now());
            if (hooks_.inserted) hooks_.inserted(current);
        }
        if (const auto it = orphans_.find(hash); it != orphans_.end()) {
            orphan_count_ -= it->second.blocks.size();
            orphan_parents_.erase(it->second.arrival);
            for (auto& orphan : it->second.blocks) pending.push_back(std::move(orphan));
            orphans_.erase(it);
        }
    }
    update_active_tip();
}

bool NakamotoEngine::path_contains_invalid(const Hash256& tip) const {
    if (invalid_.empty()) return false;
    for (const auto& hash : chain_.path_from_genesis(tip))
        if (invalid_.contains(hash)) return true;
    return false;
}

void NakamotoEngine::update_active_tip() {
    for (;;) {
        const Hash256 best = params_.branch_rule == BranchRule::kGhost
                                 ? chain_.best_tip_by_ghost()
                                 : chain_.best_tip_by_work();
        if (best == active_tip_) return;
        if (path_contains_invalid(best)) {
            // Fall back to the most-work leaf whose branch is valid.
            Hash256 fallback = active_tip_;
            crypto::U256 fallback_work = chain_.find(active_tip_)->cumulative_work;
            for (const auto& leaf : chain_.leaves()) {
                if (path_contains_invalid(leaf)) continue;
                const auto* entry = chain_.find(leaf);
                if (entry->cumulative_work > fallback_work) {
                    fallback = leaf;
                    fallback_work = entry->cumulative_work;
                }
            }
            if (fallback != active_tip_) reorg_to(fallback);
            return;
        }
        // An invalid block is marked and selection runs again; a state fault
        // leaves the branch eligible for the next block or probe.
        if (!reorg_to(best)) return;
    }
}

bool NakamotoEngine::reorg_to(const Hash256& new_tip) {
    const auto path = chain_.reorg_path(active_tip_, new_tip);
    if (!path.disconnect.empty()) {
        ++stats_.reorgs;
        reorgs_->inc();
    }

    // Disconnect the old branch (tip first), its txs back to the mempool,
    // then connect the new one (oldest first).
    std::vector<Hash256> disconnected;
    std::vector<Hash256> connected;
    const auto restore = [&] {
        for (auto it = connected.rbegin(); it != connected.rend(); ++it) disconnect_block(*it);
        for (auto it = disconnected.rbegin(); it != disconnected.rend(); ++it)
            connect_block(*it);
    };
    try {
        for (const auto& hash : path.disconnect) {
            disconnect_block(hash);
            disconnected.push_back(hash);
        }
        for (const auto& hash : path.connect) {
            connect_block(hash);
            connected.push_back(hash);
        }
    } catch (const ValidationError&) {
        DLT_INVARIANT(disconnected.size() == path.disconnect.size());
        ++stats_.invalid_blocks;
        invalid_blocks_->inc();
        invalid_.insert(path.connect[connected.size()]);
        restore();
        return true;
    } catch (const std::exception& e) {
        DLT_LOG(kWarn, "consensus") << "reorg halted by a state fault: " << e.what();
        restore();
        return false;
    }
    active_tip_ = new_tip;

    // Observers fire only after the reorg fully succeeded.
    if (hooks_.reorged) hooks_.reorged(path.disconnect, connected);
    schedule_mining(); // re-aim mining at the new tip
    return false;
}

void NakamotoEngine::connect_block(const Hash256& hash) {
    const Block& block = chain_.find(hash)->block;
    state_.connect(block);
    mempool_.remove_confirmed(block.txids());
}

void NakamotoEngine::disconnect_block(const Hash256& hash) {
    const Block& block = chain_.find(hash)->block;
    state_.disconnect_tip(block);
    mempool_.add_back(block.txs, transport_.now());
}

void NakamotoEngine::sync_probe() {
    const auto peers = transport_.peer_ids();
    if (peers.empty()) return;
    const auto random_peer = [&] { return peers[rng_.index(peers.size())]; };
    // Re-issue fetches that went unanswered (lost frame, peer was down).
    requested_.clear();
    refetches_.clear();
    for (const auto& [arrival, parent] : orphan_parents_) request_block(parent, random_peer());
    transport_.send(random_peer(), "gettip", ByteView());
}

void NakamotoEngine::publish(const Hash256& hash) {
    const auto* entry = chain_.find(hash);
    DLT_EXPECTS(entry != nullptr);
    if (hooks_.flood) hooks_.flood(entry->block);
}

void NakamotoEngine::set_network_hashrate(double multiplier) {
    DLT_EXPECTS(multiplier > 0);
    network_hashrate_ = multiplier;
    // Exponentials are memoryless: re-draw at the new rate.
    if (mining_timer_) schedule_mining();
}

std::uint32_t NakamotoEngine::next_bits(const Hash256& tip) const {
    if (!params_.enable_retargeting) return genesis_bits_;
    const auto* entry = chain_.find(tip);
    DLT_EXPECTS(entry != nullptr);
    const std::uint64_t next_height = entry->height + 1;
    if (next_height % params_.retarget.interval_blocks != 0)
        return entry->block.header.bits;

    // Actual time the last interval took, from block timestamps. Walk back
    // `interval_blocks` parents so the window spans interval_blocks gaps
    // (avoiding Bitcoin's famous off-by-one, which at our short retarget
    // windows would bias difficulty ~12% high).
    const Hash256 first = chain_.ancestor(tip, params_.retarget.interval_blocks);
    const auto* first_entry = chain_.find(first);
    const std::uint64_t gaps = entry->height - first_entry->height;
    if (gaps == 0) return entry->block.header.bits;
    double actual = entry->block.header.timestamp - first_entry->block.header.timestamp;
    // Normalize to a full window when clipped at genesis.
    actual *= static_cast<double>(params_.retarget.interval_blocks) /
              static_cast<double>(gaps);
    if (actual <= 0) return entry->block.header.bits;
    return ledger::retarget(entry->block.header.bits, actual, params_.retarget);
}

void NakamotoEngine::schedule_mining() {
    if (hashrate_share_ <= 0) return;
    if (mining_timer_) transport_.cancel_timer(*mining_timer_);
    // Expected network interval scales with the current difficulty relative to
    // genesis, and inversely with total hash power.
    double interval = params_.block_interval / network_hashrate_;
    if (params_.enable_retargeting) {
        const auto to_double = [](const crypto::U256& v) {
            double out = 0;
            for (int i = 3; i >= 0; --i)
                out = out * 18446744073709551616.0 +
                      static_cast<double>(v.limbs[static_cast<std::size_t>(i)]);
            return out;
        };
        const auto genesis_target = ledger::compact_to_target(genesis_bits_);
        const auto current_target = ledger::compact_to_target(next_bits(active_tip_));
        // difficulty ratio = genesis_target / current_target (smaller target =
        // harder); double precision is ample for interval scaling.
        interval *= to_double(genesis_target) / to_double(current_target);
    }
    const double delay = sample_block_time(hashrate_share_, interval, rng_);
    mining_timer_ = transport_.schedule_after(delay, [this] { mine(); });
}

void NakamotoEngine::mine() {
    mining_timer_.reset();
    const Block block = assemble_block();
    ++stats_.blocks_mined;
    blocks_mined_->inc();
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.instant("block.mined", "consensus", transport_.now(), transport_.local_id(),
                       {{"height", obs::trace_arg(block.header.height)},
                        {"txs", obs::trace_arg(static_cast<std::uint64_t>(
                             block.txs.size()))}});
    }
    if (hooks_.mined && !hooks_.mined(block)) {
        // Withheld: the miner adopts the block privately (it has the most
        // work locally, so mining continues on the secret fork) and nothing
        // is sent. publish() releases it.
        insert_and_update(block);
    } else {
        // The miner adopts its own block like any other (the reorg re-aims
        // mining), then floods it.
        if (accept(block, transport_.local_id()) && hooks_.flood) hooks_.flood(block);
    }
    schedule_mining();
}

Block NakamotoEngine::assemble_block() {
    ledger::BlockHeader header;
    header.prev_hash = active_tip_;
    header.height = height() + 1;
    header.timestamp = transport_.now();
    header.bits = next_bits(active_tip_);
    header.nonce = rng_.next(); // simulated proof (see DESIGN.md)
    header.proposer = miner_;
    return ledger::assemble_block(header, mempool_, state_.utxo(), params_.max_block_bytes,
                                  params_.max_block_txs);
}

// --- NakamotoNetwork --------------------------------------------------------

void NakamotoNetwork::Peer::connect(const Block& block) {
    undo.emplace(block.hash(), ledger::connect_block(block, utxo_set, *rules));
}

void NakamotoNetwork::Peer::disconnect_tip(const Block& tip) {
    const auto it = undo.find(tip.hash());
    DLT_INVARIANT(it != undo.end());
    utxo_set.undo_block(it->second);
    undo.erase(it);
}

NakamotoNetwork::NakamotoNetwork(NakamotoParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      lifecycle_(params_.finality_depth, &obs::Tracer::global()) {
    DLT_EXPECTS(params_.node_count >= 2);
    DLT_EXPECTS(params_.block_interval > 0);

    genesis_ = ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1));

    network_ = std::make_unique<net::Network>(scheduler_, rng_.fork(0xA));
    gossip_ = std::make_unique<net::GossipOverlay>(
        *network_, params_.node_count, params_.gossip,
        [this](NodeId node, NodeId from, const std::string& topic,
               ByteView payload) { on_gossip(node, from, topic, payload); });
    network_->build_unstructured_overlay(params_.overlay_degree, params_.link);

    // Normalize hash power.
    std::vector<double> shares = params_.hashrate_shares;
    if (shares.empty()) shares.assign(params_.node_count, 1.0);
    DLT_EXPECTS(shares.size() == params_.node_count);
    double total = 0;
    for (const double s : shares) total += s;
    DLT_EXPECTS(total > 0);

    for (NodeId i = 0; i < params_.node_count; ++i) {
        Peer& peer = peers_.emplace_back();
        peer.rules = &params_.validation;
        peer.mempool = ledger::Mempool(params_.mempool);
        peer.engine = std::make_unique<NakamotoEngine>(
            gossip_->endpoint(i), params_, genesis_, shares[i] / total,
            crypto::PrivateKey::from_seed(params_.chain_tag + "/miner/" + std::to_string(i))
                .address(),
            rng_.fork(0x100 + i), peer, peer.mempool, engine_hooks(i));
    }

    // Peer 0 is the observed replica: its mempool drops become explicit
    // lifecycle terminal events (reasons share the enumeration order).
    peers_[0].mempool.set_drop_observer(
        [this](const Hash256& txid, ledger::MempoolDropReason reason, SimTime at) {
            lifecycle_.on_dropped(
                txid, 0, at,
                static_cast<obs::TxDropReason>(static_cast<std::uint8_t>(reason)));
        });
}

NakamotoEngine::Hooks NakamotoNetwork::engine_hooks(NodeId node) {
    NakamotoEngine::Hooks hooks;
    hooks.flood = [this, node](const Block& block) {
        gossip_->broadcast(node, "block", encode_to_bytes(block));
    };
    hooks.mined = [this, node](const Block& block) {
        return !mined_hook_ || mined_hook_(node, block);
    };
    hooks.inserted = [this, node](const Block& block) {
        if (ChainEvents* ev = find_events(node); ev != nullptr && ev->on_block_inserted)
            ev->on_block_inserted(block, scheduler_.now());
    };
    hooks.reorged = [this, node](const std::vector<Hash256>& disconnected,
                                 const std::vector<Hash256>& connected) {
        on_reorg(node, disconnected, connected);
    };
    return hooks;
}

void NakamotoNetwork::on_reorg(NodeId node, const std::vector<Hash256>& disconnected,
                               const std::vector<Hash256>& connected) {
    // Peer 0 is the lifecycle-observed replica; chain events go to whichever
    // nodes registered an observer set.
    const ledger::ChainStore& chain = peers_[node].engine->chain();
    const SimTime at = scheduler_.now();
    const std::uint64_t tip_height = peers_[node].engine->height();
    if (node == 0) {
        for (const auto& hash : disconnected) {
            const auto* entry = chain.find(hash);
            lifecycle_.on_block_disconnected(entry->height, entry->block.txids());
        }
        for (const auto& hash : connected) {
            const auto* entry = chain.find(hash);
            lifecycle_.on_block_connected(entry->height, entry->block.txids(), at);
        }
        lifecycle_.on_tip_height(tip_height, at);
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled() && !disconnected.empty()) {
            tracer.instant("chain.reorg", "consensus", at, node,
                           {{"depth", obs::trace_arg(static_cast<std::uint64_t>(
                                 disconnected.size()))},
                            {"connected", obs::trace_arg(static_cast<std::uint64_t>(
                                 connected.size()))}});
        }
    }
    if (ChainEvents* ev = find_events(node); ev != nullptr) {
        if (ev->on_reorg) ev->on_reorg(disconnected, connected, at);
        if (ev->on_tip_changed) ev->on_tip_changed(peers_[node].engine->tip(), tip_height, at);
    }
}

void NakamotoNetwork::start() {
    for (auto& peer : peers_) peer.engine->start();
}

void NakamotoNetwork::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void NakamotoNetwork::submit_transaction(const Transaction& tx, NodeId origin) {
    lifecycle_.on_submitted(tx.txid(), scheduler_.now(), origin);
    gossip_->broadcast(origin, "tx", encode_to_bytes(tx));
}

void NakamotoNetwork::on_gossip(NodeId node, NodeId from, const std::string& topic,
                                ByteView payload) {
    // Stamp log lines emitted while handling this delivery with the virtual
    // time and acting node, so interleaved multi-node logs stay attributable.
    const ScopedLogTime log_time(scheduler_.now());
    const ScopedLogNode log_node(node);
    if (topic != "tx") {
        peers_[node].engine->handle(from, topic, payload);
        return;
    }
    try {
        auto tx = decode_from_bytes<Transaction>(payload);
        // Lifecycle stamps are no-ops for untracked ids; the txid is
        // computed by mempool admission anyway (cached), so this is cheap.
        const Hash256 txid = tx.txid();
        if (node != from) lifecycle_.on_first_seen(txid, node, scheduler_.now());
        const ledger::AdmissionResult verdict =
            peers_[node].mempool.admit(std::move(tx), scheduler_.now());
        if (verdict == ledger::AdmissionResult::kAccepted ||
            verdict == ledger::AdmissionResult::kRbfReplaced)
            lifecycle_.on_mempool_accepted(txid, node, scheduler_.now());
    } catch (const Error&) {
        // Undecodable gossip is dropped silently, as a real peer would.
    }
}

void NakamotoNetwork::set_network_hashrate(double multiplier) {
    DLT_EXPECTS(multiplier > 0);
    network_hashrate_ = multiplier;
    for (auto& peer : peers_) peer.engine->set_network_hashrate(multiplier);
}

std::uint32_t NakamotoNetwork::next_bits(NodeId node, const Hash256& tip) const {
    return peers_.at(node).engine->next_bits(tip);
}

std::optional<double> NakamotoNetwork::observed_interval(std::size_t window) const {
    const ledger::ChainStore& chain = chain_of(0);
    const auto path = chain.path_from_genesis(tip_of(0));
    if (path.size() < 3) return std::nullopt;
    const std::size_t take = std::min(window + 1, path.size());
    const auto& newest = chain.find(path.back())->block.header;
    const auto& oldest = chain.find(path[path.size() - take])->block.header;
    return (newest.timestamp - oldest.timestamp) / static_cast<double>(take - 1);
}

void NakamotoNetwork::publish_block(NodeId node, const Hash256& hash) {
    peers_.at(node).engine->publish(hash);
}

const Hash256& NakamotoNetwork::tip_of(NodeId node) const {
    return peers_.at(node).engine->tip();
}

std::uint64_t NakamotoNetwork::height_of(NodeId node) const {
    return peers_.at(node).engine->height();
}

bool NakamotoNetwork::converged() const {
    for (NodeId i = 1; i < peers_.size(); ++i)
        if (tip_of(i) != tip_of(0)) return false;
    return true;
}

std::optional<Hash256> NakamotoNetwork::majority_tip() const {
    std::unordered_map<Hash256, std::size_t> votes;
    for (const auto& peer : peers_) ++votes[peer.engine->tip()];
    for (const auto& [tip, count] : votes)
        if (count * 2 > peers_.size()) return tip;
    return std::nullopt;
}

std::vector<Block> NakamotoNetwork::canonical_chain() const {
    const ledger::ChainStore& chain = chain_of(0);
    std::vector<Block> blocks;
    for (const auto& hash : chain.path_from_genesis(tip_of(0))) {
        if (hash == chain.genesis_hash()) continue;
        blocks.push_back(chain.find(hash)->block);
    }
    return blocks;
}

std::uint64_t NakamotoNetwork::confirmed_tx_count() const {
    std::uint64_t count = 0;
    for (const auto& block : canonical_chain())
        for (const auto& tx : block.txs)
            if (!tx.is_coinbase()) ++count;
    return count;
}

std::size_t NakamotoNetwork::stale_blocks() const {
    return chain_of(0).stale_count(tip_of(0));
}

double NakamotoNetwork::stale_rate() const {
    const std::size_t total = chain_of(0).size() - 1; // exclude genesis
    if (total == 0) return 0.0;
    return static_cast<double>(stale_blocks()) / static_cast<double>(total);
}

std::optional<std::uint64_t> NakamotoNetwork::confirmations_of(
    const Hash256& txid) const {
    const ledger::ChainStore& chain = chain_of(0);
    const std::uint64_t tip_height = height_of(0);
    for (const auto& hash : chain.path_from_genesis(tip_of(0))) {
        const auto* entry = chain.find(hash);
        for (const auto& tx : entry->block.txs)
            if (tx.txid() == txid) return tip_height - entry->height + 1;
    }
    return std::nullopt;
}

NakamotoStats NakamotoNetwork::stats() const {
    NakamotoStats total;
    for (const auto& peer : peers_) {
        const NakamotoStats& s = peer.engine->stats();
        total.blocks_mined += s.blocks_mined;
        total.reorgs += s.reorgs;
        total.invalid_blocks += s.invalid_blocks;
    }
    return total;
}

const ledger::ChainStore& NakamotoNetwork::chain_of(NodeId node) const {
    return peers_.at(node).engine->chain();
}

const ledger::Mempool& NakamotoNetwork::mempool_of(NodeId node) const {
    return peers_.at(node).mempool;
}

ChainEvents* NakamotoNetwork::find_events(NodeId node) {
    const auto it = observers_.find(node);
    return it == observers_.end() ? nullptr : &it->second;
}

const ledger::UtxoSet& NakamotoNetwork::utxo_of(NodeId node) const {
    return peers_.at(node).utxo_set;
}

const crypto::Address& NakamotoNetwork::miner_address(NodeId node) const {
    return peers_.at(node).engine->miner();
}

} // namespace dlt::consensus
