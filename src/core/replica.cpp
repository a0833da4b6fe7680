#include "core/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/keys.hpp"

namespace dlt::core {

using ledger::Block;
using ledger::Transaction;
using net::transport::PeerId;

namespace {

// Own submissions wait in a batch for at most a 64th of the block interval,
// and never longer than 5 ms: long enough for a busy node to merge several
// txs into one frame per peer, short against any block's confirmation time.
constexpr double kBatchWindowDivisor = 64.0;
constexpr double kBatchWindowCapS = 0.005;
// A PBFT primary that leaves work unordered for this many block intervals is
// voted out.
constexpr double kViewChangeIntervals = 10.0;

PersistentNodeOptions node_options(const ReplicaConfig& config) {
    PersistentNodeOptions options;
    options.state_engine = config.state_engine;
    options.fsync = config.fsync;
    return options;
}

// Wire helpers: every protocol payload is a Writer/Reader composition of the
// ledger types' own codecs.
Bytes encode_seq_block(std::uint64_t seq, const Block& block) {
    Writer w;
    w.u64(seq);
    block.encode(w);
    return std::move(w).take();
}

std::pair<std::uint64_t, Block> decode_seq_block(ByteView payload) {
    Reader r(payload);
    const std::uint64_t seq = r.u64();
    Block block = Block::decode(r);
    r.expect_done();
    return {seq, std::move(block)};
}

/// Decode a whole "txs"/"txr" payload; throws DecodeError on any defect
/// (including a payload over `limit`), so a malformed batch yields no tx.
std::vector<Transaction> decode_tx_batch(ByteView payload, std::size_t limit) {
    if (payload.size() > limit) throw DecodeError("tx batch exceeds block size");
    Reader r(payload);
    std::vector<Transaction> txs = ledger::decode_tx_list(r);
    r.expect_done();
    return txs;
}

} // namespace

bool Replica::TxBatch::fits(std::size_t encoded_bytes, std::size_t limit) const {
    return Writer::varint_size(count_ + 1) + body_.size() + encoded_bytes <= limit;
}

void Replica::TxBatch::add(ByteView encoded) {
    append(body_, encoded);
    ++count_;
}

Bytes Replica::TxBatch::take() {
    Writer w;
    w.reserve(Writer::varint_size(count_) + body_.size());
    w.varint(count_);
    w.bytes(ByteView(body_));
    body_.clear();
    count_ = 0;
    return std::move(w).take();
}

Replica::Replica(net::transport::Transport& transport, ReplicaConfig config)
    : transport_(transport),
      config_(std::move(config)),
      rng_(config_.seed + 0x9e3779b97f4a7c15ull * (transport.local_id() + 1)),
      relay_(transport_, /*fanout=*/0, rng_,
             [this](PeerId from, const std::string& topic, const Hash256&,
                    ByteView payload) { return on_flood(from, topic, payload); }),
      node_(config_.data_dir,
            ledger::make_genesis(config_.chain_tag, config_.genesis_bits),
            node_options(config_)),
      mempool_(config_.mempool),
      miner_(crypto::PrivateKey::from_seed(config_.chain_tag + "/miner/" +
                                           std::to_string(transport.local_id()))
                 .address()) {
    DLT_EXPECTS(config_.node_count >= 1);
    rules_.max_block_bytes = config_.max_block_bytes;
    rules_.max_txs_per_block = config_.max_block_txs;
    rules_.sig_mode = config_.sig_mode;

    const auto recovered = node_.chain().path_from_genesis(node_.tip());
    for (const Hash256& hash : recovered)
        for (const Transaction& tx : node_.chain().find(hash)->block.txs)
            if (!tx.is_coinbase()) {
                ++confirmed_txs_;
                seen_txs_.insert(tx.txid());
            }

    // An own submission the pool sheds unconfirmed can no longer confirm
    // here; forget it.
    mempool_.set_drop_observer(
        [this](const Hash256& txid, auto, auto) { submitted_at_.erase(txid); });

    if (config_.engine == ReplicaEngine::kNakamoto) {
        consensus::NakamotoParams params;
        params.node_count = config_.node_count;
        params.block_interval = config_.block_interval;
        params.max_block_bytes = config_.max_block_bytes;
        params.max_block_txs = config_.max_block_txs;
        params.validation = rules_;
        params.chain_tag = config_.chain_tag;
        consensus::NakamotoEngine::Hooks hooks;
        hooks.flood = [this](const Block& block) {
            relay_.publish("block", ByteView(encode_to_bytes(block)));
        };
        hooks.reorged = [this](const auto&, const auto&) { repair_left_out(); };
        nakamoto_ = std::make_unique<consensus::NakamotoEngine>(
            transport_, params, ledger::make_genesis(config_.chain_tag, config_.genesis_bits),
            1.0 / config_.node_count, miner_, rng_.fork(1), static_cast<ChainState&>(*this),
            mempool_, std::move(hooks));
        // The recovered chain is connected already: index it.
        for (const Hash256& hash : recovered)
            if (hash != node_.chain().genesis_hash())
                nakamoto_->adopt_connected(node_.chain().find(hash)->block);
    } else {
        consensus::PbftEngine::Hooks hooks;
        hooks.execute = [this](consensus::CommittedBatch batch) {
            // One encoded block per batch, at sequence == height. One that
            // does not connect is left to the catch-up probe.
            if (batch.requests.size() != 1 || batch.sequence != node_.height() + 1) return;
            try {
                pbft_connect(decode_from_bytes<Block>(ByteView(batch.requests.front())));
            } catch (const DecodeError&) {
            }
        };
        hooks.has_pending = [this] { return !mempool_.empty(); };
        pbft_ = std::make_unique<consensus::PbftEngine>(
            transport_, config_.node_count, kViewChangeIntervals * config_.block_interval,
            std::move(hooks));
        pbft_->skip_to(node_.height()); // the recovered chain is executed
        pbft_->set_active(false);        // until start()
    }

    transport_.set_handler(
        [this](PeerId from, const std::string& topic, ByteView payload) {
            try {
                on_message(from, topic, payload);
            } catch (const DecodeError&) {
                // Malformed payload from a peer: drop it, never crash.
            }
        });
}

void Replica::start() {
    if (running_) return;
    running_ = true;
    if (nakamoto_) {
        nakamoto_->start();
    } else {
        pbft_->set_active(true);
        // Every replica ticks: whichever is primary in the current view proposes.
        propose_timer_ = transport_.schedule_after(config_.block_interval,
                                                   [this] { pbft_propose(); });
    }
    arm_sync_timer();
}

void Replica::stop() {
    flush_own(); // acknowledged submissions still leave the node
    if (!running_) return;
    running_ = false;
    if (pbft_) pbft_->set_active(false);
    if (nakamoto_) nakamoto_->stop();
    if (propose_timer_) transport_.cancel_timer(*propose_timer_);
    if (sync_timer_) transport_.cancel_timer(*sync_timer_);
    propose_timer_.reset();
    sync_timer_.reset();
}

void Replica::arm_sync_timer() {
    sync_timer_ = transport_.schedule_after(config_.sync_interval, [this] {
        if (!running_) return;
        if (nakamoto_) {
            nakamoto_->sync_probe();
        } else {
            // Ask a random peer for the next committed sequence; it answers
            // only when it has one. Covers bootstrap, missed commits, rejoin.
            if (!transport_.peer_ids().empty()) {
                Writer w;
                w.u64(node_.height() + 1);
                transport_.send(random_peer(), "getseq", ByteView(w.data()));
            }
            repair_left_out(); // an idle PBFT cluster connects no block
            if (!mempool_.empty()) pbft_->arm_view_timer();
        }
        arm_sync_timer();
    });
}

bool Replica::full_mesh() const {
    return transport_.peer_ids().size() + 1 == config_.node_count;
}

PeerId Replica::random_peer() {
    const auto peers = transport_.peer_ids();
    DLT_EXPECTS(!peers.empty());
    return peers[rng_.index(peers.size())];
}

bool Replica::submit_transaction(const Transaction& tx) {
    const Hash256 txid = tx.txid();
    if (seen_txs_.contains(txid)) return false;
    const Bytes encoded = encode_to_bytes(tx);
    // No batch, and so no block, could carry it.
    if (!TxBatch{}.fits(encoded.size(), config_.max_block_bytes)) return false;
    if (!mempool_.add(tx, transport_.now())) return false;
    seen_txs_.insert(txid);
    submitted_at_.emplace(txid, transport_.now());
    repair_queue_.push_back(txid);

    if (!own_batch_.fits(encoded.size(), config_.max_block_bytes)) flush_own();
    own_batch_.add(ByteView(encoded));
    if (!running_) {
        flush_own(); // stopped (or not started): no timer would send it
    } else if (!batch_timer_) {
        const double window =
            std::min(config_.block_interval / kBatchWindowDivisor, kBatchWindowCapS);
        batch_timer_ = transport_.schedule_after(window, [this] {
            batch_timer_.reset();
            flush_own();
        });
    }
    return true;
}

void Replica::flush_own() {
    if (batch_timer_) transport_.cancel_timer(*batch_timer_);
    batch_timer_.reset();
    if (!own_batch_.empty()) relay_.publish("txs", ByteView(own_batch_.take()));
}

bool Replica::on_flood(PeerId from, const std::string& topic, ByteView payload) {
    if (from == transport_.local_id()) return true; // own message: applied already
    if (topic == "block") return nakamoto_ && nakamoto_->handle(from, topic, payload);
    return receive_batch(payload, topic == "txr");
}

bool Replica::receive_batch(ByteView payload, bool repair) {
    bool admitted_any = false;
    bool pooled_any = false;
    for (const Transaction& tx : decode_tx_batch(payload, config_.max_block_bytes)) {
        const Hash256 txid = tx.txid();
        if (seen_txs_.insert(txid).second && mempool_.add(tx, transport_.now()))
            admitted_any = true;
        if (repair && mempool_.contains(txid)) pooled_any = true;
    }
    // In a full mesh the submitter's fan-out already reached every peer, so
    // only a repair goes on there.
    return repair ? pooled_any : admitted_any && !full_mesh();
}

void Replica::connect(const Block& block) {
    node_.connect_block(block);
    const double t = transport_.now();
    for (const Transaction& tx : block.txs) {
        if (tx.is_coinbase()) continue;
        const Hash256 txid = tx.txid();
        seen_txs_.insert(txid); // a later relay must not re-admit it
        ++confirmed_txs_;
        if (const auto it = submitted_at_.find(txid); it != submitted_at_.end()) {
            latencies_.push_back(t - it->second);
            submitted_at_.erase(it);
        }
    }
}

void Replica::disconnect_tip(const Block& tip) {
    node_.disconnect_tip();
    for (const Transaction& tx : tip.txs)
        if (!tx.is_coinbase()) --confirmed_txs_;
}

void Replica::repair_left_out() {
    TxBatch due;
    const double now = transport_.now();
    while (!repair_queue_.empty()) {
        // Entries already confirmed or dropped are gone from submitted_at_.
        const auto it = submitted_at_.find(repair_queue_.front());
        if (it != submitted_at_.end()) {
            if (now - it->second < 2 * config_.block_interval)
                break; // not due yet, and neither is anything queued later
            if (const Transaction* tx = mempool_.find(it->first)) {
                const Bytes encoded = encode_to_bytes(*tx);
                if (!due.fits(encoded.size(), config_.max_block_bytes))
                    relay_.publish("txr", ByteView(due.take()));
                due.add(ByteView(encoded));
            }
        }
        repair_queue_.pop_front();
    }
    if (!due.empty()) relay_.publish("txr", ByteView(due.take()));
}

void Replica::on_message(PeerId from, const std::string& topic, ByteView payload) {
    if (topic == "block" || topic == "txs" || topic == "txr") { // flooded
        if (running_) relay_.receive(from, topic, payload);
        return;
    }

    if (nakamoto_) {
        if (running_) nakamoto_->handle(from, topic, payload);
        return;
    }

    // PBFT: the engine's own topics, then catch-up by sequence number.
    if (pbft_->handle(from, topic, payload)) return;
    if (topic == "getseq") {
        Reader r(payload);
        const std::uint64_t seq = r.u64();
        r.expect_done();
        if (seq >= 1 && seq <= node_.height()) {
            const Hash256 hash =
                node_.chain().ancestor(node_.tip(), node_.height() - seq);
            transport_.send(
                from, "seq",
                ByteView(encode_seq_block(seq, node_.chain().find(hash)->block)));
        }
    } else if (topic == "seq") {
        if (!running_) return;
        auto [seq, block] = decode_seq_block(payload);
        // Catch-up: a committed block straight from a peer's canonical chain.
        if (seq == node_.height() + 1 && pbft_connect(block)) pbft_->skip_to(seq);
    }
}

// --- PBFT -------------------------------------------------------------------

void Replica::pbft_propose() {
    propose_timer_.reset();
    if (!running_) return;
    // One block in flight at a time, at sequence == height.
    if (pbft_->is_primary() && !mempool_.empty() && !pbft_->in_flight() &&
        pbft_->last_executed() == node_.height()) {
        ledger::BlockHeader header;
        header.prev_hash = node_.tip();
        header.height = node_.height() + 1;
        header.timestamp = transport_.now();
        header.bits = config_.genesis_bits;
        header.nonce = rng_.next(); // simulated proof, as in the simulator
        header.proposer = miner_;
        pbft_->propose({encode_to_bytes(ledger::assemble_block(
            header, mempool_, node_.utxo(), config_.max_block_bytes, config_.max_block_txs))});
    }
    propose_timer_ = transport_.schedule_after(config_.block_interval,
                                               [this] { pbft_propose(); });
}

bool Replica::pbft_connect(const Block& block) {
    if (block.header.prev_hash != node_.tip()) return false;
    try {
        ledger::check_block_structure(block, rules_);
        connect(block);
    } catch (const Error&) {
        return false;
    }
    mempool_.remove_confirmed(block.txids());
    repair_left_out();
    return true;
}

} // namespace dlt::core
