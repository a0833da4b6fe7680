#include "replay.hpp"

#include <chrono>
#include <utility>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/persistent_node.hpp"
#include "core/replica.hpp"
#include "crypto/keys.hpp"
#include "ledger/amount.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/validation.hpp"
#include "net/network.hpp"
#include "net/transport/sim_transport.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using namespace dlt;
using Clock = std::chrono::steady_clock;

namespace {

double seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct SpanSlot {
    SpanTotal* total;
    bool top_level; // counts toward the total reconciled against wall time
};

/// Times one call per span into a running total. Slots are looked up by name
/// once, up front, so the bookkeeping between spans stays small.
class Spans {
public:
    explicit Spans(ReplayResult& out) : out_(out) {}

    SpanSlot top(const char* name) { return {&out_.spans[name], true}; }
    /// A span nested inside a top-level one (not counted twice).
    SpanSlot child(const char* name) { return {&out_.spans[name], false}; }

    template <typename Fn>
    auto operator()(SpanSlot slot, Fn&& fn) {
        const auto start = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
            fn();
            close(slot, start);
        } else {
            auto result = fn();
            close(slot, start);
            return result;
        }
    }

private:
    void close(SpanSlot slot, Clock::time_point start) {
        const double s = seconds(start, Clock::now());
        ++slot.total->calls;
        slot.total->seconds += s;
        if (slot.top_level) out_.spanned_s += s;
    }

    ReplayResult& out_;
};

} // namespace

ReplayResult replay(const std::filesystem::path& history_copy, const ReplaySpec& spec,
                    const std::vector<Arrival>& trace) {
    const core::ReplicaConfig config; // the daemon's limits and rules
    ReplayResult out;
    Spans spans(out);
    const SpanSlot sp_template = spans.top("ledger.template");
    const SpanSlot sp_assemble = spans.top("ledger.assemble");
    const SpanSlot sp_merkle = spans.child("datastruct.merkle");
    const SpanSlot sp_block_encode = spans.top("ledger.block_encode");
    const SpanSlot sp_block_decode = spans.top("ledger.block_decode");
    const SpanSlot sp_check_block = spans.top("ledger.check_block");
    const SpanSlot sp_fork_choice = spans.top("ledger.fork_choice");
    const SpanSlot sp_connect_block = spans.top("core.connect_block");
    const SpanSlot sp_confirm_index = spans.top("core.confirm_index");
    const SpanSlot sp_remove_confirmed = spans.top("ledger.remove_confirmed");
    const SpanSlot sp_frame_decode = spans.top("net.frame_decode");
    const SpanSlot sp_tx_decode = spans.top("ledger.tx_decode");
    const SpanSlot sp_txid = spans.top("crypto.txid");
    const SpanSlot sp_tx_index = spans.top("core.tx_index");
    const SpanSlot sp_admit = spans.top("ledger.admit");
    const SpanSlot sp_tx_encode = spans.top("ledger.tx_encode");
    const SpanSlot sp_frame_encode = spans.top("net.frame_encode");

    const ledger::Block genesis = daemon_genesis(spec.chain_tag);
    const auto open_start = Clock::now();
    core::PersistentNode node(history_copy, genesis, daemon_node_options());
    out.node_open_s = seconds(open_start, Clock::now());

    ledger::ValidationRules rules;
    rules.max_block_bytes = config.max_block_bytes;
    rules.max_txs_per_block = config.max_block_txs;
    rules.sig_mode = config.sig_mode;
    ledger::Mempool mempool(config.mempool);
    const crypto::Address miner =
        crypto::PrivateKey::from_seed(spec.chain_tag + "/miner/0").address();
    std::unordered_set<Hash256> seen;
    std::unordered_map<Hash256, double> submitted_at;
    std::vector<double> latencies;
    // Nakamoto's branch index starts from the recovered chain, as in Replica.
    ledger::ChainStore chain(genesis);
    if (spec.nakamoto)
        for (const Hash256& hash : node.chain().path_from_genesis(node.tip()))
            if (hash != chain.genesis_hash())
                chain.insert(node.chain().find(hash)->block, crypto::U256::one());

    const std::size_t budget = config.max_block_bytes - 512;
    std::size_t admitted_since_block = 0;
    const auto wall_start = Clock::now();

    const auto make_block = [&](double now) {
        // Each object is released inside the span of its last use, so the
        // frees a node pays for are spanned rather than left as loop glue.
        auto candidates = spans(sp_template, [&] {
            return mempool.build_template(budget, config.max_block_txs);
        });
        ledger::Block block = spans(sp_assemble, [&] {
            const auto entries = std::move(candidates);
            ledger::Block b;
            b.header.prev_hash = node.tip();
            b.header.height = node.height() + 1;
            b.header.timestamp = now;
            b.header.bits = config.genesis_bits;
            b.header.nonce = out.blocks;
            b.header.proposer = miner;
            ledger::UtxoSet scratch = node.utxo();
            ledger::UtxoUndo undo;
            ledger::Amount fees = 0;
            std::vector<ledger::Transaction> chosen;
            for (const auto& entry : entries) {
                try {
                    fees += scratch.check_and_apply(*entry.tx, undo);
                    chosen.push_back(*entry.tx);
                } catch (const ValidationError&) {
                    // Stale on this branch; Replica skips it the same way.
                }
            }
            b.txs.push_back(ledger::make_coinbase(
                miner, ledger::block_subsidy(b.header.height) + fees, b.header.height));
            for (auto& tx : chosen) b.txs.push_back(std::move(tx));
            b.header.merkle_root =
                spans(sp_merkle, [&] { return b.compute_merkle_root(); });
            return b;
        });
        Bytes wire = spans(sp_block_encode, [&] {
            const ledger::Block sent = std::move(block);
            return net::transport::encode_message_frame(
                spec.nakamoto ? "blk" : "pp", ByteView(encode_to_bytes(sent)));
        });
        // From here on the path is a receiving peer's: decode the wire copy.
        ledger::Block received = spans(sp_block_decode, [&] {
            net::transport::FrameDecoder decoder;
            decoder.feed(ByteView(std::exchange(wire, {})));
            const auto frame = decoder.next();
            const auto msg = net::transport::decode_message_payload(ByteView(frame->payload));
            return decode_from_bytes<ledger::Block>(ByteView(msg.body));
        });
        spans(sp_check_block,
                  [&] { ledger::check_block_structure(received, rules); });
        if (spec.nakamoto) {
            spans(sp_fork_choice, [&] {
                chain.insert(received, crypto::U256::one(), now);
                const Hash256 best = chain.best_tip_by_work();
                return chain.reorg_path(node.tip(), best).connect.size();
            });
        }
        spans(sp_connect_block, [&] { node.connect_block(received); });
        auto ids = spans(sp_confirm_index, [&] {
            const ledger::Block block_done = std::move(received);
            std::vector<Hash256> confirmed;
            confirmed.reserve(block_done.txs.size());
            for (const ledger::Transaction& tx : block_done.txs) {
                if (tx.is_coinbase()) continue;
                const Hash256 txid = tx.txid();
                confirmed.push_back(txid);
                seen.insert(txid);
                if (const auto it = submitted_at.find(txid); it != submitted_at.end()) {
                    latencies.push_back(now - it->second);
                    submitted_at.erase(it);
                }
            }
            return confirmed;
        });
        spans(sp_remove_confirmed, [&] { mempool.remove_confirmed(std::exchange(ids, {})); });
        ++out.blocks;
    };

    for (const Arrival& arrival : trace) {
        auto msg = spans(sp_frame_decode, [&] {
            net::transport::FrameDecoder decoder;
            decoder.feed(ByteView(arrival.frame));
            const auto frame = decoder.next();
            return net::transport::decode_message_payload(ByteView(frame->payload));
        });
        auto tx = spans(sp_tx_decode, [&] {
            const auto wire_msg = std::move(msg);
            return decode_from_bytes<ledger::Transaction>(ByteView(wire_msg.body));
        });
        const Hash256 txid = spans(sp_txid, [&] { return tx.txid(); });
        const bool fresh = spans(sp_tx_index, [&] {
            if (!seen.insert(txid).second) return false;
            submitted_at.emplace(txid, arrival.at);
            return true;
        });
        if (!fresh) continue;
        const bool admitted = spans(sp_admit, [&] { return mempool.add(tx, arrival.at); });
        if (!admitted) continue;
        Bytes payload = spans(sp_tx_encode, [&] {
            const auto relayed = std::move(tx); // the pool holds its own copy
            return encode_to_bytes(relayed);
        });
        spans(sp_frame_encode, [&] {
            const Bytes body = std::move(payload);
            return net::transport::encode_message_frame("tx", ByteView(body)).size();
        });
        ++out.txs;
        if (++admitted_since_block >= spec.txs_per_block) {
            make_block(arrival.at);
            admitted_since_block = 0;
        }
    }
    while (!mempool.empty()) make_block(trace.empty() ? 0.0 : trace.back().at);
    out.wall_s = seconds(wall_start, Clock::now());
    return out;
}

double time_replica_open(const std::filesystem::path& history_copy,
                         const std::string& chain_tag, bool nakamoto) {
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(1));
    net::transport::SimTransportHub hub(network, 4);
    network.build_full_mesh();
    core::ReplicaConfig config;
    config.engine = nakamoto ? core::ReplicaEngine::kNakamoto : core::ReplicaEngine::kPbft;
    config.node_count = 4;
    config.chain_tag = chain_tag;
    config.data_dir = history_copy;
    config.state_engine = core::StateEngine::kPersistent;
    const auto start = Clock::now();
    core::Replica replica(hub.endpoint(0), config);
    return seconds(start, Clock::now());
}

} // namespace perfbench
