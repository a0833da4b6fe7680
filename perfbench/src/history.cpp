#include "history.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "core/persistent_node.hpp"
#include "core/replica.hpp"
#include "crypto/keys.hpp"
#include "ledger/amount.hpp"
#include "ledger/block.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dlt;

namespace {

/// Senders of history txs carry this tag byte after their 8-byte id, so they
/// can never collide with a workload agent's (sender, nonce) slot.
constexpr std::uint8_t kHistorySenderTag = 0x4B;
constexpr std::uint64_t kHistorySenders = 5'000;
constexpr std::size_t kPayloadBytes = 96;

} // namespace

core::PersistentNodeOptions daemon_node_options() {
    core::PersistentNodeOptions options;
    options.state_engine = core::StateEngine::kPersistent;
    options.fsync = core::ReplicaConfig{}.fsync;
    return options;
}

ledger::Block daemon_genesis(const std::string& chain_tag) {
    return ledger::make_genesis(chain_tag, core::ReplicaConfig{}.genesis_bits);
}

HistoryInfo build_history(const fs::path& dir, const HistorySpec& spec) {
    if (spec.blocks == 0 || spec.txs < spec.blocks)
        throw std::invalid_argument("history needs at least one tx per block");
    if (fs::exists(dir)) throw std::invalid_argument("history dir already exists");

    const std::uint32_t bits = core::ReplicaConfig{}.genesis_bits;
    const crypto::Address miner =
        crypto::PrivateKey::from_seed(spec.chain_tag + "/history-miner").address();

    Rng rng(spec.seed);
    std::vector<std::uint64_t> nonces(kHistorySenders, 0);
    core::PersistentNode node(dir, daemon_genesis(spec.chain_tag), daemon_node_options());
    std::uint64_t made = 0;
    for (std::uint64_t b = 0; b < spec.blocks; ++b) {
        const std::uint64_t in_block = (spec.txs - made) / (spec.blocks - b);
        ledger::Block block;
        block.header.prev_hash = node.tip();
        block.header.height = node.height() + 1;
        block.header.timestamp = static_cast<double>(b + 1);
        block.header.bits = bits;
        block.header.nonce = rng.next();
        block.header.proposer = miner;
        ledger::Amount fees = 0;
        std::vector<ledger::Transaction> txs;
        txs.reserve(in_block);
        for (std::uint64_t i = 0; i < in_block; ++i) {
            const std::uint64_t sender = rng.uniform(kHistorySenders);
            ledger::Transaction tx;
            tx.kind = ledger::TxKind::kRecord;
            tx.sender_pubkey.assign(8, 0);
            for (std::size_t k = 0; k < 8; ++k)
                tx.sender_pubkey[k] = static_cast<std::uint8_t>((sender >> (8 * k)) & 0xFF);
            tx.sender_pubkey.push_back(kHistorySenderTag);
            tx.nonce = nonces[sender]++;
            tx.data.resize(kPayloadBytes);
            for (auto& byte : tx.data) byte = static_cast<std::uint8_t>(rng.next());
            tx.declared_fee = static_cast<ledger::Amount>(tx.serialized_size());
            fees += tx.declared_fee;
            txs.push_back(std::move(tx));
        }
        block.txs.push_back(ledger::make_coinbase(
            miner, ledger::block_subsidy(block.header.height) + fees,
            block.header.height));
        for (auto& tx : txs) block.txs.push_back(std::move(tx));
        block.header.merkle_root = block.compute_merkle_root();
        node.connect_block(block);
        made += in_block;
    }
    HistoryInfo info;
    info.height = node.height();
    info.tip = node.tip();
    info.txs = made;
    info.bytes = directory_bytes(dir);
    return info;
}

void copy_history(const fs::path& from, const fs::path& to) {
    if (fs::exists(to)) throw std::invalid_argument("history copy target exists");
    fs::create_directories(to.parent_path());
    fs::copy(from, to, fs::copy_options::recursive);
}

std::uint64_t directory_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file()) total += entry.file_size();
    return total;
}

} // namespace perfbench
