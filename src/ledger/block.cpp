#include "ledger/block.hpp"

#include "crypto/sha256.hpp"
#include "datastruct/merkle.hpp"

namespace dlt::ledger {

Hash256 BlockHeader::hash() const {
    if (!cached_hash_) {
        Writer w;
        encode(w);
        cached_hash_ = crypto::sha256d(w.data());
    }
    return *cached_hash_;
}

bool operator==(const BlockHeader& a, const BlockHeader& b) {
    // Field-wise comparison, ignoring the hash cache.
    return a.prev_hash == b.prev_hash && a.merkle_root == b.merkle_root &&
           a.state_root == b.state_root && a.height == b.height &&
           a.timestamp == b.timestamp && a.bits == b.bits && a.nonce == b.nonce &&
           a.proposer == b.proposer && a.annex == b.annex;
}

void BlockHeader::encode(Writer& w) const {
    w.fixed(prev_hash);
    w.fixed(merkle_root);
    w.fixed(state_root);
    w.varint(height);
    w.f64(timestamp);
    w.u32(bits);
    w.u64(nonce);
    w.fixed(proposer);
    w.blob(annex);
}

BlockHeader BlockHeader::decode(Reader& r) {
    BlockHeader h;
    h.prev_hash = r.fixed<32>();
    h.merkle_root = r.fixed<32>();
    h.state_root = r.fixed<32>();
    h.height = r.varint();
    h.timestamp = r.f64();
    h.bits = r.u32();
    h.nonce = r.u64();
    h.proposer = r.fixed<20>();
    h.annex = r.blob();
    return h;
}

std::vector<Hash256> Block::txids() const {
    std::vector<Hash256> ids;
    ids.reserve(txs.size());
    for (const auto& tx : txs) ids.push_back(tx.txid());
    return ids;
}

Hash256 Block::compute_merkle_root() const {
    return datastruct::merkle_root(txids());
}

void Block::encode(Writer& w) const {
    header.encode(w);
    w.varint(txs.size());
    for (const auto& tx : txs) tx.encode(w);
}

Block Block::decode(Reader& r) {
    Block b;
    b.header = BlockHeader::decode(r);
    b.txs = decode_tx_list(r);
    return b;
}

std::vector<Transaction> decode_tx_list(Reader& r) {
    const std::uint64_t n = r.varint_count(kMinTxBytes);
    std::vector<Transaction> txs;
    txs.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) txs.push_back(Transaction::decode(r));
    return txs;
}

std::size_t Block::serialized_size() const {
    Writer w;
    encode(w);
    return w.size();
}

Block make_genesis(std::string_view chain_tag, std::uint32_t initial_bits) {
    Block genesis;
    genesis.header.bits = initial_bits;
    genesis.header.height = 0;
    genesis.header.timestamp = 0;
    // Seed prev_hash with a tag-derived value so distinct chains cannot share
    // blocks (replay protection between simulated networks).
    genesis.header.prev_hash = crypto::tagged_hash("dlt/genesis", to_bytes(chain_tag));
    genesis.header.merkle_root = genesis.compute_merkle_root();
    return genesis;
}

} // namespace dlt::ledger
