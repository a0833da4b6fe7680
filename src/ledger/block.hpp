// Blocks and headers, matching the structure of Fig. 2: previous hash, nonce,
// and Merkle tree root over the transactions, plus the fields modern chains add
// (height, timestamp, difficulty bits, state root, proposer).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/keys.hpp"
#include "ledger/transaction.hpp"

namespace dlt::ledger {

struct BlockHeader {
    Hash256 prev_hash;      // link to the parent block (Fig. 2 "Previous Hash")
    Hash256 merkle_root;    // root of the transaction tree (Fig. 2 "Tree Root Hash")
    Hash256 state_root;     // authenticated account/contract state after this block
    std::uint64_t height = 0;
    double timestamp = 0;   // virtual seconds (SimTime)
    std::uint32_t bits = 0; // compact difficulty target (PoW chains)
    std::uint64_t nonce = 0;       // PoW solution counter (Fig. 2 "Nonce")
    crypto::Address proposer;      // miner / leader / forger
    /// Consensus-specific annex: PoS stake proof, PoET wait certificate,
    /// ordering-service sequence number, Bitcoin-NG key-block marker, ...
    Bytes annex;

    friend bool operator==(const BlockHeader& a, const BlockHeader& b);

    /// Block id: sha256d over the serialized header. Cached after the first
    /// call — headers are hashed at every chain-index lookup, gossip frame, and
    /// PoW check. Code that mutates a field after calling hash() must call
    /// invalidate_hash_cache() (the PoW nonce grind is the canonical case).
    Hash256 hash() const;

    /// Drop the cached hash (after direct field mutation).
    void invalidate_hash_cache() { cached_hash_.reset(); }

    void encode(Writer& w) const;
    static BlockHeader decode(Reader& r);

private:
    mutable std::optional<Hash256> cached_hash_;
};

struct Block {
    BlockHeader header;
    std::vector<Transaction> txs;

    friend bool operator==(const Block&, const Block&) = default;

    Hash256 hash() const { return header.hash(); }

    /// Recompute the Merkle root from `txs` (must equal header.merkle_root for a
    /// valid block).
    Hash256 compute_merkle_root() const;

    /// Leaf digests (txids) in order.
    std::vector<Hash256> txids() const;

    void encode(Writer& w) const;
    static Block decode(Reader& r);

    std::size_t serialized_size() const;
};

/// Lower bound on one encoded transaction (a minimal envelope); a tx list's
/// count is checked against it before anything is allocated.
inline constexpr std::size_t kMinTxBytes = 24;

/// Decode a tx list as a block body carries it: a varint count, then each
/// tx's encoding back to back. Replicas gossip txs in the same layout.
std::vector<Transaction> decode_tx_list(Reader& r);

/// The deterministic genesis block for a chain tagged by `chain_tag`.
Block make_genesis(std::string_view chain_tag, std::uint32_t initial_bits);

} // namespace dlt::ledger
