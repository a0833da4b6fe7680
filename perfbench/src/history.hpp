// The fixed chain history every cluster start recovers from. It is built
// once per run through public calls only — ledger::make_genesis, then
// core::PersistentNode::connect_block over blocks of record txs on the LSM
// state engine the daemons use — and copied fresh into each node's data dir
// before every start, so restart time and memory reflect a realistic chain.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "common/bytes.hpp"
#include "core/persistent_node.hpp"
#include "ledger/block.hpp"

namespace perfbench {

struct HistorySpec {
    std::string chain_tag;
    /// Seeds payloads and senders; independent of the demand seed so every
    /// workload run recovers the same chain.
    std::uint64_t seed = 0;
    std::uint64_t txs = 0;
    std::uint64_t blocks = 0;
};

struct HistoryInfo {
    std::uint64_t height = 0;
    dlt::Hash256 tip;
    std::uint64_t txs = 0;   // non-coinbase txs on the chain
    std::uint64_t bytes = 0; // size of the data dir on disk
};

/// Storage options and genesis exactly as a dlt-node daemon opens its node
/// (LSM state engine, the replica's fsync policy and genesis bits).
dlt::core::PersistentNodeOptions daemon_node_options();
dlt::ledger::Block daemon_genesis(const std::string& chain_tag);

/// Build the history into `dir` (which must not exist yet).
HistoryInfo build_history(const std::filesystem::path& dir, const HistorySpec& spec);

/// Fresh copy of a history dir (`to` must not exist yet).
void copy_history(const std::filesystem::path& from, const std::filesystem::path& to);

std::uint64_t directory_bytes(const std::filesystem::path& dir);

} // namespace perfbench
