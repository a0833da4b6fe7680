// Traced single-node replay. The workload's tx stream goes through one
// node's public calls in core::Replica's order — frame decode, tx decode,
// txid, dedup, mempool admission, relay encode; and per block: template,
// assembly, block encode/decode, structural check, fork choice (Nakamoto
// only), connect_block, confirmation bookkeeping, mempool removal — on a
// fresh history copy, with one span around each call. Spans are the
// benchmark's own; the program is not instrumented.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "history.hpp"
#include "loader.hpp"

namespace perfbench {

struct SpanTotal {
    std::uint64_t calls = 0;
    double seconds = 0;
    double us_per_call() const { return calls == 0 ? 0 : seconds * 1e6 / calls; }
};

struct ReplayResult {
    std::map<std::string, SpanTotal> spans; // by layer-qualified name
    double wall_s = 0;    // replay loop, glue included
    double spanned_s = 0; // sum of top-level spans (merkle is nested in assemble)
    std::uint64_t txs = 0;
    std::uint64_t blocks = 0;
    double node_open_s = 0; // PersistentNode recovery of the history copy
};

struct ReplaySpec {
    std::string chain_tag;
    bool nakamoto = false;
    std::size_t txs_per_block = 1;
};

/// Replay `trace` on a node opened from `history_copy` (consumed).
ReplayResult replay(const std::filesystem::path& history_copy, const ReplaySpec& spec,
                    const std::vector<Arrival>& trace);

/// Seconds the core::Replica constructor takes over a SimTransportHub
/// endpoint on `history_copy` (consumed).
double time_replica_open(const std::filesystem::path& history_copy,
                         const std::string& chain_tag, bool nakamoto);

} // namespace perfbench
