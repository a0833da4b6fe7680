// Integration tests for the Nakamoto-consensus network simulation: convergence
// (E1), throughput characteristics (E2), branch behaviour under short block
// intervals and GHOST (E3), transaction confirmation, and PoW primitives.
#include <gtest/gtest.h>

#include "consensus/attack.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pow.hpp"
#include "crypto/sha256.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/validation.hpp"
#include "net/transport/sim_transport.hpp"

namespace {

using namespace dlt;
using namespace dlt::consensus;
using namespace dlt::ledger;

NakamotoParams fast_params() {
    NakamotoParams p;
    p.node_count = 8;
    p.block_interval = 30.0;
    p.validation.sig_mode = SigCheckMode::kSkip;
    p.link.latency_mean = 0.05;
    p.link.latency_jitter = 0.02;
    return p;
}

TEST(Pow, RealMiningFindsValidNonce) {
    BlockHeader header;
    header.bits = easy_bits(12); // ~4096 hashes expected
    const auto nonce = mine_nonce(header, 1'000'000);
    ASSERT_TRUE(nonce.has_value());
    header.nonce = *nonce;
    EXPECT_TRUE(check_proof_of_work(header));
}

TEST(Pow, WrongNonceFailsCheck) {
    BlockHeader header;
    header.bits = easy_bits(20);
    header.nonce = 12345;
    // A random nonce at difficulty 2^-20 is essentially never valid.
    EXPECT_FALSE(check_proof_of_work(header));
}

TEST(Pow, BlockTimeScalesInverselyWithHashrate) {
    Rng rng(5);
    double sum_small = 0, sum_large = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum_small += sample_block_time(0.1, 600, rng);
        sum_large += sample_block_time(0.5, 600, rng);
    }
    EXPECT_NEAR(sum_small / n, 6000, 200);
    EXPECT_NEAR(sum_large / n, 1200, 40);
}

TEST(Nakamoto, NetworkConvergesToOneChain) {
    NakamotoNetwork net(fast_params(), /*seed=*/1);
    net.start();
    net.run_for(60 * 30); // 30 expected blocks
    // Let in-flight blocks settle with mining stopped implicitly by time window:
    net.run_for(10);
    ASSERT_TRUE(net.majority_tip().has_value());
    EXPECT_GT(net.height_of(0), 10u);
    EXPECT_GT(net.stats().blocks_mined, 10u);
}

TEST(Nakamoto, AllPeersAgreeOnPrefix) {
    NakamotoNetwork net(fast_params(), 2);
    net.start();
    net.run_for(60 * 20);
    // Even if tips differ transiently, chains must share a long common prefix:
    // compare height-minus-6 ancestor of every peer.
    const auto& chain0 = net.chain_of(0);
    const Hash256 anchor = chain0.ancestor(net.tip_of(0), 6);
    const std::uint64_t anchor_height = chain0.find(anchor)->height;
    for (std::size_t i = 1; i < net.node_count(); ++i) {
        const auto& chain = net.chain_of(i);
        ASSERT_TRUE(chain.contains(anchor)) << "peer " << i;
        // The anchor must be on peer i's active path.
        const auto path = chain.path_from_genesis(net.tip_of(i));
        ASSERT_GT(path.size(), anchor_height);
        EXPECT_EQ(path[anchor_height], anchor) << "peer " << i;
    }
}

TEST(Nakamoto, MinersEarnRewards) {
    NakamotoNetwork net(fast_params(), 3);
    net.start();
    net.run_for(60 * 20);
    Amount total = 0;
    for (std::size_t i = 0; i < net.node_count(); ++i)
        total += net.utxo_of(0).balance_of(net.miner_address(i));
    // Peer 0's view: all confirmed coinbases pay some miner.
    EXPECT_EQ(total, net.utxo_of(0).total_value());
    EXPECT_GT(total, 0);
}

TEST(Nakamoto, TransactionsConfirm) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 4);
    net.start();
    net.run_for(200); // let some blocks mine so miner 0 has coins at every peer

    const auto& utxo = net.utxo_of(0);
    const auto coins = utxo.coins_of(net.miner_address(0));
    ASSERT_FALSE(coins.empty());

    Transaction tx = make_transfer(
        {coins[0].first},
        {TxOutput{coins[0].second.value - 1000,
                  crypto::PrivateKey::from_seed("recipient").address()}});
    tx.declared_fee = 1000;
    const Hash256 txid = tx.txid();
    net.submit_transaction(tx, 0);
    net.run_for(600);

    const auto confs = net.confirmations_of(txid);
    ASSERT_TRUE(confs.has_value());
    EXPECT_GE(*confs, 1u);
    EXPECT_GE(net.confirmed_tx_count(), 1u);
}

TEST(Nakamoto, ShortBlockIntervalRaisesStaleRate) {
    auto slow = fast_params();
    slow.node_count = 10;
    slow.block_interval = 600.0;
    slow.link.latency_mean = 2.0; // pronounced propagation delay
    slow.link.latency_jitter = 1.0;
    NakamotoNetwork net_slow(slow, 5);
    net_slow.start();
    net_slow.run_for(600.0 * 120);

    auto fast = slow;
    fast.block_interval = 10.0;
    NakamotoNetwork net_fast(fast, 5);
    net_fast.start();
    net_fast.run_for(10.0 * 120);

    // Same expected block count; the fast chain must see more stale blocks.
    EXPECT_GT(net_fast.stale_rate(), net_slow.stale_rate());
}

TEST(Nakamoto, GhostSelectsHeaviestSubtree) {
    auto params = fast_params();
    params.branch_rule = BranchRule::kGhost;
    params.block_interval = 10.0;
    params.link.latency_mean = 1.0;
    NakamotoNetwork net(params, 6);
    net.start();
    net.run_for(10.0 * 100);
    ASSERT_TRUE(net.majority_tip().has_value());
    EXPECT_GT(net.height_of(0), 20u);
}

TEST(Nakamoto, HashrateSharesSkewBlockProduction) {
    auto params = fast_params();
    params.node_count = 4;
    params.hashrate_shares = {0.7, 0.1, 0.1, 0.1};
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 7);
    net.start();
    net.run_for(20.0 * 150);

    // Count canonical blocks by proposer.
    std::size_t by_whale = 0, total = 0;
    for (const auto& block : net.canonical_chain()) {
        ++total;
        if (block.header.proposer == net.miner_address(0)) ++by_whale;
    }
    ASSERT_GT(total, 50u);
    const double share = static_cast<double>(by_whale) / static_cast<double>(total);
    EXPECT_GT(share, 0.55);
    EXPECT_LT(share, 0.85);
}

// --- Partition & heal (E22) --------------------------------------------------------

TEST(Nakamoto, PartitionDivergesAndHealReconverges) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 22);
    net.start();
    net.run_for(200); // establish a common prefix

    // Cut the network into two mining halves.
    net.network().partition("cut", {{0, 1, 2, 3}, {4, 5, 6, 7}});
    net.run_for(400); // ~20 blocks mined across both halves

    // The halves must have diverged: node 0's tip vs node 4's tip differ and
    // neither side knows the other's blocks.
    const Hash256 tip_a = net.tip_of(0);
    const Hash256 tip_b = net.tip_of(4);
    EXPECT_NE(tip_a, tip_b);
    EXPECT_FALSE(net.chain_of(0).contains(tip_b));
    EXPECT_FALSE(net.chain_of(4).contains(tip_a));
    EXPECT_GT(net.traffic().messages_partitioned, 0u);

    // Heal: the next cross-cut block announcement triggers the orphan-parent
    // fetch walk-back, after which every peer adopts the heavier branch.
    net.network().heal("cut");
    net.run_for(600);
    EXPECT_TRUE(net.converged());
    EXPECT_GT(net.stats().reorgs, 0u); // the losing half reorganized
}

TEST(Nakamoto, PeerChurnRejoinCatchesUp) {
    auto params = fast_params();
    params.block_interval = 20.0;
    // Node 7 contributes no hash power so its absence stalls nobody else and
    // catching up is purely a matter of block sync.
    params.hashrate_shares = {1, 1, 1, 1, 1, 1, 1, 0};
    NakamotoNetwork net(params, 23);
    net.start();
    net.run_for(100);

    net.network().leave(7);
    const std::uint64_t height_at_leave = net.height_of(7);
    net.run_for(400);
    EXPECT_EQ(net.height_of(7), height_at_leave); // heard nothing while away

    net.network().rejoin(7);
    net.run_for(600);
    // After rejoining, the first block announcement pulls the missing ancestors.
    EXPECT_GT(net.height_of(7), height_at_leave);
    EXPECT_EQ(net.tip_of(7), net.tip_of(0));
}

// --- Nakamoto golden runs ---------------------------------------------------------
//
// Each digest covers, after one seeded run, every peer's active tip, height,
// canonical block hashes and block count, the network's stats() and traffic
// counters, and peer 0's lifecycle counts and latencies, so any change to
// message order, timing, randomness draws or fork choice shows. The
// experiments that run NakamotoNetwork (E01, E02, E03, E14, E22, E24, E25,
// E27) promise byte-identical outputs; a change that moves these digests
// breaks that promise.

std::string nakamoto_run_digest(const NakamotoNetwork& net) {
    Writer w;
    for (net::NodeId n = 0; n < net.node_count(); ++n) {
        const ChainStore& chain = net.chain_of(n);
        w.fixed(net.tip_of(n));
        w.u64(net.height_of(n));
        w.varint(chain.size());
        const auto path = chain.path_from_genesis(net.tip_of(n));
        w.varint(path.size());
        for (const Hash256& hash : path) w.fixed(hash);
    }
    const NakamotoStats& s = net.stats();
    for (const std::uint64_t v : {s.blocks_mined, s.reorgs, s.invalid_blocks}) w.u64(v);
    const net::TrafficStats& t = net.traffic();
    for (const std::uint64_t v :
         {t.messages_sent, t.bytes_sent, t.messages_dropped, t.messages_lost,
          t.messages_duplicated, t.messages_partitioned, t.messages_from_crashed})
        w.u64(v);
    const auto& lc = net.lifecycle();
    w.u64(lc.tracked());
    w.u64(lc.finalized());
    w.u64(lc.dropped_count());
    for (const auto stage : {obs::TxStage::kMempool, obs::TxStage::kIncluded,
                             obs::TxStage::kFinal}) {
        const auto latencies = lc.latencies(obs::TxStage::kSubmitted, stage);
        w.varint(latencies.size());
        for (const double l : latencies) w.f64(l);
    }
    return crypto::sha256(w.data()).hex();
}

/// A record transaction from a sender no other call uses (no UTXO conflicts).
Transaction golden_tx(std::uint64_t sender) {
    Transaction tx;
    tx.kind = TxKind::kRecord;
    tx.sender_pubkey.assign(8, 0);
    for (std::size_t i = 0; i < 8; ++i)
        tx.sender_pubkey[i] = static_cast<std::uint8_t>((sender >> (8 * i)) & 0xFF);
    tx.data = Bytes(40, static_cast<std::uint8_t>(sender));
    tx.declared_fee = 100 + sender % 7;
    return tx;
}

/// Run for `steps` * `step` seconds, submitting one tx per step at a rotating
/// origin.
void run_with_load(NakamotoNetwork& net, int steps, double step, std::uint64_t first) {
    for (int i = 0; i < steps; ++i) {
        const std::uint64_t id = first + static_cast<std::uint64_t>(i);
        net.submit_transaction(golden_tx(id),
                               static_cast<net::NodeId>(id % net.node_count()));
        net.run_for(step);
    }
}

TEST(NakamotoGolden, HonestOverlayWithLoad) {
    auto params = fast_params();
    params.node_count = 16;
    params.block_interval = 10.0;
    NakamotoNetwork net(params, 31);
    net.start();
    run_with_load(net, 300, 2.0, 1000);
    net.run_for(60.0);
    EXPECT_GT(net.confirmed_tx_count(), 250u);
    EXPECT_EQ(nakamoto_run_digest(net),
              "bd409997c8c96f93d3d359fa8a2c2bf84e0722e67e4af8907181a99fc3d468ac");
}

TEST(NakamotoGolden, GhostShortInterval) {
    auto params = fast_params();
    params.branch_rule = BranchRule::kGhost;
    params.block_interval = 2.0;
    params.link.latency_mean = 0.8;
    params.link.latency_jitter = 0.4;
    NakamotoNetwork net(params, 32);
    net.start();
    run_with_load(net, 200, 1.5, 2000);
    EXPECT_GT(net.stats().reorgs, 0u);
    EXPECT_EQ(nakamoto_run_digest(net),
              "ef1ca17ac592495b0bdb32f937ab34e09b5daa0db1e2adbff58b1b5d9ff4ee53");
}

TEST(NakamotoGolden, HealedPartition) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 33);
    net.start();
    run_with_load(net, 50, 4.0, 3000);
    net.network().partition("cut", {{0, 1, 2, 3}, {4, 5, 6, 7}});
    run_with_load(net, 100, 4.0, 3100);
    net.network().heal("cut");
    run_with_load(net, 150, 4.0, 3200);
    EXPECT_TRUE(net.converged());
    EXPECT_EQ(nakamoto_run_digest(net),
              "7d412742b2058c2888678c4a803328ff53647bedcdbd47a3a4893f5f3a9765e1");
}

TEST(NakamotoGolden, LeaveRejoinChurn) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 34);
    net.start();
    net.run_for(100.0);
    net.network().leave(7);
    net.network().leave(3);
    run_with_load(net, 60, 5.0, 4000);
    net.network().rejoin(3);
    net.run_for(150.0);
    net.network().rejoin(7);
    run_with_load(net, 60, 5.0, 4100);
    EXPECT_EQ(net.tip_of(7), net.tip_of(0));
    EXPECT_EQ(nakamoto_run_digest(net),
              "4bc03c44bda0bd449039639cc7c6008b0a66f1c02e54fdb216a56e229dbbce04");
}

TEST(NakamotoGolden, SelfishMinerWithholdsAndPublishes) {
    auto params = fast_params();
    params.block_interval = 10.0;
    params.hashrate_shares.assign(8, 0.6 / 7.0);
    params.hashrate_shares[1] = 0.4;
    NakamotoNetwork net(params, 35);
    SelfishMiner selfish(net, 1);
    net.start();
    run_with_load(net, 200, 5.0, 5000);
    selfish.finish();
    net.run_for(120.0);
    EXPECT_GT(selfish.stats().blocks_published, 0u);
    EXPECT_EQ(nakamoto_run_digest(net),
              "47cd9c23b8e403131479dfa6e81f694b77866cb5cb49d2a439a49b2e467e8724");
}

TEST(NakamotoGolden, EclipseFeedsPrivateFork) {
    auto params = fast_params();
    params.block_interval = 10.0;
    params.hashrate_shares.assign(8, 0.7 / 7.0);
    params.hashrate_shares[0] = 0.3;
    NakamotoNetwork net(params, 36);
    net.start();
    net.run_for(200.0);
    EclipseParams ep;
    ep.attacker = 0;
    ep.victim = 1;
    EclipseAttack eclipse(net, ep);
    run_with_load(net, 60, 5.0, 6000);
    EXPECT_GT(eclipse.fork_blocks(), 0u);
    eclipse.heal();
    run_with_load(net, 60, 5.0, 6100);
    EXPECT_TRUE(net.converged());
    EXPECT_EQ(nakamoto_run_digest(net),
              "80163336b4dcaa256fa18c62c20de9081be2600f28b83d4b4394e02d2ded461b");
}

TEST(NakamotoGolden, RetargetingUnderHashrateSteps) {
    auto params = fast_params();
    params.node_count = 6;
    params.block_interval = 30.0;
    params.enable_retargeting = true;
    params.retarget.interval_blocks = 8;
    params.retarget.target_spacing = 30.0;
    NakamotoNetwork net(params, 37);
    net.set_network_hashrate(4.0);
    net.start();
    run_with_load(net, 150, 10.0, 7000);
    net.set_network_hashrate(0.5);
    run_with_load(net, 150, 10.0, 7200);
    EXPECT_EQ(nakamoto_run_digest(net),
              "ab74fdb1a17787b9fcd9702625b0db055cb45dc18f13bd66e88f194c84de1fd6");
}

// --- NakamotoEngine through its chain-state seam ---------------------------------

/// UTXO chain state whose next `faults` connects throw StorageError, and
/// whose connect of `poisoned` throws ValidationError.
struct FlakyState final : NakamotoEngine::ChainState {
    void connect(const Block& block) override {
        if (faults > 0) {
            --faults;
            throw StorageError("disk full");
        }
        if (block.hash() == poisoned) throw ValidationError("double spend");
        undo.emplace(block.hash(), ledger::connect_block(block, utxo_set, ValidationRules{}));
    }
    void disconnect_tip(const Block& tip) override {
        utxo_set.undo_block(undo.at(tip.hash()));
        undo.erase(tip.hash());
    }
    const UtxoSet& utxo() const override { return utxo_set; }

    int faults = 0;
    Hash256 poisoned;
    UtxoSet utxo_set;
    std::unordered_map<Hash256, UtxoUndo> undo;
};

/// A coinbase-only block on `parent`.
Block child_of(const Block& parent, std::uint64_t salt) {
    BlockHeader header;
    header.prev_hash = parent.hash();
    header.height = parent.header.height + 1;
    header.timestamp = static_cast<double>(header.height);
    header.bits = parent.header.bits;
    header.nonce = salt;
    Mempool empty;
    return assemble_block(header, empty, UtxoSet{}, 1'000'000, 100);
}

/// One non-mining engine at peer 1 of a two-node hub; blocks are handed to it
/// as if peer 0 had sent them.
struct EngineFixture {
    sim::Scheduler scheduler;
    net::Network network{scheduler, Rng(1)};
    net::transport::SimTransportHub hub{network, 2};
    Block genesis = make_genesis("engine-test", easy_bits(1));
    FlakyState state;
    Mempool mempool;
    NakamotoEngine engine{hub.endpoint(1), NakamotoParams{}, genesis, 0.0,
                          crypto::Address{}, Rng(2), state, mempool, {}};

    EngineFixture() { network.build_full_mesh(); }
    void receive(const Block& block) {
        engine.handle(0, "block", ByteView(encode_to_bytes(block)));
    }
};

TEST(NakamotoEngine, StorageFaultIsNotAVerdict) {
    EngineFixture fx;
    const Block b1 = child_of(fx.genesis, 1);
    const Block b2 = child_of(b1, 2);
    fx.state.faults = 1;
    fx.receive(b1); // the disk fails once: b1 stays out, but not condemned
    EXPECT_EQ(fx.engine.tip(), fx.genesis.hash());
    EXPECT_TRUE(fx.state.undo.empty());
    fx.receive(b2); // the next block retries the branch, and it connects
    EXPECT_EQ(fx.engine.tip(), b2.hash());
    EXPECT_EQ(fx.engine.stats().invalid_blocks, 0u);
    EXPECT_EQ(fx.state.undo.size(), 2u);
}

TEST(NakamotoEngine, ValidationErrorCondemnsTheBranch) {
    EngineFixture fx;
    const Block b1 = child_of(fx.genesis, 1);
    const Block b2 = child_of(b1, 2);
    const Block side = child_of(fx.genesis, 3);
    fx.state.poisoned = b1.hash();
    fx.receive(b1);
    fx.receive(b2); // more work, but on the invalid block
    EXPECT_EQ(fx.engine.tip(), fx.genesis.hash());
    EXPECT_EQ(fx.engine.stats().invalid_blocks, 1u);
    fx.receive(side); // a valid leaf with more work than the tip wins
    EXPECT_EQ(fx.engine.tip(), side.hash());
}


TEST(NakamotoEngine, WrongDifficultyIsNeverIndexed) {
    EngineFixture fx;
    Block forged = child_of(fx.genesis, 1);
    forged.header.bits = easy_bits(40); // claims far more work than was asked
    forged.header.invalidate_hash_cache();
    fx.receive(forged);
    fx.receive(child_of(forged, 2)); // an orphan of it is not indexed either
    EXPECT_FALSE(fx.engine.chain().contains(forged.hash()));
    EXPECT_EQ(fx.engine.chain().size(), 1u);
    EXPECT_EQ(fx.engine.tip(), fx.genesis.hash());
}

// --- 51% attack model (E6) ---------------------------------------------------------

TEST(Attack, AnalyticMatchesWhitepaperValues) {
    // Values from the Bitcoin whitepaper, section 11 (q = 0.1).
    EXPECT_NEAR(attacker_success_probability(0.1, 0), 1.0, 1e-9);
    EXPECT_NEAR(attacker_success_probability(0.1, 1), 0.2045873, 1e-4);
    EXPECT_NEAR(attacker_success_probability(0.1, 5), 0.0009137, 1e-5);
    EXPECT_NEAR(attacker_success_probability(0.3, 5), 0.1773523, 1e-4);
}

TEST(Attack, MajorityHashpowerAlwaysWins) {
    EXPECT_DOUBLE_EQ(attacker_success_probability(0.5, 100), 1.0);
    EXPECT_DOUBLE_EQ(attacker_success_probability(0.6, 100), 1.0);
    Rng rng(11);
    EXPECT_GT(simulate_attack_success(0.55, 6, 500, rng), 0.95);
}

TEST(Attack, SimulationMatchesAnalytic) {
    // The analytic form approximates the attacker's head start with a Poisson;
    // the simulation is exact (negative binomial), so allow the approximation
    // gap, which grows with q (~0.03 at q=0.4).
    Rng rng(13);
    for (const double q : {0.1, 0.25, 0.4}) {
        for (const unsigned z : {1u, 3u, 6u}) {
            const double analytic = attacker_success_probability(q, z);
            const double simulated = simulate_attack_success(q, z, 20000, rng);
            EXPECT_NEAR(simulated, analytic, 0.04) << "q=" << q << " z=" << z;
        }
    }
}

TEST(Attack, DeeperConfirmationsExponentiallySafer) {
    const double p1 = attacker_success_probability(0.1, 1);
    const double p6 = attacker_success_probability(0.1, 6);
    EXPECT_LT(p6, p1 / 100);
}

} // namespace
