// Tests for the leader-based and alternative-proof consensus family: PoS stake
// lotteries, PoET wait certificates, the ordering service, PBFT (normal case,
// crash faults, view change, equivocating primary), and Bitcoin-NG.
#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "consensus/bitcoinng.hpp"
#include "consensus/ordering.hpp"
#include "consensus/pbft.hpp"
#include "consensus/poet.hpp"
#include "consensus/pos.hpp"
#include "crypto/sha256.hpp"
#include "ledger/difficulty.hpp"

namespace {

using namespace dlt;
using namespace dlt::consensus;
using namespace dlt::ledger;

// --- PoS -----------------------------------------------------------------------------

StakeDistribution three_stakers() {
    return StakeDistribution({
        Staker{crypto::PrivateKey::from_seed("s0").address(), 50 * kCoin},
        Staker{crypto::PrivateKey::from_seed("s1").address(), 30 * kCoin},
        Staker{crypto::PrivateKey::from_seed("s2").address(), 20 * kCoin},
    });
}

TEST(Pos, OwnerOfRespectsBoundaries) {
    const auto dist = three_stakers();
    EXPECT_EQ(dist.owner_of(0), 0u);
    EXPECT_EQ(dist.owner_of(50 * kCoin - 1), 0u);
    EXPECT_EQ(dist.owner_of(50 * kCoin), 1u);
    EXPECT_EQ(dist.owner_of(80 * kCoin - 1), 1u);
    EXPECT_EQ(dist.owner_of(80 * kCoin), 2u);
    EXPECT_EQ(dist.owner_of(100 * kCoin - 1), 2u);
}

TEST(Pos, LeaderSelectionIsDeterministic) {
    const auto dist = three_stakers();
    const Hash256 seed = crypto::sha256(to_bytes("epoch-1"));
    for (std::uint64_t slot = 0; slot < 20; ++slot)
        EXPECT_EQ(slot_leader(seed, slot, dist), slot_leader(seed, slot, dist));
}

TEST(Pos, WinsProportionalToStake) {
    const auto dist = three_stakers();
    const Hash256 seed = crypto::sha256(to_bytes("fairness"));
    std::map<std::size_t, int> wins;
    const int slots = 20000;
    for (int slot = 0; slot < slots; ++slot) ++wins[slot_leader(seed, slot, dist)];
    EXPECT_NEAR(wins[0] / double(slots), 0.5, 0.02);
    EXPECT_NEAR(wins[1] / double(slots), 0.3, 0.02);
    EXPECT_NEAR(wins[2] / double(slots), 0.2, 0.02);
}

TEST(Pos, ForgeAndVerify) {
    const auto dist = three_stakers();
    const Hash256 seed = crypto::sha256(to_bytes("chain"));
    const Block genesis = make_genesis("pos", easy_bits(1));
    const std::uint64_t slot = 3;
    const std::size_t leader = slot_leader(seed, slot, dist);

    const Block block = forge_block(genesis, slot, leader, seed, dist, 10.0);
    EXPECT_TRUE(verify_stake_proof(block.header, seed, dist));

    // A non-leader cannot forge.
    const std::size_t imposter = (leader + 1) % dist.size();
    EXPECT_THROW(forge_block(genesis, slot, imposter, seed, dist, 10.0),
                 ValidationError);

    // Forged proposer swap fails verification.
    Block tampered = block;
    tampered.header.proposer = dist.at(imposter).address;
    EXPECT_FALSE(verify_stake_proof(tampered.header, seed, dist));
}

TEST(Pos, EffortComparisonIsDrastic) {
    const auto effort = compare_effort(32, 100);
    // E5: PoW at 2^32 expected hashes vs one lottery hash per peer.
    EXPECT_GT(effort.hashes_per_block_pow / effort.hashes_per_block_pos, 1e6);
}

// --- PoET ----------------------------------------------------------------------------

TEST(Poet, DrawIsDeterministicAndVerifiable) {
    const Hash256 seed = crypto::sha256(to_bytes("sgx"));
    const WaitCertificate cert = poet_draw(seed, 5, 3, 10.0);
    EXPECT_TRUE(verify_wait_certificate(cert, seed, 10.0));
    WaitCertificate forged = cert;
    forged.wait_seconds *= 0.5; // claim a shorter wait
    EXPECT_FALSE(verify_wait_certificate(forged, seed, 10.0));
}

TEST(Poet, WinnerIsUniformAcrossPeers) {
    const Hash256 seed = crypto::sha256(to_bytes("fair-poet"));
    const std::uint32_t peers = 10;
    std::map<std::uint32_t, int> wins;
    const int rounds = 20000;
    for (int round = 0; round < rounds; ++round)
        ++wins[poet_round_winner(seed, round, peers, 10.0)];
    for (std::uint32_t p = 0; p < peers; ++p)
        EXPECT_NEAR(wins[p] / double(rounds), 0.1, 0.015) << "peer " << p;
}

TEST(Poet, RoundDurationShrinksWithMorePeers) {
    const Hash256 seed = crypto::sha256(to_bytes("duration"));
    double mean_small = 0, mean_large = 0;
    const int rounds = 2000;
    for (int r = 0; r < rounds; ++r) {
        mean_small += poet_round_duration(seed, r, 4, 10.0);
        mean_large += poet_round_duration(seed, r, 64, 10.0);
    }
    mean_small /= rounds;
    mean_large /= rounds;
    // Min of n exponentials has mean mean_wait/n.
    EXPECT_NEAR(mean_small, 10.0 / 4, 0.4);
    EXPECT_NEAR(mean_large, 10.0 / 64, 0.05);
}

// --- Ordering service -------------------------------------------------------------------

Transaction dummy_tx(std::uint64_t i) {
    Transaction tx;
    tx.kind = TxKind::kRecord;
    tx.nonce = i;
    tx.data = to_bytes("payload-" + std::to_string(i));
    return tx;
}

TEST(Ordering, BatchBySizeDeliversEverywhere) {
    OrderingParams params;
    params.peer_count = 5;
    params.batch_size = 10;
    OrderingService svc(params, 1);
    for (std::uint64_t i = 0; i < 25; ++i) svc.submit(dummy_tx(i));
    svc.run_for(10.0);

    EXPECT_TRUE(svc.ledgers_identical());
    const auto& ledger = svc.ledger_of(0);
    ASSERT_EQ(ledger.size(), 3u); // 10 + 10 + 5 (timeout batch)
    EXPECT_EQ(ledger[0].txs.size(), 10u);
    EXPECT_EQ(ledger[2].txs.size(), 5u);
}

TEST(Ordering, PartialBatchCutByTimer) {
    OrderingParams params;
    params.batch_size = 100;
    params.batch_interval = 0.5;
    OrderingService svc(params, 2);
    svc.submit(dummy_tx(0));
    svc.run_for(2.0);
    ASSERT_EQ(svc.ledger_of(0).size(), 1u);
    EXPECT_EQ(svc.ledger_of(0)[0].txs.size(), 1u);
}

TEST(Ordering, SequenceNumbersAreDense) {
    OrderingParams params;
    params.batch_size = 5;
    OrderingService svc(params, 3);
    for (std::uint64_t i = 0; i < 50; ++i) svc.submit(dummy_tx(i));
    svc.run_for(5.0);
    const auto& ledger = svc.ledger_of(1);
    for (std::size_t i = 0; i < ledger.size(); ++i)
        EXPECT_EQ(ledger[i].sequence, i + 1);
}

TEST(Ordering, RotatingLeaderUsesAllOrderers) {
    OrderingParams params;
    params.peer_count = 4;
    params.mode = OrdererMode::kRotatingLeader;
    params.batch_size = 2;
    OrderingService svc(params, 4);
    for (std::uint64_t i = 0; i < 40; ++i) svc.submit(dummy_tx(i));
    svc.run_for(10.0);

    std::map<std::uint32_t, int> by_orderer;
    for (const auto& block : svc.ledger_of(0)) ++by_orderer[block.orderer];
    EXPECT_EQ(by_orderer.size(), 4u);
    EXPECT_TRUE(svc.ledgers_identical());
}

TEST(Ordering, NoForksEver) {
    OrderingParams params;
    params.peer_count = 6;
    params.batch_size = 7;
    OrderingService svc(params, 5);
    for (std::uint64_t i = 0; i < 200; ++i) svc.submit(dummy_tx(i));
    svc.run_for(30.0);
    EXPECT_TRUE(svc.ledgers_identical());
    std::size_t total = 0;
    for (const auto& block : svc.ledger_of(0)) total += block.txs.size();
    EXPECT_EQ(total, 200u);
}

// --- PBFT ---------------------------------------------------------------------------------

PbftConfig small_cluster() {
    PbftConfig config;
    config.f = 1; // n = 4
    config.batch_size = 10;
    config.batch_interval = 0.1;
    config.view_change_timeout = 3.0;
    return config;
}

TEST(Pbft, CommitsRequestsInOrder) {
    PbftCluster cluster(small_cluster(), 1);
    for (int i = 0; i < 30; ++i) cluster.submit(to_bytes("op-" + std::to_string(i)));
    cluster.run_for(10.0);

    EXPECT_EQ(cluster.executed_requests(0), 30u);
    EXPECT_TRUE(cluster.logs_consistent());
    EXPECT_EQ(cluster.max_view(), 0u); // no view change in the happy path
    const auto& log = cluster.log_of(0);
    ASSERT_FALSE(log.empty());
    for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log[i].sequence, i + 1);
}

TEST(Pbft, AllReplicasExecuteTheSame) {
    PbftCluster cluster(small_cluster(), 2);
    for (int i = 0; i < 50; ++i) cluster.submit(to_bytes("req" + std::to_string(i)));
    cluster.run_for(15.0);
    for (std::uint32_t r = 1; r < cluster.replica_count(); ++r)
        EXPECT_EQ(cluster.executed_requests(r), cluster.executed_requests(0));
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Pbft, ToleratesOneCrashedBackup) {
    PbftCluster cluster(small_cluster(), 3);
    cluster.set_fault(2, PbftFault::kCrashed); // backup, not primary (view 0 -> 0)
    for (int i = 0; i < 20; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(10.0);
    EXPECT_EQ(cluster.executed_requests(0), 20u);
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Pbft, CrashedPrimaryTriggersViewChangeAndRecovers) {
    PbftCluster cluster(small_cluster(), 4);
    cluster.set_fault(0, PbftFault::kCrashed); // primary of view 0
    for (int i = 0; i < 15; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(30.0);

    EXPECT_GE(cluster.max_view(), 1u); // a view change happened
    EXPECT_EQ(cluster.executed_requests(1), 15u);
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Pbft, EquivocatingPrimaryCannotSplitTheCluster) {
    PbftCluster cluster(small_cluster(), 5);
    cluster.set_fault(0, PbftFault::kEquivocating);
    for (int i = 0; i < 12; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(40.0);

    // Progress resumed under a new (honest) primary, and no divergence.
    EXPECT_TRUE(cluster.logs_consistent());
    EXPECT_GE(cluster.max_view(), 1u);
    EXPECT_EQ(cluster.executed_requests(1), 12u);
}

TEST(Pbft, TwoCrashesWithFOneStallsButStaysConsistent) {
    // f=1 tolerates one fault; two crashed replicas leave only 2 of 4 — below
    // the 2f+1 quorum, so nothing can commit, but safety must hold.
    PbftCluster cluster(small_cluster(), 6);
    cluster.set_fault(2, PbftFault::kCrashed);
    cluster.set_fault(3, PbftFault::kCrashed);
    for (int i = 0; i < 10; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(30.0);
    EXPECT_EQ(cluster.executed_requests(0), 0u);
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Pbft, LargerClusterCommits) {
    PbftConfig config = small_cluster();
    config.f = 2; // n = 7
    PbftCluster cluster(config, 7);
    for (int i = 0; i < 40; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(15.0);
    EXPECT_EQ(cluster.executed_requests(0), 40u);
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST(Pbft, LatencyIsNetworkBoundNotBlockBound) {
    PbftCluster cluster(small_cluster(), 8);
    for (int i = 0; i < 10; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(10.0);
    const auto latency = cluster.mean_commit_latency();
    ASSERT_TRUE(latency.has_value());
    // Three message rounds at ~50 ms per hop plus batch wait << 1 s — orders of
    // magnitude below PoW confirmation (600 s).
    EXPECT_LT(*latency, 2.0);
}

TEST(Pbft, QuorumSplittingPartitionStallsThenRecoversAfterHeal) {
    // E22's PBFT side: a 2|2 split of an f=1 cluster leaves both sides below
    // the 2f+1 quorum. Nothing may commit during the cut (liveness loss), and
    // safety must hold; after the heal the retried view changes must restore
    // liveness and every pending request commits consistently.
    PbftCluster cluster(small_cluster(), 9);
    cluster.network().partition("cut", {{0, 1}, {2, 3}});
    for (int i = 0; i < 10; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(30.0);
    for (std::uint32_t r = 0; r < cluster.replica_count(); ++r)
        EXPECT_EQ(cluster.executed_requests(r), 0u) << "replica " << r;
    EXPECT_TRUE(cluster.logs_consistent());
    EXPECT_GT(cluster.traffic().messages_partitioned, 0u);

    cluster.network().heal("cut");
    cluster.run_for(60.0);
    for (std::uint32_t r = 0; r < cluster.replica_count(); ++r)
        EXPECT_EQ(cluster.executed_requests(r), 10u) << "replica " << r;
    EXPECT_TRUE(cluster.logs_consistent());
    // The stalled view-0 primary was voted out while timers expired in vain.
    EXPECT_GE(cluster.max_view(), 1u);
}

TEST(Pbft, FaultPlanDrivesPartitionOnSchedule) {
    // Same scenario via a declarative FaultPlan instead of manual calls.
    PbftCluster cluster(small_cluster(), 10);
    net::FaultPlan plan;
    plan.cut(1.0, "cut", {{0, 1}, {2, 3}}).heal(25.0, "cut");
    cluster.network().apply(plan);
    cluster.run_for(2.0); // let the scheduled cut take effect before submitting
    for (int i = 0; i < 8; ++i) cluster.submit(to_bytes("r" + std::to_string(i)));
    cluster.run_for(18.0);
    EXPECT_EQ(cluster.executed_requests(0), 0u); // still cut at t=20
    cluster.run_for(60.0);
    for (std::uint32_t r = 0; r < cluster.replica_count(); ++r)
        EXPECT_EQ(cluster.executed_requests(r), 8u) << "replica " << r;
    EXPECT_TRUE(cluster.logs_consistent());
}

// --- PBFT golden runs ---------------------------------------------------------------------
//
// Each digest covers every replica's committed log (sequence, view, requests,
// commit time) and the network's traffic counters after one seeded run, so any
// change to message order, timing or count shows. The experiments that run
// PbftCluster (E04, E08, E17, E19, E22, E27) promise byte-identical outputs;
// a change that moves these digests breaks that promise.

std::string pbft_run_digest(const PbftCluster& cluster) {
    Writer w;
    for (std::uint32_t r = 0; r < cluster.replica_count(); ++r) {
        const auto& log = cluster.log_of(r);
        w.varint(log.size());
        for (const auto& batch : log) {
            w.u64(batch.sequence);
            w.u32(batch.view);
            w.f64(batch.committed_at);
            w.varint(batch.requests.size());
            for (const auto& request : batch.requests) w.blob(request);
        }
    }
    const net::TrafficStats& t = cluster.traffic();
    for (const std::uint64_t v :
         {t.messages_sent, t.bytes_sent, t.messages_dropped, t.messages_lost,
          t.messages_duplicated, t.messages_partitioned, t.messages_from_crashed})
        w.u64(v);
    return crypto::sha256(w.data()).hex();
}

void submit_requests(PbftCluster& cluster, int count) {
    for (int i = 0; i < count; ++i) cluster.submit(to_bytes("g" + std::to_string(i)));
}

TEST(PbftGolden, Honest) {
    PbftCluster cluster(small_cluster(), 21);
    submit_requests(cluster, 30);
    cluster.run_for(5.0);
    submit_requests(cluster, 25);
    cluster.run_for(10.0);
    EXPECT_EQ(cluster.executed_requests(3), 55u);
    EXPECT_EQ(pbft_run_digest(cluster),
              "70a4a8b7d8cddd8624a49f79e6542c6a87f25e9234a6934465e8cd54ff53399e");
}

TEST(PbftGolden, CrashedPrimary) {
    PbftCluster cluster(small_cluster(), 22);
    cluster.set_fault(0, PbftFault::kCrashed);
    submit_requests(cluster, 15);
    cluster.run_for(30.0);
    EXPECT_GE(cluster.max_view(), 1u);
    EXPECT_EQ(cluster.executed_requests(1), 15u);
    EXPECT_EQ(pbft_run_digest(cluster),
              "22e616cfedb350beb8b1cdbb427e7312f2d7eb8abc44bce1d749a160efad80b7");
}

TEST(PbftGolden, EquivocatingPrimary) {
    PbftCluster cluster(small_cluster(), 23);
    cluster.set_fault(0, PbftFault::kEquivocating);
    submit_requests(cluster, 12);
    cluster.run_for(40.0);
    EXPECT_GE(cluster.max_view(), 1u);
    EXPECT_EQ(cluster.executed_requests(1), 12u);
    EXPECT_EQ(pbft_run_digest(cluster),
              "7b528e4be63e2b49e46fcd3a2e5057b51aad95c539325eed522b0d0b49c0ecd7");
}

TEST(PbftGolden, HealedTwoTwoPartition) {
    PbftCluster cluster(small_cluster(), 24);
    cluster.network().partition("cut", {{0, 1}, {2, 3}});
    submit_requests(cluster, 10);
    cluster.run_for(30.0);
    cluster.network().heal("cut");
    cluster.run_for(60.0);
    EXPECT_GE(cluster.max_view(), 1u);
    EXPECT_EQ(cluster.executed_requests(0), 10u);
    EXPECT_EQ(pbft_run_digest(cluster),
              "42f186edac4545d5dd44a785209a244eaa9ade36f74169b9518cb8628d0d9dae");
}

// --- Bitcoin-NG -----------------------------------------------------------------------------

TEST(BitcoinNg, ThroughputFarExceedsKeyBlockRate) {
    BitcoinNgParams params;
    params.key_block_interval = 600.0;
    params.microblock_interval = 1.0;
    params.tx_rate = 40.0;
    BitcoinNgSimulation sim(params, 1);
    sim.start();
    sim.run_for(3600);

    // Nakamoto at the same interval and ~2000 tx/block serializes ~3.3 tps;
    // NG keeps up with the offered load instead.
    EXPECT_GT(sim.throughput_tps(), 30.0);
    EXPECT_GT(sim.stats().microblocks, sim.stats().key_blocks);
}

TEST(BitcoinNg, InclusionLatencyTracksMicroblockInterval) {
    BitcoinNgParams params;
    params.microblock_interval = 0.5;
    params.tx_rate = 20.0;
    BitcoinNgSimulation sim(params, 2);
    sim.start();
    sim.run_for(3600);
    const auto latency = sim.mean_inclusion_latency();
    ASSERT_TRUE(latency.has_value());
    EXPECT_LT(*latency, 5.0); // far below the 600 s key-block interval
}

TEST(BitcoinNg, LeaderSwitchesHappen) {
    BitcoinNgParams params;
    params.key_block_interval = 100.0;
    BitcoinNgSimulation sim(params, 3);
    sim.start();
    sim.run_for(100.0 * 50);
    EXPECT_GT(sim.stats().key_blocks, 20u);
    EXPECT_GT(sim.stats().leader_switches, 5u);
}

} // namespace
