// Tests for the pluggable attack drivers (consensus/attack.hpp): the
// Eyal–Sirer selfish miner's state machine and revenue superlinearity, the
// eclipse bridge (partition + relay filter + private-fork feed + heal), and
// the interposition hooks they are built on. E27's scenario matrix composes
// these drivers with faults and load; these tests pin each driver alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "consensus/attack.hpp"
#include "consensus/nakamoto.hpp"

namespace {

using namespace dlt;
using namespace dlt::consensus;

NakamotoParams attack_params(std::size_t nodes, double attacker_share,
                             net::NodeId attacker) {
    NakamotoParams params;
    params.node_count = nodes;
    params.block_interval = 10.0;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    params.hashrate_shares.assign(nodes, (1.0 - attacker_share) /
                                             static_cast<double>(nodes - 1));
    params.hashrate_shares[attacker] = attacker_share;
    return params;
}

// --- Selfish mining ---------------------------------------------------------------

TEST(SelfishMiner, WithholdsAndReleasesThroughHook) {
    NakamotoParams params = attack_params(8, 0.40, 1);
    NakamotoNetwork net(params, 901);
    SelfishMiner selfish(net, 1);
    net.start();
    net.run_for(600.0);

    const SelfishStats& s = selfish.stats();
    EXPECT_GT(s.blocks_mined, 10u); // ~40% of ~60 blocks
    // Everything mined is either still withheld, released, or died in an
    // abandoned fork; the driver never loses track of a block.
    EXPECT_GE(s.blocks_mined, s.blocks_published);
    EXPECT_GT(s.max_lead, 0u);

    selfish.finish();
    net.run_for(120.0);
    EXPECT_EQ(selfish.withheld_count(), 0u); // finish() flushed the fork
    EXPECT_TRUE(net.converged());
}

TEST(SelfishMiner, SuperlinearRevenueAboveThreshold) {
    // Eyal–Sirer: above α ≈ 1/3 (γ = 0) the selfish strategy's canonical-chain
    // revenue share exceeds its hash share. At α = 0.40 theory (γ = 0) gives
    // ≈ 0.486; the in-network γ is slightly positive (latency races), so the
    // realized share must clear the hash share with margin on a long run.
    NakamotoParams params = attack_params(10, 0.40, 1);
    NakamotoNetwork net(params, 902);
    SelfishMiner selfish(net, 1);
    net.start();
    net.run_for(20'000.0);
    selfish.finish();
    net.run_for(300.0);

    const double revenue = proposer_share(net, 1);
    const SelfishStats& s = selfish.stats();
    std::printf("[selfish] mined=%llu published=%llu abandoned=%llu ties=%llu "
                "max_lead=%llu revenue=%.3f\n",
                static_cast<unsigned long long>(s.blocks_mined),
                static_cast<unsigned long long>(s.blocks_published),
                static_cast<unsigned long long>(s.forks_abandoned),
                static_cast<unsigned long long>(s.tie_races),
                static_cast<unsigned long long>(s.max_lead), revenue);
    EXPECT_GT(revenue, 0.40);
}

// The orphan walk-back must survive a "d/notfound": in this run a node once
// stopped at height 370 while the others reached 1,108, its orphans waiting
// on a parent that nobody was asked for again.
TEST(SelfishMiner, EveryNodeEndsNearTheHighestTip) {
    NakamotoParams params = attack_params(10, 0.40, 1);
    NakamotoNetwork net(params, 902);
    SelfishMiner selfish(net, 1);
    net.start();
    net.run_for(20'000.0);
    selfish.finish();
    net.run_for(300.0);

    std::uint64_t highest = 0;
    for (net::NodeId n = 0; n < net.node_count(); ++n)
        highest = std::max(highest, net.height_of(n));
    for (net::NodeId n = 0; n < net.node_count(); ++n)
        EXPECT_GE(net.height_of(n) + params.finality_depth, highest) << "node " << n;
}

TEST(SelfishMiner, HonestBaselineMatchesHashShare) {
    // Control: without the driver the same attacker share earns ≈ its hash
    // share (within Monte Carlo noise) — pins that the superlinearity above
    // comes from the strategy, not from some bias in the mining schedule.
    NakamotoParams params = attack_params(10, 0.40, 1);
    NakamotoNetwork net(params, 902);
    net.start();
    net.run_for(20'000.0);
    net.run_for(300.0);
    const double share = proposer_share(net, 1);
    EXPECT_NEAR(share, 0.40, 0.05);
}

// --- Eclipse ----------------------------------------------------------------------

TEST(EclipseAttack, VictimFollowsAttackerFork) {
    NakamotoParams params = attack_params(8, 0.30, 0);
    NakamotoNetwork net(params, 903);
    net.start();
    net.run_for(200.0); // shared history first

    EclipseParams ep;
    ep.attacker = 0;
    ep.victim = 1;
    EclipseAttack eclipse(net, ep);
    net.run_for(300.0);

    // While eclipsed, the victim's chain may only advance along records the
    // attacker fed it: its tip is the attacker's tip (or an ancestor in
    // flight), never the honest network's.
    EXPECT_FALSE(net.converged());
    const Hash256 victim_tip = net.tip_of(1);
    const bool on_attacker_chain =
        victim_tip == net.tip_of(0) ||
        net.chain_of(0).find(victim_tip) != nullptr;
    EXPECT_TRUE(on_attacker_chain);
    EXPECT_GT(eclipse.fork_blocks(), 0u);

    eclipse.heal();
    net.run_for(300.0);
    EXPECT_TRUE(net.converged()); // honest work wins, victim rejoins
    EXPECT_EQ(net.tip_of(1), net.tip_of(2));
}

TEST(EclipseAttack, HealIsIdempotentAndRestoresFilters) {
    NakamotoParams params = attack_params(6, 0.25, 0);
    NakamotoNetwork net(params, 904);
    net.start();
    net.run_for(100.0);
    EclipseParams ep;
    ep.attacker = 0;
    ep.victim = 1;
    EclipseAttack eclipse(net, ep);
    net.run_for(100.0);
    eclipse.heal();
    eclipse.heal(); // second heal is a no-op
    net.run_for(400.0);
    EXPECT_TRUE(net.converged());
}

} // namespace
