// E18 — §2.3 (P2P dissemination): gossip propagation time grows slowly
// (logarithmically) with network size; fanout trades redundancy (bandwidth)
// against propagation speed and delivery ratio.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "net/gossip.hpp"

using namespace dlt;
using namespace dlt::net;

namespace {

struct RunResult {
    double t50 = -1;
    double t99 = -1;
    double delivery = 0;
    std::uint64_t messages = 0;
};

RunResult run(std::size_t nodes, std::size_t fanout, std::uint64_t seed) {
    sim::Scheduler sched;
    Network net(sched, Rng(seed));
    GossipParams params;
    params.fanout = fanout;
    GossipOverlay overlay(net, nodes, params,
                          [](NodeId, NodeId, const std::string&, ByteView) {});
    net.build_unstructured_overlay(6);

    // Average over several broadcasts from random origins.
    Rng origins(seed ^ 0x77);
    RunResult result;
    const int rounds = 5;
    double t50_sum = 0, t99_sum = 0, delivery_sum = 0;
    int t50_count = 0, t99_count = 0;
    for (int i = 0; i < rounds; ++i) {
        const auto origin = static_cast<NodeId>(origins.uniform(nodes));
        const Hash256 id = overlay.broadcast(origin, "block", Bytes(500, 0xAB));
        sched.run();
        delivery_sum += overlay.delivery_ratio(id);
        if (const auto t = overlay.time_to_quantile(id, 0.5)) {
            t50_sum += *t;
            ++t50_count;
        }
        if (const auto t = overlay.time_to_quantile(id, 0.99)) {
            t99_sum += *t;
            ++t99_count;
        }
    }
    result.delivery = delivery_sum / rounds;
    if (t50_count > 0) result.t50 = t50_sum / t50_count;
    if (t99_count > 0) result.t99 = t99_sum / t99_count;
    result.messages = net.stats().messages_sent / rounds;
    return result;
}

} // namespace

int main() {
    bench::Run bench_run("E18");
    bench::ObsEnv obs_env;
    bench::title("E18: gossip propagation (§2.3)",
                 "Claim: multi-round gossip reaches the whole unstructured "
                 "overlay in O(log n) time; fanout trades bandwidth for speed.");

    // Flooding must reach every node: a flood row below full delivery breaks
    // the claim (and the exit code), named on stderr.
    bool claim_holds = true;
    const auto check_flood = [&](const std::string& row, const RunResult& r) {
        if (r.delivery >= 1.0) return;
        std::fprintf(stderr, "E18 claim broken: flood row %s delivered %.4f\n",
                     row.c_str(), r.delivery);
        claim_holds = false;
    };

    std::printf("Network-size sweep (flooding, degree-6 overlay, 50 ms links):\n");
    {
        bench::Table table({"nodes", "t50-ms", "t99-ms", "delivery", "msgs/broadcast"});
        for (const std::size_t n : {16u, 64u, 256u, 1024u}) {
            const RunResult r = run(n, 0, 1800 + n);
            check_flood("nodes=" + std::to_string(n), r);
            table.row({bench::fmt_int(n),
                       r.t50 >= 0 ? bench::fmt(r.t50 * 1000, 0) : "-",
                       r.t99 >= 0 ? bench::fmt(r.t99 * 1000, 0) : "-",
                       bench::fmt(r.delivery, 3), bench::fmt_int(r.messages)});
        }
        table.print();
    }

    std::printf("\nFanout sweep (256 nodes):\n");
    {
        bench::Table table({"fanout", "t99-ms", "delivery", "msgs/broadcast"});
        for (const std::size_t fanout : {1u, 2u, 3u, 4u, 0u}) {
            const RunResult r = run(256, fanout, 1900 + fanout);
            if (fanout == 0) check_flood("fanout=flood", r);
            table.row({fanout == 0 ? "flood" : bench::fmt_int(fanout),
                       r.t99 >= 0 ? bench::fmt(r.t99 * 1000, 0) : "incomplete",
                       bench::fmt(r.delivery, 3), bench::fmt_int(r.messages)});
        }
        table.print();
    }

    std::printf("\nExpected shape: t99 grows ~logarithmically across a 64x size "
                "increase; low fanout saves messages but risks partial delivery, "
                "flooding maximizes both cost and coverage.\n");
    return claim_holds ? 0 : 1;
}
