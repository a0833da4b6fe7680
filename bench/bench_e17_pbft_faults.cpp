// E17 — §2.4 (PBFT fault model): a 3f+1 cluster commits with up to f faulty
// replicas, changes views away from a crashed or equivocating primary, and
// stalls safely (no divergence) beyond f faults. Exits non-zero when a row
// breaks that claim.
#include "bench_util.hpp"
#include "common/serialize.hpp"
#include "consensus/pbft.hpp"

using namespace dlt;
using namespace dlt::consensus;

namespace {

struct Result {
    std::size_t executed;
    bool consistent;
    std::uint32_t views;
    double latency;
};

Result run(std::uint32_t f, const std::vector<std::pair<std::uint32_t, PbftFault>>& faults,
           std::uint64_t seed) {
    PbftConfig config;
    config.f = f;
    config.batch_size = 50;
    config.batch_interval = 0.1;
    config.view_change_timeout = 3.0;
    PbftCluster cluster(config, seed);
    for (const auto& [replica, fault] : faults) cluster.set_fault(replica, fault);
    const int requests = 200;
    for (int i = 0; i < requests; ++i) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(i));
        cluster.submit(std::move(w).take());
    }
    cluster.run_for(120.0);

    // Report from a correct replica.
    std::uint32_t correct = 0;
    for (const auto& [replica, fault] : faults)
        if (replica == correct) ++correct;
    Result r;
    r.executed = cluster.executed_requests(correct);
    r.consistent = cluster.logs_consistent();
    r.views = cluster.max_view();
    r.latency = cluster.mean_commit_latency().value_or(-1);
    return r;
}

} // namespace

int main() {
    bench::Run bench_run("E17");
    bench::ObsEnv obs_env;
    bench::title("E17: PBFT under faults (§2.4)",
                 "Claim: 3f+1 replicas commit identical logs with up to f "
                 "Byzantine members; beyond f the cluster stalls but never "
                 "diverges.");

    bench::Table table({"n", "f", "scenario", "executed/200", "consistent",
                        "views", "latency-s"});

    struct Scenario {
        std::uint32_t f;
        std::string name;
        std::vector<std::pair<std::uint32_t, PbftFault>> faults;
    };
    const std::vector<Scenario> scenarios = {
        {1, "no faults", {}},
        {1, "1 crashed backup", {{2, PbftFault::kCrashed}}},
        {1, "crashed primary", {{0, PbftFault::kCrashed}}},
        {1, "equivocating primary", {{0, PbftFault::kEquivocating}}},
        {1, "2 crashes (beyond f)", {{2, PbftFault::kCrashed}, {3, PbftFault::kCrashed}}},
        {2, "no faults (n=7)", {}},
        {2, "2 crashed backups (n=7)",
         {{3, PbftFault::kCrashed}, {4, PbftFault::kCrashed}}},
    };

    std::uint64_t seed = 1700;
    bool claim_holds = true;
    for (const auto& scenario : scenarios) {
        const Result r = run(scenario.f, scenario.faults, seed++);
        const bool beyond_f = scenario.faults.size() > scenario.f;
        if (!r.consistent || r.executed != (beyond_f ? 0u : 200u)) {
            std::fprintf(stderr, "E17 claim broken: %s executed %zu/200%s\n",
                         scenario.name.c_str(), r.executed,
                         r.consistent ? "" : ", logs diverged");
            claim_holds = false;
        }
        table.row({bench::fmt_int(3 * scenario.f + 1), bench::fmt_int(scenario.f),
                   scenario.name, bench::fmt_int(r.executed),
                   r.consistent ? "yes" : "NO", bench::fmt_int(r.views),
                   r.latency >= 0 ? bench::fmt(r.latency, 3) : "-"});
    }
    table.print();

    std::printf("\nExpected shape: all f-bounded scenarios execute all 200 "
                "requests (primary faults after a view change); the beyond-f "
                "scenario executes 0 but stays consistent — safety over "
                "liveness.\n");
    return claim_holds ? 0 : 1;
}
