// Outside view of a daemon through /proc: CPU ticks of the process and of
// each of its threads, and peak resident memory. The daemons are children of
// the benchmark process, so their /proc entries are readable without any
// support from the program.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct ThreadTicks {
    int tid = 0;
    CpuTicks ticks;
};

struct ProcSample {
    CpuTicks process;
    std::vector<ThreadTicks> threads; // sorted by tid
    double vm_hwm_mb = 0;             // peak RSS so far (VmHWM)
};

/// Clock ticks per second of the /proc CPU fields.
double ticks_per_second();

/// Sample one live process; nullopt when it is gone or unreadable.
std::optional<ProcSample> sample_process(int pid);

/// VmHWM of a /proc/<pid>/status text, in MB (1 MB = 2^20 bytes).
std::optional<double> parse_vm_hwm_mb(const std::string& status_text);

/// CPU ticks of a daemon's event-loop and RPC threads over a window. The
/// loop thread is the busiest thread other than main; the RPC thread is
/// started right after it (NodeDaemon::start), so it holds the next tid.
struct ThreadRoles {
    CpuTicks loop;
    CpuTicks rpc;
};
/// Live dlt-node children of this process, as (node id, pid) from their
/// --id argument, sorted by node id.
std::vector<std::pair<std::uint32_t, int>> daemon_pids();

std::optional<ThreadRoles> thread_roles(int pid, const ProcSample& start,
                                        const ProcSample& end);

} // namespace perfbench
