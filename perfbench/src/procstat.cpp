#include "procstat.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::optional<std::string> read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

CpuTicks delta(const CpuTicks& a, const CpuTicks& b) {
    return CpuTicks{b.user >= a.user ? b.user - a.user : 0,
                    b.sys >= a.sys ? b.sys - a.sys : 0};
}

} // namespace

double ticks_per_second() { return static_cast<double>(::sysconf(_SC_CLK_TCK)); }

std::optional<double> parse_vm_hwm_mb(const std::string& status_text) {
    const auto pos = status_text.find("VmHWM:");
    if (pos == std::string::npos) return std::nullopt;
    std::istringstream in(status_text.substr(pos + 6));
    double kb = 0;
    std::string unit;
    if (!(in >> kb >> unit) || unit != "kB") return std::nullopt;
    return kb / 1024.0;
}

std::optional<ProcSample> sample_process(int pid) {
    const std::filesystem::path dir = "/proc/" + std::to_string(pid);
    ProcSample sample;
    const auto stat = read_file(dir / "stat");
    const auto status = read_file(dir / "status");
    if (!stat || !status) return std::nullopt;
    const auto process = parse_proc_stat(*stat);
    const auto hwm = parse_vm_hwm_mb(*status);
    if (!process || !hwm) return std::nullopt;
    sample.process = *process;
    sample.vm_hwm_mb = *hwm;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir / "task", ec)) {
        const auto line = read_file(entry.path() / "stat");
        if (!line) continue; // thread exited between listing and reading
        if (const auto ticks = parse_proc_stat(*line))
            sample.threads.push_back(
                ThreadTicks{std::stoi(entry.path().filename().string()), *ticks});
    }
    if (ec) return std::nullopt;
    std::sort(sample.threads.begin(), sample.threads.end(),
              [](const ThreadTicks& a, const ThreadTicks& b) { return a.tid < b.tid; });
    return sample;
}

std::vector<std::pair<std::uint32_t, int>> daemon_pids() {
    std::vector<std::pair<std::uint32_t, int>> out;
    const std::string self = std::to_string(::getpid());
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.empty() || !std::all_of(name.begin(), name.end(),
                                         [](char c) { return c >= '0' && c <= '9'; }))
            continue;
        const auto stat = read_file(entry.path() / "stat");
        if (!stat) continue;
        const auto close = stat->rfind(')');
        if (close == std::string::npos) continue;
        std::istringstream fields(stat->substr(close + 1));
        std::string state, ppid;
        if (!(fields >> state >> ppid) || ppid != self || state == "Z") continue;
        const auto cmdline = read_file(entry.path() / "cmdline");
        if (!cmdline) continue;
        std::vector<std::string> args;
        std::string arg;
        for (const char c : *cmdline) {
            if (c == '\0') {
                args.push_back(arg);
                arg.clear();
            } else {
                arg += c;
            }
        }
        for (std::size_t i = 0; i + 1 < args.size(); ++i)
            if (args[i] == "--id")
                out.emplace_back(static_cast<std::uint32_t>(std::stoul(args[i + 1])),
                                 std::stoi(name));
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<ThreadRoles> thread_roles(int pid, const ProcSample& start,
                                        const ProcSample& end) {
    std::vector<ThreadTicks> deltas;
    for (const ThreadTicks& t : end.threads) {
        if (t.tid == pid) continue;
        const auto before = std::find_if(
            start.threads.begin(), start.threads.end(),
            [&](const ThreadTicks& s) { return s.tid == t.tid; });
        deltas.push_back(ThreadTicks{
            t.tid, before == start.threads.end() ? t.ticks : delta(before->ticks, t.ticks)});
    }
    if (deltas.size() < 2) return std::nullopt;
    const auto loop = std::max_element(
        deltas.begin(), deltas.end(), [](const ThreadTicks& a, const ThreadTicks& b) {
            return a.ticks.total() < b.ticks.total();
        });
    const auto rpc = std::next(loop);
    if (rpc == deltas.end()) return std::nullopt;
    return ThreadRoles{loop->ticks, rpc->ticks};
}

} // namespace perfbench
