#include "loader.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <thread>

#include "app/workload.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "ledger/mempool.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using namespace dlt;

namespace {

/// TxHost that records the engine's submissions instead of feeding a network.
class TraceHost final : public app::TxHost {
public:
    sim::Scheduler& scheduler() override { return scheduler_; }
    const ledger::Mempool& mempool_of(net::NodeId) const override { return mempool_; }
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin) override {
        arrivals.push_back(Arrival{
            scheduler_.now(), static_cast<std::uint32_t>(origin),
            net::transport::encode_message_frame("submit", ByteView(encode_to_bytes(tx)))});
    }

    std::vector<Arrival> arrivals;

private:
    sim::Scheduler scheduler_;
    ledger::Mempool mempool_; // empty: fee-following agents bid the floor
};

double steady_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// CPU time of the calling thread, in seconds.
double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

std::vector<Arrival> make_trace(double rate, double duration, std::uint32_t nodes,
                                std::uint64_t seed) {
    TraceHost host;
    app::WorkloadParams params;
    params.population = 100'000;
    params.base_tps = rate;
    params.submit_nodes = nodes;
    app::WorkloadEngine engine(host, params, seed);
    engine.start();
    host.scheduler().run_until(duration);
    engine.stop();
    return std::move(host.arrivals);
}

const char* rpc_name(Rpc kind) {
    switch (kind) {
        case Rpc::kSubmit: return "submit";
        case Rpc::kStatus: return "status";
        case Rpc::kLatencies: return "latencies";
        case Rpc::kMetrics: return "metrics";
    }
    return "?";
}

// --- RpcPipe -------------------------------------------------------------------

bool RpcPipe::connect(std::uint16_t port, double timeout_s) {
    close();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const double deadline = steady_s() + timeout_s;
    while (steady_s() < deadline) {
        // SOCK_CLOEXEC: ClusterDriver forks daemons without closing inherited
        // descriptors, and a daemon holding a copy of this socket would keep
        // the peer daemon's single RPC slot busy after we close ours.
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return false;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            const int flags = ::fcntl(fd, F_GETFL, 0);
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            fd_ = fd;
            return true;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

void RpcPipe::close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    out_.clear();
    out_off_ = 0;
    pending_.clear();
    decoder_ = net::transport::FrameDecoder();
}

void RpcPipe::queue(Rpc kind, std::uint64_t tag, const Bytes& frame, double now) {
    if (out_off_ == out_.size()) {
        out_.clear();
        out_off_ = 0;
    }
    out_.insert(out_.end(), frame.begin(), frame.end());
    pending_.push_back(Pending{kind, tag, now});
}

bool RpcPipe::flush() {
    while (out_off_ < out_.size()) {
        const ssize_t n =
            ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        out_off_ += static_cast<std::size_t>(n);
    }
    return true;
}

bool RpcPipe::receive(std::uint32_t node, double now, std::vector<Reply>& out) {
    std::uint8_t buf[65536];
    while (true) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0) return false;
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            return false;
        }
        decoder_.feed(ByteView(buf, static_cast<std::size_t>(n)));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    }
    try {
        while (auto frame = decoder_.next()) {
            if (frame->kind != net::transport::FrameKind::kMessage || pending_.empty())
                return false;
            auto msg = net::transport::decode_message_payload(ByteView(frame->payload));
            const Pending p = pending_.front();
            pending_.pop_front();
            if (msg.topic != rpc_name(p.kind)) return false;
            out.push_back(Reply{p.kind, node, p.tag, p.sent_at, now, std::move(msg.body)});
        }
    } catch (const DecodeError&) {
        return false;
    }
    return true;
}

// --- Loader --------------------------------------------------------------------

Loader::Loader(const std::vector<std::uint16_t>& ports,
               const std::vector<Arrival>& trace, bool tracing)
    : trace_(trace), tracing_(tracing) {
    for (const std::uint16_t port : ports) {
        pipes_.emplace_back();
        if (!pipes_.back().connect(port, 10.0))
            throw Error("loader: cannot connect to RPC port " + std::to_string(port));
    }
    t0_ = steady_s();
    slice_cpu_start_ = thread_cpu_s();
}

double Loader::now() const { return steady_s() - t0_; }

void Loader::control(std::uint32_t node, Rpc kind, std::uint64_t tag) {
    static const Bytes frames[] = {
        Bytes{},
        net::transport::encode_message_frame("status", ByteView()),
        net::transport::encode_message_frame("latencies", ByteView()),
        net::transport::encode_message_frame("metrics", ByteView()),
    };
    pipes_.at(node).queue(kind, tag, frames[static_cast<int>(kind)], now());
    ++stats_.control_rpcs;
    ++slice_rpcs_;
}

void Loader::account_cpu(double now) {
    if (trace_done()) return; // compare the two kinds of second under load only
    const long slice = static_cast<long>(now);
    if (slice == slice_) return;
    const double cpu = thread_cpu_s();
    if (slice_ > 0 && !slice_bulky_) {
        stats_.cpu_s[slice_ % 2] += cpu - slice_cpu_start_;
        stats_.rpcs[slice_ % 2] += slice_rpcs_;
    }
    slice_cpu_start_ = cpu;
    slice_ = slice;
    slice_rpcs_ = 0;
    slice_bulky_ = false;
}

bool Loader::run(const std::function<bool()>& done,
                 const std::function<void(double)>& tick,
                 const std::function<void(const Reply&)>& on_reply, double deadline_s) {
    std::vector<pollfd> fds(pipes_.size());
    std::vector<Reply> replies;
    while (!done()) {
        double t = now();
        if (t > deadline_s) return false;
        account_cpu(t);
        while (next_ < trace_.size() && trace_[next_].at <= t) {
            const Arrival& a = trace_[next_];
            pipes_.at(a.node).queue(Rpc::kSubmit, next_, a.frame, a.at);
            stats_.late.push_back(t - a.at);
            ++stats_.sent;
            ++slice_rpcs_;
            ++next_;
        }
        tick(t);
        for (std::size_t i = 0; i < pipes_.size(); ++i) {
            if (!pipes_[i].flush()) throw Error("loader: send to node failed");
            fds[i] = pollfd{pipes_[i].fd(),
                            static_cast<short>(POLLIN | (pipes_[i].wants_write() ? POLLOUT : 0)),
                            0};
        }
        // Sleep until the next arrival is due, at most 1 ms, so ticks stay
        // frequent and the loader's lateness stays visible in `late`.
        const double wait =
            next_ < trace_.size() ? std::clamp(trace_[next_].at - now(), 0.0, 1e-3) : 1e-3;
        const timespec ts{0, static_cast<long>(wait * 1e9)};
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready < 0 && errno != EINTR) throw Error("loader: poll failed");
        if (ready <= 0) continue;
        t = now();
        replies.clear();
        for (std::size_t i = 0; i < pipes_.size(); ++i) {
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL))
                throw Error("loader: connection to node " + std::to_string(i) + " failed");
            if ((fds[i].revents & POLLIN) &&
                !pipes_[i].receive(static_cast<std::uint32_t>(i), t, replies))
                throw Error("loader: connection to node " + std::to_string(i) + " broke");
        }
        for (const Reply& r : replies) {
            if (tracing_ && static_cast<long>(r.sent_at) % 2 == 1)
                stats_.spans.push_back(Span{r.kind, r.node, r.tag, r.sent_at, r.received_at});
            if (r.kind != Rpc::kSubmit) {
                slice_bulky_ = slice_bulky_ || r.kind != Rpc::kStatus;
                on_reply(r);
                continue;
            }
            if (!r.body.empty() && r.body[0] == 1) {
                ++stats_.accepted;
                stats_.submit_lag.push_back(r.received_at - trace_[r.tag].at);
            } else {
                ++stats_.refused;
            }
        }
    }
    return true;
}

} // namespace perfbench
