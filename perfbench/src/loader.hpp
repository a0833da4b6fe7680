// Single-threaded open-loop loader. It replays a demand trace over one
// pipelined RPC connection per daemon: requests are written when they are
// due, whether or not earlier replies have come back, and each reply is
// matched to the oldest request still open on its connection (a daemon
// answers one client's requests in order). Control RPCs (status, latencies,
// metrics) share the same connections, because a daemon serves a single RPC
// client at a time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/transport/frame.hpp"

namespace perfbench {

/// One arrival of the demand trace: when it is due, which node receives it,
/// and its ready-to-send "submit" frame.
struct Arrival {
    double at = 0;
    std::uint32_t node = 0;
    dlt::Bytes frame;
};

/// The demand trace of app::WorkloadEngine at `rate` tx/s for `duration`
/// seconds, spread over `nodes` submit nodes, seeded by `seed`.
std::vector<Arrival> make_trace(double rate, double duration, std::uint32_t nodes,
                                std::uint64_t seed);

enum class Rpc : std::uint8_t { kSubmit, kStatus, kLatencies, kMetrics };
const char* rpc_name(Rpc kind);

struct Reply {
    Rpc kind = Rpc::kSubmit;
    std::uint32_t node = 0;
    std::uint64_t tag = 0; // arrival index for submits, caller's tag otherwise
    double sent_at = 0;
    double received_at = 0;
    dlt::Bytes body;
};

/// A pipelined, non-blocking, close-on-exec RPC connection to one daemon.
class RpcPipe {
public:
    RpcPipe() = default;
    ~RpcPipe() { close(); }
    RpcPipe(const RpcPipe&) = delete;
    RpcPipe& operator=(const RpcPipe&) = delete;

    /// Connect to 127.0.0.1:`port`, retrying until `timeout_s` elapses.
    bool connect(std::uint16_t port, double timeout_s);
    void close();

    void queue(Rpc kind, std::uint64_t tag, const dlt::Bytes& frame, double now);
    /// Write as much queued output as the socket takes. False on error.
    bool flush();
    /// Read what has arrived and append the completed replies. False on error
    /// or when the daemon closed the connection.
    bool receive(std::uint32_t node, double now, std::vector<Reply>& out);

    int fd() const { return fd_; }
    bool wants_write() const { return out_off_ < out_.size(); }

private:
    struct Pending {
        Rpc kind;
        std::uint64_t tag;
        double sent_at;
    };
    int fd_ = -1;
    dlt::Bytes out_;
    std::size_t out_off_ = 0;
    dlt::net::transport::FrameDecoder decoder_;
    std::deque<Pending> pending_;
};

/// One loader RPC, recorded in traced runs.
struct Span {
    Rpc kind;
    std::uint32_t node;
    std::uint64_t id;
    double start;
    double end;
};

struct LoaderStats {
    std::uint64_t sent = 0;
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    std::uint64_t control_rpcs = 0;
    std::vector<double> submit_lag; // scheduled send -> accept reply (s)
    std::vector<double> late;       // scheduled send -> actual send (s)
    /// Traced runs: spans are recorded in odd seconds only, so loader CPU per
    /// RPC can be compared between traced and untraced seconds. Both sums
    /// cover the seconds of the trace except the first (connection set-up)
    /// and any that parsed a bulky latencies/metrics reply.
    std::vector<Span> spans;
    double cpu_s[2] = {0, 0};       // loader thread CPU, [untraced, traced]
    std::uint64_t rpcs[2] = {0, 0}; // RPCs sent, [untraced, traced]
};

class Loader {
public:
    /// `ports[i]` is daemon i's RPC port. Throws dlt::Error when a connection
    /// cannot be made.
    Loader(const std::vector<std::uint16_t>& ports, const std::vector<Arrival>& trace,
           bool tracing);

    /// Seconds since the loader was constructed (the trace's time zero).
    double now() const;
    /// Queue a control RPC to one node.
    void control(std::uint32_t node, Rpc kind, std::uint64_t tag);
    bool trace_done() const { return next_ >= trace_.size(); }
    /// Submits sent but not yet answered.
    std::uint64_t submits_in_flight() const {
        return stats_.sent - stats_.accepted - stats_.refused;
    }

    /// Run the event loop until `done()` holds (true) or `deadline_s` (loader
    /// time) passes first (false). Throws dlt::Error when a connection fails.
    /// `tick` runs every iteration; `on_reply` gets every control reply.
    bool run(const std::function<bool()>& done, const std::function<void(double)>& tick,
             const std::function<void(const Reply&)>& on_reply, double deadline_s);

    const LoaderStats& stats() const { return stats_; }

private:
    void account_cpu(double now);

    const std::vector<Arrival>& trace_;
    std::deque<RpcPipe> pipes_; // deque: pipes are neither copied nor moved
    std::size_t next_ = 0;
    bool tracing_;
    double t0_ = 0;
    long slice_ = 0; // current whole second of loader time
    double slice_cpu_start_ = 0;
    std::uint64_t slice_rpcs_ = 0;
    bool slice_bulky_ = false;
    LoaderStats stats_;
};

} // namespace perfbench
