#include "net/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace dlt::net::transport {

namespace {

/// The transport whose event loop runs on this thread (null on others).
thread_local const TcpTransport* t_loop_owner = nullptr;

/// iovecs per gathered write; a longer queue takes several sendmsg calls.
constexpr std::size_t kMaxIov = 256;

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw ValidationError("tcp transport: not an IPv4 address: " + host);
    return addr;
}

std::string errno_text(const char* what) {
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
    auto& reg = obs::MetricsRegistry::global();
    bytes_sent_ = &reg.counter("net_tcp_bytes_sent_total",
                               "Framed bytes written to peer sockets");
    bytes_received_ = &reg.counter("net_tcp_bytes_received_total",
                                   "Framed bytes read from peer sockets");
    frames_sent_ = &reg.counter("net_tcp_frames_sent_total",
                                "Complete frames written to peer sockets");
    frames_received_ = &reg.counter("net_tcp_frames_received_total",
                                    "Complete frames decoded from peer sockets");
    reconnects_ = &reg.counter("net_tcp_reconnects_total",
                               "Peer connections re-established after a drop");
    handshake_failures_ =
        &reg.counter("net_tcp_handshake_failures_total",
                     "Connections rejected during the HELLO exchange");
    send_drops_ = &reg.counter("net_tcp_send_drops_total",
                               "Messages refused because a peer queue was full");
    decode_errors_ = &reg.counter("net_tcp_decode_errors_total",
                                  "Connections dropped on a framing error");
    auto& queue_family = reg.gauge_family("net_tcp_send_queue_bytes",
                                          "Outbound queue depth per peer (bytes)",
                                          {"peer"});

    for (const TcpPeer& peer : config_.peers) {
        DLT_EXPECTS(peer.id != config_.local_id);
        PeerState st;
        st.cfg = peer;
        st.dialer = config_.local_id > peer.id;
        st.decoder = FrameDecoder(config_.frame);
        st.queue_gauge = &queue_family.with({std::to_string(peer.id)});
        const bool inserted = peers_.emplace(peer.id, std::move(st)).second;
        DLT_EXPECTS(inserted); // duplicate peer id in config
    }

    int fds[2];
    if (::pipe(fds) != 0) throw Error(errno_text("tcp transport: pipe()"));
    wake_rd_ = fds[0];
    wake_wr_ = fds[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);

    open_listener();
}

TcpTransport::~TcpTransport() {
    shutdown();
    {
        std::lock_guard lk(join_m_);
        if (thread_.joinable()) thread_.join();
    }
    for (auto& [id, p] : peers_)
        if (p.fd >= 0) ::close(p.fd);
    for (Pending& pd : pending_)
        if (pd.fd >= 0) ::close(pd.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
}

void TcpTransport::open_listener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw Error(errno_text("tcp transport: socket()"));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr(config_.listen_host, config_.listen_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        throw Error(errno_text("tcp transport: bind()"));
    if (::listen(listen_fd_, 64) != 0)
        throw Error(errno_text("tcp transport: listen()"));
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        throw Error(errno_text("tcp transport: getsockname()"));
    bound_port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);
}

void TcpTransport::start() {
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) return;
    thread_ = std::thread([this] { loop(); });
}

std::vector<PeerId> TcpTransport::peer_ids() const {
    std::vector<PeerId> ids;
    ids.reserve(peers_.size());
    for (const auto& [id, p] : peers_) ids.push_back(id); // map: already sorted
    return ids;
}

void TcpTransport::set_handler(Handler handler) {
    DLT_EXPECTS(!running_.load(std::memory_order_acquire));
    handler_ = std::move(handler);
}

bool TcpTransport::send(PeerId to, const std::string& topic, ByteView payload) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    Bytes framed = encode_message_frame(topic, payload);
    // Frame bodies past the decode limit would be rejected by the receiver;
    // refuse them at the source instead of wasting the bandwidth.
    if (framed.size() - 8 > config_.frame.max_frame_bytes) {
        send_drops_->inc();
        return false;
    }
    {
        std::lock_guard lk(m_);
        PeerState* p = find_peer(to);
        if (p == nullptr) return false;
        if (p->outq_bytes + framed.size() > config_.max_queue_bytes_per_peer) {
            send_drops_->inc();
            return false;
        }
        p->outq_bytes += framed.size();
        p->outq.push_back(std::move(framed));
        p->queue_gauge->set(static_cast<double>(p->outq_bytes));
    }
    if (!on_loop_thread()) wake(); // the loop flushes at the end of its pass
    return true;
}

double TcpTransport::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
}

TimerId TcpTransport::schedule_after(double delay_s, std::function<void()> fn) {
    TimerId id;
    {
        std::lock_guard lk(m_);
        id = next_timer_++;
        timers_[id] = Timer{now() + std::max(0.0, delay_s), std::move(fn)};
    }
    if (!on_loop_thread()) wake();
    return id;
}

bool TcpTransport::cancel_timer(TimerId id) {
    std::lock_guard lk(m_);
    return timers_.erase(id) > 0;
}

void TcpTransport::post(std::function<void()> fn) {
    {
        std::lock_guard lk(m_);
        posted_.push_back(std::move(fn));
    }
    if (!on_loop_thread()) wake();
}

void TcpTransport::shutdown() {
    stopping_.store(true, std::memory_order_release);
    wake();
    if (thread_.get_id() == std::this_thread::get_id())
        return; // called from a callback: the destructor finishes the join
    std::lock_guard lk(join_m_);
    if (thread_.joinable()) thread_.join();
}

bool TcpTransport::on_loop_thread() const { return t_loop_owner == this; }

void TcpTransport::wake() {
    if (wake_wr_ < 0) return;
    const std::uint8_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &one, 1);
}

void TcpTransport::drain_wake() {
    std::uint8_t buf[256];
    while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
    }
}

TcpTransport::PeerState* TcpTransport::find_peer(PeerId id) {
    const auto it = peers_.find(id);
    return it != peers_.end() ? &it->second : nullptr;
}

void TcpTransport::loop() {
    std::vector<pollfd> pfds;
    std::vector<PeerId> poll_peers;  // pfds[2 + i] belongs to poll_peers[i]
    std::vector<int> poll_pending;   // then one entry per pending fd
    t_loop_owner = this;

    while (!stopping_.load(std::memory_order_acquire)) {
        const double t = now();
        double timeout_s = 0.5;

        // Dial peers whose retry deadline has passed.
        for (auto& [id, p] : peers_) {
            if (!p.dialer || p.state != ConnState::kDown) continue;
            if (t >= p.retry_at)
                begin_dial(p);
            else
                timeout_s = std::min(timeout_s, p.retry_at - t);
        }

        pfds.clear();
        poll_peers.clear();
        poll_pending.clear();
        pfds.push_back({wake_rd_, POLLIN, 0});
        pfds.push_back({listen_fd_, POLLIN, 0});
        for (auto& [id, p] : peers_) {
            if (p.fd < 0) continue;
            short events = POLLOUT; // a dial in flight completes on POLLOUT
            if (p.state != ConnState::kConnecting)
                events = p.write_blocked ? POLLIN | POLLOUT : POLLIN;
            pfds.push_back({p.fd, events, 0});
            poll_peers.push_back(id);
        }
        {
            std::lock_guard lk(m_);
            if (!posted_.empty()) timeout_s = 0;
            for (const auto& [id, timer] : timers_)
                timeout_s = std::min(timeout_s, std::max(0.0, timer.at - t));
        }
        for (const Pending& pd : pending_) {
            pfds.push_back({pd.fd, POLLIN, 0});
            poll_pending.push_back(pd.fd);
        }

        const int timeout_ms =
            static_cast<int>(std::min(timeout_s, 0.5) * 1000.0) + 1;
        const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (stopping_.load(std::memory_order_acquire)) break;
        if (ready < 0) {
            if (errno == EINTR) continue;
            break; // unrecoverable poll failure; daemon-level code will notice
        }

        if (pfds[0].revents != 0) drain_wake();
        if (pfds[1].revents != 0) accept_ready();

        for (std::size_t i = 0; i < poll_peers.size(); ++i) {
            const pollfd& pf = pfds[2 + i];
            if (pf.revents == 0) continue;
            PeerState* p = find_peer(poll_peers[i]);
            if (p == nullptr || p->fd != pf.fd) continue; // replaced meanwhile
            if (p->state == ConnState::kConnecting) {
                if (pf.revents & (POLLOUT | POLLERR | POLLHUP)) finish_dial(*p);
                continue;
            }
            if (pf.revents & (POLLIN | POLLERR | POLLHUP)) read_peer(*p);
            if (pf.revents & POLLOUT) p->write_blocked = false;
        }

        // Pending sockets: match by fd (adoption/closure mutates pending_).
        const std::size_t pending_base = 2 + poll_peers.size();
        for (std::size_t i = 0; i < poll_pending.size(); ++i) {
            if (pfds[pending_base + i].revents == 0) continue;
            const int fd = poll_pending[i];
            for (std::size_t j = 0; j < pending_.size(); ++j) {
                if (pending_[j].fd != fd) continue;
                if (!read_pending(pending_[j]))
                    pending_.erase(pending_.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                break;
            }
        }

        fire_due_timers();
        drain_posted();
        flush_all();
    }
    t_loop_owner = nullptr;

    // Teardown on the loop thread so no other thread ever races the sockets.
    for (auto& [id, p] : peers_) {
        if (p.fd >= 0) ::close(p.fd);
        p.fd = -1;
        p.state = ConnState::kDown;
    }
    for (Pending& pd : pending_)
        if (pd.fd >= 0) ::close(pd.fd);
    pending_.clear();
    ready_count_.store(0, std::memory_order_relaxed);
}

void TcpTransport::accept_ready() {
    while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return; // EAGAIN or transient accept failure: retry next poll
        }
        set_nonblocking(fd);
        set_nodelay(fd);
        Pending pd;
        pd.fd = fd;
        pd.decoder = FrameDecoder(config_.frame);
        pending_.push_back(std::move(pd));
    }
}

void TcpTransport::begin_dial(PeerState& p) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        arm_retry(p);
        return;
    }
    set_nonblocking(fd);
    sockaddr_in addr;
    try {
        addr = make_addr(p.cfg.host, p.cfg.port);
    } catch (const ValidationError&) {
        ::close(fd); // misconfigured peer address: keep retrying, never crash
        arm_retry(p);
        return;
    }
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        arm_retry(p);
        return;
    }
    p.fd = fd;
    p.state = ConnState::kConnecting;
}

void TcpTransport::finish_dial(PeerState& p) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        close_conn(p);
        return;
    }
    set_nodelay(p.fd);
    p.state = ConnState::kHandshake;
    p.decoder = FrameDecoder(config_.frame);
    p.saw_hello = false;
    std::lock_guard lk(m_);
    queue_hello_locked(p);
}

void TcpTransport::queue_hello_locked(PeerState& p) {
    // A fresh connection never inherits a partial write, so the front of the
    // queue is a frame boundary and the HELLO can jump the line.
    DLT_INVARIANT(p.front_off == 0);
    Bytes hello = encode_hello_frame(config_.local_id);
    p.outq_bytes += hello.size();
    p.outq.push_front(std::move(hello));
    p.queue_gauge->set(static_cast<double>(p.outq_bytes));
}

void TcpTransport::mark_ready(PeerState& p) {
    p.state = ConnState::kReady;
    p.backoff_s = 0;
    ready_count_.fetch_add(1, std::memory_order_relaxed);
    if (p.ever_connected)
        reconnects_->inc();
    else
        p.ever_connected = true;
}

void TcpTransport::close_conn(PeerState& p) {
    if (p.fd >= 0) {
        ::close(p.fd);
        p.fd = -1;
    }
    if (p.state == ConnState::kReady)
        ready_count_.fetch_sub(1, std::memory_order_relaxed);
    p.state = ConnState::kDown;
    p.saw_hello = false;
    p.write_blocked = false;
    p.decoder = FrameDecoder(config_.frame);
    {
        std::lock_guard lk(m_);
        // Drop a half-written frame — resuming it on a new connection would
        // corrupt the stream. Whole queued frames stay for the reconnect.
        if (p.front_off > 0 && !p.outq.empty()) {
            p.outq_bytes -= p.outq.front().size();
            p.outq.pop_front();
            p.front_off = 0;
            p.queue_gauge->set(static_cast<double>(p.outq_bytes));
        }
    }
    if (p.dialer) arm_retry(p);
}

void TcpTransport::arm_retry(PeerState& p) {
    p.backoff_s = p.backoff_s == 0
                      ? config_.reconnect_base_s
                      : std::min(p.backoff_s * 2, config_.reconnect_max_s);
    p.retry_at = now() + p.backoff_s;
}

void TcpTransport::read_peer(PeerState& p) {
    std::uint8_t buf[65536];
    while (p.fd >= 0) {
        const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            bytes_received_->inc(static_cast<std::uint64_t>(n));
            try {
                p.decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
                drain_peer_frames(p);
            } catch (const DecodeError&) {
                decode_errors_->inc();
                close_conn(p);
                return;
            }
            // A short read drained the socket; poll() is level-triggered, so
            // bytes that arrive later are read on the next pass.
            if (static_cast<std::size_t>(n) < sizeof(buf)) return;
            continue;
        }
        if (n == 0) {
            close_conn(p);
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(p);
        return;
    }
}

void TcpTransport::drain_peer_frames(PeerState& p) {
    while (auto frame = p.decoder.next()) {
        frames_received_->inc();
        if (!p.saw_hello) {
            if (frame->kind != FrameKind::kHello) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            Hello hello;
            try {
                hello = decode_from_bytes<Hello>(ByteView(frame->payload));
            } catch (const DecodeError&) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            if (hello.node_id != p.cfg.id) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            p.saw_hello = true;
            if (p.state == ConnState::kHandshake) mark_ready(p);
            continue;
        }
        if (frame->kind == FrameKind::kHello) {
            handshake_failures_->inc(); // duplicate HELLO: protocol violation
            close_conn(p);
            return;
        }
        WireMessage msg;
        try {
            msg = decode_message_payload(ByteView(frame->payload));
        } catch (const DecodeError&) {
            decode_errors_->inc();
            close_conn(p);
            return;
        }
        if (handler_) handler_(p.cfg.id, msg.topic, ByteView(msg.body));
        if (p.fd < 0) return; // a handler-triggered shutdown closed us
    }
}

void TcpTransport::flush_all() {
    for (auto& [id, p] : peers_)
        if (p.fd >= 0 && p.state != ConnState::kConnecting && !p.write_blocked)
            flush_peer(p);
}

void TcpTransport::flush_peer(PeerState& p) {
    bool broken = false;
    {
        std::lock_guard lk(m_);
        iovec iov[kMaxIov];
        while (!p.outq.empty()) {
            std::size_t count = 0, want = 0;
            for (auto it = p.outq.begin(); it != p.outq.end() && count < kMaxIov;
                 ++it, ++count) {
                const std::size_t off = count == 0 ? p.front_off : 0;
                iov[count].iov_base = const_cast<std::uint8_t*>(it->data() + off);
                iov[count].iov_len = it->size() - off;
                want += it->size() - off;
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = count;
            const ssize_t n = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    p.write_blocked = true;
                else
                    broken = true;
                break;
            }
            bytes_sent_->inc(static_cast<std::uint64_t>(n));
            // Retire the frames this write completed; a partial frame stays
            // at the front with its written prefix in front_off.
            std::size_t left = static_cast<std::size_t>(n);
            std::uint64_t completed = 0;
            while (left > 0) {
                const std::size_t rest = p.outq.front().size() - p.front_off;
                if (left < rest) {
                    p.front_off += left;
                    break;
                }
                left -= rest;
                p.outq_bytes -= p.outq.front().size();
                p.outq.pop_front();
                p.front_off = 0;
                ++completed;
            }
            frames_sent_->inc(completed);
            if (static_cast<std::size_t>(n) < want) {
                p.write_blocked = true; // short write: the socket buffer is full
                break;
            }
        }
        p.queue_gauge->set(static_cast<double>(p.outq_bytes));
    }
    if (broken) close_conn(p);
}

bool TcpTransport::read_pending(Pending& pd) {
    std::uint8_t buf[4096];
    while (true) {
        const ssize_t n = ::recv(pd.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            bytes_received_->inc(static_cast<std::uint64_t>(n));
            std::optional<Frame> frame;
            try {
                pd.decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
                frame = pd.decoder.next();
            } catch (const DecodeError&) {
                handshake_failures_->inc();
                ::close(pd.fd);
                return false;
            }
            if (!frame) continue; // HELLO still incomplete
            frames_received_->inc();
            PeerId from = 0;
            bool ok = frame->kind == FrameKind::kHello;
            if (ok) {
                try {
                    from = decode_from_bytes<Hello>(ByteView(frame->payload)).node_id;
                } catch (const DecodeError&) {
                    ok = false;
                }
            }
            // Only higher-id peers may dial us; anything else is a stranger.
            PeerState* p = ok ? find_peer(from) : nullptr;
            if (p == nullptr || p->dialer) {
                handshake_failures_->inc();
                ::close(pd.fd);
                return false;
            }
            adopt_pending(pd, from);
            return false; // fd now owned by the peer entry
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
            ::close(pd.fd);
            return false;
        }
        if (errno == EINTR) continue;
        return true; // EAGAIN: HELLO not here yet, keep waiting
    }
}

void TcpTransport::adopt_pending(Pending& pd, PeerId id) {
    PeerState& p = *find_peer(id);
    // A peer that reconnects supersedes its old socket (it would not dial
    // again unless its side considered the old connection dead).
    if (p.fd >= 0) close_conn(p);
    p.fd = pd.fd;
    pd.fd = -1;
    p.decoder = std::move(pd.decoder); // may hold bytes past the HELLO
    p.saw_hello = true;
    {
        std::lock_guard lk(m_);
        queue_hello_locked(p);
    }
    mark_ready(p);
    try {
        drain_peer_frames(p); // frames that followed HELLO in the same read
    } catch (const DecodeError&) {
        decode_errors_->inc();
        close_conn(p);
    }
}

void TcpTransport::fire_due_timers() {
    std::vector<std::pair<TimerId, Timer>> due;
    {
        std::lock_guard lk(m_);
        const double t = now();
        for (auto it = timers_.begin(); it != timers_.end();) {
            if (it->second.at <= t) {
                due.emplace_back(it->first, std::move(it->second));
                it = timers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
        return a.second.at != b.second.at ? a.second.at < b.second.at
                                          : a.first < b.first;
    });
    for (auto& [id, timer] : due) {
        if (stopping_.load(std::memory_order_acquire)) return;
        timer.fn();
    }
}

void TcpTransport::drain_posted() {
    std::vector<std::function<void()>> run;
    {
        std::lock_guard lk(m_);
        run.swap(posted_);
    }
    for (auto& fn : run) {
        if (stopping_.load(std::memory_order_acquire)) return;
        fn();
    }
}

} // namespace dlt::net::transport
