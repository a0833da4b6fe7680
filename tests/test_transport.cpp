// The real-transport deployment mode (E29): wire framing fuzzed through
// truncation and corruption, the socket transport's delivery / reconnect /
// backpressure behaviour and its gathered write path, sim-vs-socket delivery
// equivalence, replicas converging over the sim backend, the replica's tx
// relay policy and repair, the cluster harness's socket hygiene, and the
// dlt-node daemon's graceful SIGTERM path observed from the outside (clean
// exit, zero-replay reopen).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <thread>

#include "app/cluster.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/persistent_node.hpp"
#include "core/replica.hpp"
#include "crypto/sha256.hpp"
#include "ledger/amount.hpp"
#include "ledger/validation.hpp"
#include "net/relay.hpp"
#include "net/transport/frame.hpp"
#include "net/transport/sim_transport.hpp"
#include "net/transport/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

using namespace dlt;
using namespace dlt::net::transport;

namespace {

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() / ("dlt-test-transport-" + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::uint64_t counter_value(const std::string& name) {
    return obs::MetricsRegistry::global().counter(name).value();
}

/// A relay frame as a raw peer sends it: a 32-byte message id named by
/// `tag`, then the payload.
Bytes relay_frame(const std::string& tag, ByteView payload) {
    Bytes frame = crypto::sha256(to_bytes("relay-frame/" + tag)).bytes();
    append(frame, payload);
    return frame;
}

/// Spin until `pred` holds or `timeout_s` elapses; returns the final verdict.
bool eventually(double timeout_s, const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

} // namespace

// --- Frame codec -------------------------------------------------------------

TEST(FrameCodec, HelloRoundTrip) {
    const Bytes framed = encode_hello_frame(42);
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, FrameKind::kHello);
    Reader r{ByteView(frame->payload)};
    const Hello hello = Hello::decode(r);
    EXPECT_EQ(hello.magic, kProtocolMagic);
    EXPECT_EQ(hello.version, kProtocolVersion);
    EXPECT_EQ(hello.node_id, 42u);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, MessageRoundTrip) {
    const Bytes body = {1, 2, 3, 255, 0, 7};
    const Bytes framed = encode_message_frame("blk", ByteView(body));
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, FrameKind::kMessage);
    const WireMessage msg = decode_message_payload(ByteView(frame->payload));
    EXPECT_EQ(msg.topic, "blk");
    EXPECT_EQ(msg.body, body);
}

TEST(FrameCodec, PartialReadResumes) {
    const Bytes framed = encode_message_frame("topic", ByteView(Bytes(100, 0xAB)));
    FrameDecoder dec;
    // One byte at a time: the frame must appear exactly once, at the end.
    for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
        dec.feed(ByteView(framed.data() + i, 1));
        EXPECT_FALSE(dec.next().has_value()) << "frame surfaced early at " << i;
    }
    dec.feed(ByteView(framed.data() + framed.size() - 1, 1));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(decode_message_payload(ByteView(frame->payload)).body, Bytes(100, 0xAB));
}

TEST(FrameCodec, SeveralFramesInOneFeed) {
    Bytes stream;
    for (int i = 0; i < 5; ++i) {
        const Bytes f = encode_message_frame("t" + std::to_string(i),
                                             ByteView(Bytes(i + 1, std::uint8_t(i))));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    FrameDecoder dec;
    dec.feed(ByteView(stream));
    for (int i = 0; i < 5; ++i) {
        const auto frame = dec.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(decode_message_payload(ByteView(frame->payload)).topic,
                  "t" + std::to_string(i));
    }
    EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameCodec, OversizedLengthRejectedBeforeBuffering) {
    FrameLimits limits;
    limits.max_frame_bytes = 1024;
    // Header claims a frame far above the limit; the decoder must throw on
    // the 8-byte header alone, without waiting for (or allocating) the body.
    Writer w;
    w.u32(1u << 20); // length
    w.u32(0);        // crc (never reached)
    FrameDecoder dec(limits);
    dec.feed(ByteView(w.data()));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, ZeroLengthRejected) {
    Writer w;
    w.u32(0);
    w.u32(0);
    FrameDecoder dec;
    dec.feed(ByteView(w.data()));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, CorruptedPayloadFailsCrc) {
    Bytes framed = encode_message_frame("x", ByteView(Bytes(32, 0x55)));
    framed[framed.size() / 2] ^= 0x01;
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, UnknownKindRejected) {
    Bytes framed = encode_message_frame("x", ByteView());
    // Byte 8 is the kind; flipping it breaks the CRC too, so rewrite the
    // frame via encode_frame's own CRC by crafting at the payload level.
    const Bytes inner = {0xEE};
    Bytes forged = encode_frame(FrameKind::kMessage, ByteView(inner));
    // Splice kind=7 in and recompute nothing: kind is covered by the CRC, so
    // the decoder reports *a* DecodeError either way — both paths must throw.
    forged[8] = 7;
    FrameDecoder dec;
    dec.feed(ByteView(forged));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, BadHelloMagicRejected) {
    Writer w;
    w.u32(0xDEADBEEF);
    w.u16(kProtocolVersion);
    w.u32(1);
    Reader r{ByteView(w.data())};
    EXPECT_THROW(Hello::decode(r), DecodeError);
}

// Truncate a valid multi-frame stream at every offset: the decoder must
// produce a strict prefix of the original frames and never throw or misparse.
TEST(FrameCodec, TruncationFuzz) {
    std::vector<Bytes> frames;
    Bytes stream;
    Rng rng(0xE29);
    for (int i = 0; i < 4; ++i) {
        Bytes body(static_cast<std::size_t>(rng.uniform(64)) + 1, 0);
        for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform(256));
        const Bytes f = encode_message_frame("f" + std::to_string(i), ByteView(body));
        frames.push_back(f);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(ByteView(stream.data(), cut));
        std::size_t decoded = 0;
        while (true) {
            const auto frame = dec.next();
            if (!frame) break;
            ASSERT_LT(decoded, frames.size());
            EXPECT_EQ(encode_frame(frame->kind, ByteView(frame->payload)),
                      frames[decoded]);
            ++decoded;
        }
        // Exactly the frames whose bytes fit entirely below the cut.
        std::size_t expected = 0, consumed = 0;
        while (expected < frames.size() &&
               consumed + frames[expected].size() <= cut)
            consumed += frames[expected++].size();
        EXPECT_EQ(decoded, expected) << "cut at " << cut;
    }
}

// Flip one byte anywhere in the stream: every decoded frame must be
// byte-identical to an original; everything else must surface as DecodeError
// or a stall — never a crash, never a fabricated frame.
TEST(FrameCodec, CorruptionFuzz) {
    Bytes stream;
    std::vector<Bytes> frames;
    for (int i = 0; i < 3; ++i) {
        const Bytes f =
            encode_message_frame("t" + std::to_string(i), ByteView(Bytes(24, std::uint8_t(i))));
        frames.push_back(f);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    Rng rng(0x51E9);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes corrupted = stream;
        const std::size_t at = rng.index(corrupted.size());
        corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform(255) + 1);
        FrameDecoder dec;
        dec.feed(ByteView(corrupted));
        try {
            std::size_t decoded = 0;
            while (const auto frame = dec.next()) {
                const Bytes reframed =
                    encode_frame(frame->kind, ByteView(frame->payload));
                bool known = false;
                for (const auto& f : frames) known = known || reframed == f;
                EXPECT_TRUE(known) << "fabricated frame, corrupt byte " << at;
                ++decoded;
            }
            EXPECT_LE(decoded, frames.size());
        } catch (const DecodeError&) {
            // Expected for most corruptions (CRC, length, kind).
        }
    }
}

// --- TcpTransport ------------------------------------------------------------

namespace {

TcpTransportConfig tcp_config(std::uint32_t id, std::vector<TcpPeer> peers) {
    TcpTransportConfig config;
    config.local_id = id;
    config.peers = std::move(peers);
    return config;
}

} // namespace

TEST(TcpTransport, PairExchangeTimersAndPost) {
    TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}}));
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()}}));
    EXPECT_EQ(t0.local_id(), 0u);
    EXPECT_EQ(t1.peer_ids(), std::vector<PeerId>{0});

    std::atomic<int> got0{0}, got1{0};
    std::atomic<bool> body_ok{true};
    t0.set_handler([&](PeerId from, const std::string& topic, ByteView payload) {
        body_ok = body_ok && from == 1 && topic == "ping" && payload.size() == 3;
        ++got0;
    });
    t1.set_handler([&](PeerId from, const std::string& topic, ByteView) {
        body_ok = body_ok && from == 0 && topic == "pong";
        ++got1;
    });
    t0.start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] {
        return t0.connected_peers() == 1 && t1.connected_peers() == 1;
    }));

    const Bytes three = {9, 9, 9};
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(t1.send(0, "ping", ByteView(three)));
        t0.broadcast("pong", ByteView());
    }
    ASSERT_TRUE(eventually(5.0, [&] { return got0 == 10 && got1 == 10; }));
    EXPECT_TRUE(body_ok);

    // Timers: one fires, one is cancelled, post() runs promptly, and the
    // transport clock advances monotonically.
    std::atomic<int> fired{0};
    t0.post([&] { ++fired; });
    t0.schedule_after(0.01, [&] { ++fired; });
    const TimerId cancelled = t0.schedule_after(60.0, [&] { fired += 100; });
    EXPECT_TRUE(t0.cancel_timer(cancelled));
    EXPECT_FALSE(t0.cancel_timer(cancelled));
    ASSERT_TRUE(eventually(5.0, [&] { return fired == 2; }));
    const double a = t0.now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(t0.now(), a);

    EXPECT_GT(counter_value("net_tcp_bytes_sent_total"), 0u);
    EXPECT_GT(counter_value("net_tcp_frames_received_total"), 0u);
}

TEST(TcpTransport, ReconnectAfterAcceptorRestart) {
    const std::uint64_t reconnects_before = counter_value("net_tcp_reconnects_total");
    auto t0 = std::make_unique<TcpTransport>(tcp_config(0, {{1, "127.0.0.1", 0}}));
    const std::uint16_t port0 = t0->listen_port();
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", port0}}));
    std::atomic<int> got{0};
    t1.set_handler([&](PeerId, const std::string&, ByteView) { ++got; });
    t0->set_handler([](PeerId, const std::string&, ByteView) {});
    t0->start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] { return t1.connected_peers() == 1; }));

    // Kill the acceptor; the dialer must fall back to its retry schedule and
    // re-establish once a new process-equivalent binds the same port.
    t0.reset();
    ASSERT_TRUE(eventually(5.0, [&] { return t1.connected_peers() == 0; }));

    auto config0 = tcp_config(0, {{1, "127.0.0.1", 0}});
    config0.listen_port = port0;
    t0 = std::make_unique<TcpTransport>(config0);
    std::atomic<int> after{0};
    t0->set_handler([&](PeerId, const std::string&, ByteView) { ++after; });
    t0->start();
    ASSERT_TRUE(eventually(10.0, [&] { return t1.connected_peers() == 1; }));
    EXPECT_GT(counter_value("net_tcp_reconnects_total"), reconnects_before);

    EXPECT_TRUE(t1.send(0, "after", ByteView()));
    ASSERT_TRUE(eventually(5.0, [&] { return after >= 1; }));
}

TEST(TcpTransport, BackpressureDropsWhenPeerUnreachable) {
    const std::uint64_t drops_before = counter_value("net_tcp_send_drops_total");
    // Peer 0 does not exist: everything queues against the reconnect loop.
    auto config = tcp_config(1, {{0, "127.0.0.1", 1}}); // port 1: nothing there
    config.max_queue_bytes_per_peer = 4096;
    TcpTransport t1(config);
    t1.start();
    const Bytes chunk(1024, 0xCC);
    int accepted = 0, refused = 0;
    for (int i = 0; i < 64; ++i) {
        if (t1.send(0, "bulk", ByteView(chunk)))
            ++accepted;
        else
            ++refused;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(refused, 0);
    EXPECT_GT(counter_value("net_tcp_send_drops_total"), drops_before);
    EXPECT_LE(accepted, 5); // ~4 KB cap over ~1 KB frames
}

// --- Gathered writes ---------------------------------------------------------

namespace {

/// `size` bytes that all encode the frame's index in its stream, so the
/// receiver can check both position and content of each frame.
Bytes patterned(std::size_t index, std::size_t size) {
    return Bytes(size, static_cast<std::uint8_t>(index * 31 + 7));
}

bool is_patterned(ByteView body, std::size_t index, std::size_t size) {
    const auto want = static_cast<std::uint8_t>(index * 31 + 7);
    return body.size() == size &&
           std::all_of(body.begin(), body.end(), [&](std::uint8_t b) { return b == want; });
}

} // namespace

// A handler queues a burst of mixed sizes (1 B .. 4 MB) in one loop pass
// while two other threads send concurrently. The 4 MB frames overflow the
// socket buffer, so the gathered writes end mid-frame and resume on POLLOUT;
// every stream must still arrive whole and in order.
TEST(TcpTransport, GatheredWritesKeepOrderAcrossSizesAndThreads) {
    const std::vector<std::size_t> burst = {1,       4u << 20, 17,  65536, 1,
                                            300'001, 4u << 20, 5,   1u << 20,
                                            2,       123'457,  999, 1};
    constexpr std::size_t kThreadFrames = 300;
    const auto thread_size = [](std::size_t i) { return 1 + (i * 7919) % 20'000; };

    auto config0 = tcp_config(0, {{1, "127.0.0.1", 0}});
    config0.max_queue_bytes_per_peer = 64u << 20;
    TcpTransport t0(config0);
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()}}));

    std::atomic<bool> go{false};
    t0.set_handler([&](PeerId from, const std::string& topic, ByteView) {
        if (topic != "go") return;
        go = true;
        for (std::size_t i = 0; i < burst.size(); ++i)
            EXPECT_TRUE(t0.send(from, "burst", ByteView(patterned(i, burst[i]))));
    });
    std::map<std::string, std::size_t> next; // per-topic expected index
    std::atomic<std::size_t> received{0};
    std::atomic<bool> in_order{true};
    t1.set_handler([&](PeerId, const std::string& topic, ByteView body) {
        std::size_t& i = next[topic];
        const std::size_t size = topic == "burst" ? (i < burst.size() ? burst[i] : 0)
                                                  : thread_size(i);
        if (!is_patterned(body, i, size)) in_order = false;
        ++i;
        ++received;
    });
    t0.start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] {
        return t0.connected_peers() == 1 && t1.connected_peers() == 1;
    }));

    const auto sender = [&](const std::string& topic) {
        while (!go) std::this_thread::yield();
        for (std::size_t i = 0; i < kThreadFrames; ++i)
            EXPECT_TRUE(t0.send(1, topic, ByteView(patterned(i, thread_size(i)))));
    };
    std::thread a(sender, "thread-a"), b(sender, "thread-b");
    EXPECT_TRUE(t1.send(0, "go", ByteView()));
    a.join();
    b.join();

    const std::size_t total = burst.size() + 2 * kThreadFrames;
    ASSERT_TRUE(eventually(30.0, [&] { return received == total; }));
    EXPECT_TRUE(in_order);
    t0.shutdown();
    t1.shutdown();
    EXPECT_EQ(next["burst"], burst.size());
    EXPECT_EQ(next["thread-a"], kThreadFrames);
    EXPECT_EQ(next["thread-b"], kThreadFrames);
}

namespace {

/// Wait up to `timeout_s` for `fd` to become readable.
bool readable(int fd, double timeout_s) {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000)) == 1;
}

/// Play peer 0 by hand on an accepted socket: read the dialer's HELLO and
/// answer with ours. Returns false on timeout or a malformed first frame.
bool raw_handshake(int fd, FrameDecoder& decoder) {
    std::uint8_t buf[4096];
    while (true) {
        if (auto frame = decoder.next()) {
            if (frame->kind != FrameKind::kHello) return false;
            const Bytes hello = encode_hello_frame(0);
            return ::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(hello.size());
        }
        if (!readable(fd, 5.0)) return false;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return false;
        decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
    }
}

/// Read message frames until `done` holds for the last index seen; collects
/// the "burst" indices (first 4 payload bytes) in arrival order.
void raw_read_until(int fd, FrameDecoder& decoder, std::vector<std::uint32_t>& got,
                    const std::function<bool()>& done) {
    std::uint8_t buf[65536];
    while (!done()) {
        while (auto frame = decoder.next()) {
            const WireMessage msg = decode_message_payload(ByteView(frame->payload));
            Reader r{ByteView(msg.body).subspan(0, 4)};
            got.push_back(r.u32());
            if (done()) return;
        }
        if (!readable(fd, 5.0)) return;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return;
        decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
    }
}

/// Bind `fd` to an ephemeral loopback port and return the bound address
/// (port 0 on failure).
sockaddr_in bind_loopback(int fd) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        addr.sin_port = 0;
    return addr;
}

bool connect_to(int fd, const sockaddr_in& addr) {
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
}

int accept_within(int listen_fd, double timeout_s) {
    if (!readable(listen_fd, timeout_s)) return -1;
    return ::accept(listen_fd, nullptr, nullptr);
}

} // namespace

// The receiver vanishes while the sender is blocked mid-frame with a backlog.
// Only the half-written frame may be dropped from the queue: the rest flushes,
// in order and starting on a frame boundary, after the dialer reconnects.
TEST(TcpTransport, CloseMidBurstDropsOnlyTheHalfWrittenFrame) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    // A fixed small receive buffer (inherited by accepted sockets) keeps the
    // bytes in flight far below the burst, so the sender blocks mid-burst.
    const int rcvbuf = 256 << 10;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    const sockaddr_in addr = bind_loopback(listen_fd);
    ASSERT_NE(addr.sin_port, 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);

    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", ntohs(addr.sin_port)}}));
    t1.set_handler([](PeerId, const std::string&, ByteView) {});
    t1.start();

    const int conn1 = accept_within(listen_fd, 5.0);
    ASSERT_GE(conn1, 0);
    FrameDecoder dec1;
    ASSERT_TRUE(raw_handshake(conn1, dec1));
    ASSERT_TRUE(eventually(5.0, [&] { return t1.connected_peers() == 1; }));

    // Odd-sized frames, so the point where the socket buffer fills is never
    // a frame boundary in practice.
    constexpr std::uint32_t kFrames = 24;
    constexpr std::size_t kFrameBytes = 500'001;
    const std::uint64_t sent_before = counter_value("net_tcp_frames_sent_total");
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        Bytes body(kFrameBytes, 0xAB);
        Writer w;
        w.u32(i);
        std::copy(w.data().begin(), w.data().end(), body.begin());
        ASSERT_TRUE(t1.send(0, "burst", ByteView(body)));
    }

    // Take a few frames, then stop reading until the sender is stuck on a
    // full buffer, and reset the connection under it.
    std::vector<std::uint32_t> first;
    raw_read_until(conn1, dec1, first, [&] { return first.size() >= 2; });
    ASSERT_EQ(first, (std::vector<std::uint32_t>{0, 1}));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const linger reset{1, 0};
    ::setsockopt(conn1, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    ::close(conn1);

    const int conn2 = accept_within(listen_fd, 10.0);
    ASSERT_GE(conn2, 0);
    FrameDecoder dec2;
    ASSERT_TRUE(raw_handshake(conn2, dec2));
    std::vector<std::uint32_t> second;
    raw_read_until(conn2, dec2, second,
                   [&] { return !second.empty() && second.back() == kFrames - 1; });
    t1.shutdown();
    ::close(conn2);
    ::close(listen_fd);

    ASSERT_FALSE(second.empty());
    EXPECT_EQ(second.back(), kFrames - 1);
    for (std::size_t i = 1; i < second.size(); ++i)
        EXPECT_EQ(second[i], second[i - 1] + 1) << "gap after reconnect";
    // Frames written whole: everything up to the cut (some of it lost in
    // the reset socket's buffers) plus the reconnect's suffix. Exactly one
    // queued frame, the half-written one, was never written whole.
    const std::uint64_t reconnect_hello = 1;
    const std::uint64_t whole =
        counter_value("net_tcp_frames_sent_total") - sent_before - reconnect_hello;
    EXPECT_EQ(whole, kFrames - 1);
    EXPECT_EQ(whole - second.size(), second.front() - 1);
}

// Nothing but a timer drives this sender: the frames it queues on the loop
// thread (which skips the self-pipe wake) must still leave on that pass.
TEST(TcpTransport, TimerOnlySenderDelivers) {
    TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}}));
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()}}));
    std::atomic<int> timer_frames{0}, posted_frames{0};
    t0.set_handler([&](PeerId, const std::string& topic, ByteView) {
        ++(topic == "timer" ? timer_frames : posted_frames);
    });
    t1.set_handler([](PeerId, const std::string&, ByteView) {});
    t0.start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] {
        return t0.connected_peers() == 1 && t1.connected_peers() == 1;
    }));

    constexpr int kTicks = 5;
    int ticks = 0;
    std::function<void()> tick = [&] {
        t1.send(0, "timer", ByteView());
        t1.post([&] { t1.send(0, "posted", ByteView()); });
        if (++ticks < kTicks) t1.schedule_after(0.02, tick);
    };
    t1.schedule_after(0.02, tick);
    ASSERT_TRUE(eventually(5.0, [&] {
        return timer_frames == kTicks && posted_frames == kTicks;
    }));
    t1.shutdown();
}

// --- Sim vs socket equivalence (the E29 contract) ----------------------------

// The same broadcast sequence, delivered over the deterministic sim backend
// and over a 3-node loopback TCP mesh, must leave every node with the same
// chained digest of (topic, payload) in arrival order — per-sender FIFO is
// the delivery contract protocol code relies on.
TEST(TransportEquivalence, BroadcastSequenceSameDigestsSimAndTcp) {
    constexpr int kMessages = 40;
    const auto fold = [](Hash256& digest, const std::string& topic, ByteView body) {
        Writer w;
        w.fixed(digest);
        w.str(topic);
        w.bytes(body);
        digest = crypto::sha256(ByteView(w.data()));
    };
    std::vector<Bytes> payloads;
    Rng rng(7);
    for (int i = 0; i < kMessages; ++i) {
        Bytes p(static_cast<std::size_t>(rng.uniform(48)) + 1, 0);
        for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform(256));
        payloads.push_back(std::move(p));
    }

    // Sim half.
    std::vector<Hash256> sim_digests(3);
    {
        sim::Scheduler scheduler;
        net::Network network(scheduler, Rng(1));
        SimTransportHub hub(network, 3);
        // TCP is per-connection FIFO; give the sim links the same property
        // (zero jitter) so arrival order is comparable across backends.
        net::LinkParams fifo;
        fifo.latency_jitter = 0.0;
        network.build_full_mesh(fifo);
        for (std::uint32_t id = 1; id < 3; ++id)
            hub.endpoint(id).set_handler(
                [&, id](PeerId, const std::string& topic, ByteView body) {
                    fold(sim_digests[id], topic, body);
                });
        // Space the sends in virtual time: with fixed latency, arrival order
        // is then emission order (TCP gets this for free from the stream).
        for (int i = 0; i < kMessages; ++i)
            scheduler.schedule_after(0.01 * static_cast<double>(i), [&, i] {
                hub.endpoint(0).broadcast("seq" + std::to_string(i % 3),
                                          ByteView(payloads[i]));
            });
        scheduler.run_until(60.0);
    }

    // Socket half.
    std::vector<Hash256> tcp_digests(3);
    {
        TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}, {2, "127.0.0.1", 0}}));
        TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()},
                                       {2, "127.0.0.1", 0}}));
        TcpTransport t2(tcp_config(2, {{0, "127.0.0.1", t0.listen_port()},
                                       {1, "127.0.0.1", t1.listen_port()}}));
        std::atomic<int> received{0};
        t1.set_handler([&](PeerId, const std::string& topic, ByteView body) {
            fold(tcp_digests[1], topic, body);
            ++received;
        });
        t2.set_handler([&](PeerId, const std::string& topic, ByteView body) {
            fold(tcp_digests[2], topic, body);
            ++received;
        });
        t0.set_handler([](PeerId, const std::string&, ByteView) {});
        t0.start();
        t1.start();
        t2.start();
        ASSERT_TRUE(eventually(5.0, [&] {
            return t0.connected_peers() == 2 && t1.connected_peers() == 2 &&
                   t2.connected_peers() == 2;
        }));
        for (int i = 0; i < kMessages; ++i)
            t0.broadcast("seq" + std::to_string(i % 3), ByteView(payloads[i]));
        ASSERT_TRUE(eventually(10.0, [&] { return received == 2 * kMessages; }));
        t0.shutdown();
        t1.shutdown();
        t2.shutdown();
    }

    EXPECT_EQ(sim_digests[1], sim_digests[2]);
    EXPECT_EQ(sim_digests[1], tcp_digests[1]);
    EXPECT_EQ(sim_digests[1], tcp_digests[2]);
    EXPECT_NE(sim_digests[1], Hash256{}); // something actually arrived

    // The same sequence published through one net::Relay per node: every
    // node hands each message to its handler once, in the same order on
    // both backends, although every frame also reaches it a second time
    // through the third node.
    Rng unused(0);
    std::vector<Hash256> sim_relayed(3);
    {
        sim::Scheduler scheduler;
        net::Network network(scheduler, Rng(1));
        SimTransportHub hub(network, 3);
        net::LinkParams fifo;
        fifo.latency_jitter = 0.0;
        network.build_full_mesh(fifo);
        std::deque<net::Relay> relays;
        for (std::uint32_t id = 0; id < 3; ++id) {
            relays.emplace_back(hub.endpoint(id), 0, unused,
                                [&, id](PeerId from, const std::string& topic,
                                        const Hash256&, ByteView body) {
                                    if (from != id) fold(sim_relayed[id], topic, body);
                                    return true;
                                });
            hub.endpoint(id).set_handler(
                [&, id](PeerId from, const std::string& topic, ByteView frame) {
                    relays[id].receive(from, topic, frame);
                });
        }
        for (int i = 0; i < kMessages; ++i)
            scheduler.schedule_after(0.01 * static_cast<double>(i), [&, i] {
                relays[0].publish("seq" + std::to_string(i % 3), ByteView(payloads[i]));
            });
        scheduler.run_until(60.0);
    }
    std::vector<Hash256> tcp_relayed(3);
    {
        TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}, {2, "127.0.0.1", 0}}));
        TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()},
                                       {2, "127.0.0.1", 0}}));
        TcpTransport t2(tcp_config(2, {{0, "127.0.0.1", t0.listen_port()},
                                       {1, "127.0.0.1", t1.listen_port()}}));
        std::vector<Transport*> transports{&t0, &t1, &t2};
        std::atomic<int> received{0};
        std::deque<net::Relay> relays;
        for (std::uint32_t id = 0; id < 3; ++id) {
            relays.emplace_back(*transports[id], 0, unused,
                                [&, id](PeerId from, const std::string& topic,
                                        const Hash256&, ByteView body) {
                                    if (from != id) {
                                        fold(tcp_relayed[id], topic, body);
                                        ++received;
                                    }
                                    return true;
                                });
            transports[id]->set_handler(
                [&, id](PeerId from, const std::string& topic, ByteView frame) {
                    relays[id].receive(from, topic, frame);
                });
        }
        t0.start();
        t1.start();
        t2.start();
        ASSERT_TRUE(eventually(5.0, [&] {
            return t0.connected_peers() == 2 && t1.connected_peers() == 2 &&
                   t2.connected_peers() == 2;
        }));
        t0.post([&] { // relays run on their transport's loop thread
            for (int i = 0; i < kMessages; ++i)
                relays[0].publish("seq" + std::to_string(i % 3), ByteView(payloads[i]));
        });
        ASSERT_TRUE(eventually(10.0, [&] { return received == 2 * kMessages; }));
        t0.shutdown();
        t1.shutdown();
        t2.shutdown();
    }
    EXPECT_EQ(sim_relayed[1], sim_digests[1]); // as if sent point to point
    EXPECT_EQ(sim_relayed[2], sim_digests[1]);
    EXPECT_EQ(tcp_relayed[1], sim_relayed[1]);
    EXPECT_EQ(tcp_relayed[2], sim_relayed[1]);
}

// --- Replicas over the sim backend -------------------------------------------

namespace {

ledger::Transaction record_tx(std::uint64_t sender, std::uint64_t nonce,
                              ledger::Amount fee = 100) {
    ledger::Transaction tx;
    tx.kind = ledger::TxKind::kRecord;
    tx.sender_pubkey.assign(8, 0);
    for (std::size_t i = 0; i < 8; ++i)
        tx.sender_pubkey[i] = static_cast<std::uint8_t>((sender >> (8 * i)) & 0xFF);
    tx.nonce = nonce;
    tx.data = Bytes(48, static_cast<std::uint8_t>(nonce));
    tx.declared_fee = fee;
    return tx;
}

} // namespace

TEST(ReplicaSim, NakamotoConvergesOverSimTransport) {
    TempDir dirs("replica-nakamoto");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(3));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 4;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(
            std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    for (std::uint64_t i = 0; i < 20; ++i)
        scheduler.schedule_after(0.1 * static_cast<double>(i), [&, i] {
            replicas[i % 4]->submit_transaction(record_tx(i, 0));
        });
    scheduler.run_until(30.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(31.0);

    EXPECT_GT(replicas[0]->height(), 0u);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i]->tip(), replicas[0]->tip());
        EXPECT_EQ(replicas[i]->confirmed_txs(), replicas[0]->confirmed_txs());
    }
    EXPECT_EQ(replicas[0]->confirmed_txs(), 20u);
    EXPECT_FALSE(replicas[0]->confirmation_latencies().empty());
}

TEST(ReplicaSim, PbftConvergesOverSimTransport) {
    TempDir dirs("replica-pbft");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(5));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kPbft;
        config.node_count = 4;
        config.block_interval = 0.5;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(
            std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    for (std::uint64_t i = 0; i < 15; ++i)
        scheduler.schedule_after(0.2 * static_cast<double>(i), [&, i] {
            replicas[i % 4]->submit_transaction(record_tx(i, 1));
        });
    scheduler.run_until(20.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(21.0);

    EXPECT_GT(replicas[0]->height(), 0u);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i]->tip(), replicas[0]->tip());
        EXPECT_EQ(replicas[i]->height(), replicas[0]->height());
    }
    EXPECT_EQ(replicas[0]->confirmed_txs(), 15u);
}

// The view-0 primary crashes after a few blocks. The backups time out (10
// block intervals without progress), move to view 1 together and keep
// confirming new submissions under primary 1, agreeing on one tip.
TEST(ReplicaSim, PbftPrimaryCrashViewChanges) {
    TempDir dirs("replica-pbft-crash");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(21));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kPbft;
        config.node_count = 4;
        config.block_interval = 0.5;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(
            std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    for (std::uint64_t i = 0; i < 10; ++i)
        scheduler.schedule_after(0.2 * static_cast<double>(i), [&, i] {
            replicas[i % 4]->submit_transaction(record_tx(i, 2));
        });
    std::uint64_t height_at_crash = 0;
    scheduler.schedule_after(3.0, [&] {
        height_at_crash = replicas[0]->height();
        replicas[0]->stop();
        network.set_crashed(0, true);
    });
    for (std::uint64_t i = 0; i < 20; ++i)
        scheduler.schedule_after(4.0 + 0.3 * static_cast<double>(i), [&, i] {
            replicas[1 + i % 3]->submit_transaction(record_tx(100 + i, 2));
        });
    scheduler.run_until(40.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(41.0);

    EXPECT_GT(height_at_crash, 0u);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i]->view(), 1u) << "replica " << i;
        EXPECT_EQ(replicas[i]->tip(), replicas[1]->tip()) << "replica " << i;
        EXPECT_EQ(replicas[i]->confirmed_txs(), 30u) << "replica " << i;
        EXPECT_EQ(replicas[i]->pending_submissions(), 0u) << "replica " << i;
    }
    EXPECT_GT(replicas[1]->height(), height_at_crash);
}

// Votes count only for the digest they name. Endpoints 0, 2 and 3 are driven
// by hand: primary 0 pre-prepares block A at sequence 1, then all three send
// prepares and commits for sequence 1 under another digest. Replica 1 must not
// connect A. Once the same votes name A's digest, it does.
TEST(ReplicaSim, PbftVotesBindToDigest) {
    TempDir dirs("replica-pbft-digest");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(22));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    core::ReplicaConfig config;
    config.engine = core::ReplicaEngine::kPbft;
    config.node_count = 4;
    config.block_interval = 1000.0;
    config.data_dir = dirs.path / "n1";
    core::Replica replica(hub.endpoint(1), config);
    replica.start();
    for (const PeerId id : {0u, 2u, 3u})
        hub.endpoint(id).set_handler([](PeerId, const std::string&, ByteView) {});

    ledger::Block a;
    a.header.prev_hash = replica.tip();
    a.header.height = 1;
    a.header.timestamp = 1.0;
    a.header.bits = config.genesis_bits;
    a.txs.push_back(ledger::make_coinbase(crypto::Address{}, ledger::block_subsidy(1), 1));
    a.header.merkle_root = a.compute_merkle_root();
    const std::vector<Bytes> batch{encode_to_bytes(a)};
    const Hash256 digest = consensus::pbft_batch_digest(batch);

    Writer pre_prepare; // view, sequence, digest, requests
    pre_prepare.u32(0);
    pre_prepare.u64(1);
    pre_prepare.fixed(digest);
    pre_prepare.varint(1);
    pre_prepare.blob(batch.front());
    hub.endpoint(0).send(1, "preprepare", ByteView(pre_prepare.data()));
    const auto vote_all = [&](const Hash256& named) {
        for (const PeerId from : {0u, 2u, 3u})
            for (const char* topic : {"prepare", "commit"}) {
                Writer w; // view, sequence, digest, sender
                w.u32(0);
                w.u64(1);
                w.fixed(named);
                w.u32(from);
                hub.endpoint(from).send(1, topic, ByteView(w.data()));
            }
    };

    vote_all(crypto::sha256(to_bytes("not block A")));
    scheduler.run_until(5.0);
    EXPECT_EQ(replica.height(), 0u);

    vote_all(digest);
    scheduler.run_until(10.0);
    EXPECT_EQ(replica.height(), 1u);
    EXPECT_EQ(replica.tip(), a.hash());
    replica.stop();
}

// A peer that floods well-formed blocks naming unknown parents fills the
// orphan pool only up to its bound, and the replica still follows the honest
// chain afterwards.
TEST(ReplicaSim, NakamotoOrphanFloodStaysBounded) {
    TempDir dirs("replica-orphans");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(5));
    SimTransportHub hub(network, 4); // replicas 0..2, attacker 3
    network.build_full_mesh();
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 3; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 3;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    scheduler.run_until(5.0);

    constexpr std::size_t kCap = consensus::NakamotoEngine::kMaxOrphans;
    Transport& attacker = hub.endpoint(3);
    ledger::Mempool empty;
    for (std::size_t i = 0; i < 3 * kCap; ++i) {
        ledger::BlockHeader header;
        header.prev_hash = crypto::sha256(to_bytes("nowhere/" + std::to_string(i)));
        header.height = 50 + i;
        header.bits = 0x207fffff;
        const ledger::Block block =
            ledger::assemble_block(header, empty, ledger::UtxoSet{}, 1'000'000, 10);
        attacker.send(0, "block",
                      ByteView(relay_frame("orphan/" + std::to_string(i),
                                           ByteView(encode_to_bytes(block)))));
    }
    scheduler.run_until(6.0);
    EXPECT_EQ(replicas[0]->orphan_blocks(), kCap);

    const std::uint64_t height_before = replicas[1]->height();
    scheduler.run_until(30.0);
    EXPECT_LE(replicas[0]->orphan_blocks(), kCap);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(31.0);
    EXPECT_GT(replicas[1]->height(), height_before);
    // Stopped replicas drop blocks still in flight, so tips may differ by
    // the last block: compare the chains at the lowest height.
    std::uint64_t common = replicas[0]->height();
    std::uint64_t highest = common;
    for (auto& r : replicas) {
        common = std::min(common, r->height());
        highest = std::max(highest, r->height());
    }
    EXPECT_LE(highest, common + 1); // replica 0 did not fall behind
    const auto block_at = [&](core::Replica& r) {
        return r.node().chain().ancestor(r.tip(), r.height() - common);
    };
    EXPECT_EQ(block_at(*replicas[0]), block_at(*replicas[1]));
    EXPECT_EQ(block_at(*replicas[2]), block_at(*replicas[1]));
}

// The relay drops a frame whose id it has seen before anything decodes it:
// a second "block" frame under a known id counts as a dedup hit and never
// reaches NakamotoEngine::handle, even when it carries another block. (In a
// 4-node mesh that is 6 of the 9 frames each block costs.)
TEST(ReplicaSim, NakamotoDuplicateBlockFrameNeverReachesTheEngine) {
    TempDir dirs("replica-dup-block");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(6));
    SimTransportHub hub(network, 2); // replica 0, raw peer 1
    network.build_full_mesh();
    core::ReplicaConfig config;
    config.engine = core::ReplicaEngine::kNakamoto;
    config.node_count = 2;
    config.block_interval = 1e6; // no block of its own in this run
    config.data_dir = dirs.path / "n0";
    core::Replica replica(hub.endpoint(0), config);
    replica.start();

    // Orphans: each one the engine handles stays in the pool, observable.
    const auto orphan = [](std::uint64_t salt) {
        ledger::BlockHeader header;
        header.prev_hash = crypto::sha256(to_bytes("nowhere/" + std::to_string(salt)));
        header.height = 7;
        header.bits = 0x207fffff;
        ledger::Mempool empty;
        return encode_to_bytes(
            ledger::assemble_block(header, empty, ledger::UtxoSet{}, 1'000'000, 10));
    };
    const std::uint64_t dedup_before = counter_value("gossip_dedup_hits_total");
    Transport& peer = hub.endpoint(1);
    peer.send(0, "block", ByteView(relay_frame("dup", ByteView(orphan(1)))));
    scheduler.run_until(0.2);
    EXPECT_EQ(replica.orphan_blocks(), 1u);

    peer.send(0, "block", ByteView(relay_frame("dup", ByteView(orphan(1)))));
    peer.send(0, "block", ByteView(relay_frame("dup", ByteView(orphan(2)))));
    scheduler.run_until(0.4);
    EXPECT_EQ(replica.orphan_blocks(), 1u);
    EXPECT_EQ(counter_value("gossip_dedup_hits_total") - dedup_before, 2u);

    peer.send(0, "block", ByteView(relay_frame("fresh", ByteView(orphan(2)))));
    scheduler.run_until(0.6);
    EXPECT_EQ(replica.orphan_blocks(), 2u); // a new id does reach it
    replica.stop();
}

// An own submission the pool sheds unconfirmed must not stay tracked as
// awaiting confirmation.
TEST(ReplicaSim, EvictedOwnSubmissionIsForgotten) {
    TempDir dirs("replica-evict");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(9));
    SimTransportHub hub(network, 1);
    core::ReplicaConfig config;
    config.node_count = 1;
    config.data_dir = dirs.path / "n0";
    config.mempool.max_count = 2;
    core::Replica replica(hub.endpoint(0), config);

    EXPECT_TRUE(replica.submit_transaction(record_tx(1, 0, 100)));
    EXPECT_TRUE(replica.submit_transaction(record_tx(2, 0, 200)));
    EXPECT_TRUE(replica.submit_transaction(record_tx(3, 0, 300))); // evicts fee 100
    EXPECT_EQ(replica.mempool_size(), 2u);
    EXPECT_EQ(replica.pending_submissions(), 2u);
}

// --- Relay policy over the sim backend ----------------------------------------

namespace {

/// Transport decorator that counts sends per topic — what the replica puts
/// on the network, before any loss.
class CountingTransport final : public Transport {
public:
    CountingTransport(Transport& inner, std::map<std::string, int>& sends)
        : inner_(inner), sends_(sends) {}
    PeerId local_id() const override { return inner_.local_id(); }
    std::vector<PeerId> peer_ids() const override { return inner_.peer_ids(); }
    void set_handler(Handler handler) override { inner_.set_handler(std::move(handler)); }
    bool send(PeerId to, const std::string& topic, ByteView payload) override {
        ++sends_[topic];
        return inner_.send(to, topic, payload);
    }
    double now() const override { return inner_.now(); }
    TimerId schedule_after(double delay_s, std::function<void()> fn) override {
        return inner_.schedule_after(delay_s, std::move(fn));
    }
    bool cancel_timer(TimerId id) override { return inner_.cancel_timer(id); }
    void post(std::function<void()> fn) override { inner_.post(std::move(fn)); }
    void shutdown() override { inner_.shutdown(); }

private:
    Transport& inner_;
    std::map<std::string, int>& sends_;
};

/// N PBFT replicas over `hub`, every send counted into `sends`.
struct RelayCluster {
    std::vector<std::unique_ptr<CountingTransport>> transports;
    std::vector<std::unique_ptr<core::Replica>> replicas;

    RelayCluster(SimTransportHub& hub, const std::filesystem::path& dir,
                 std::map<std::string, int>& sends, double block_interval) {
        for (std::uint32_t id = 0; id < hub.node_count(); ++id) {
            transports.push_back(
                std::make_unique<CountingTransport>(hub.endpoint(id), sends));
            core::ReplicaConfig config;
            config.engine = core::ReplicaEngine::kPbft;
            config.node_count = static_cast<std::uint32_t>(hub.node_count());
            config.block_interval = block_interval;
            config.data_dir = dir / ("n" + std::to_string(id));
            replicas.push_back(
                std::make_unique<core::Replica>(*transports.back(), config));
        }
        for (auto& r : replicas) r->start();
    }
};

} // namespace

// In a full mesh the submitter's own fan-out reaches every replica, so a tx
// costs exactly one "txs" message per peer and nobody echoes it. Submissions
// 0.1 s apart each leave in their own batch.
TEST(ReplicaRelay, FullMeshSendsOneTxMessagePerPeer) {
    TempDir dirs("relay-mesh");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(11));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/1000.0);

    constexpr int kTxs = 6;
    for (int i = 0; i < kTxs; ++i)
        scheduler.schedule_after(0.1 * i, [&, i] {
            cluster.replicas[i % 4]->submit_transaction(record_tx(40 + i, 0));
        });
    scheduler.run_until(5.0);

    EXPECT_EQ(sends["txs"], 3 * kTxs);
    EXPECT_EQ(sends["txr"], 0);
    for (const auto& r : cluster.replicas) EXPECT_EQ(r->mempool_size(), std::size_t{kTxs});
}

// Submissions that arrive within one batch window share a single "txs"
// message per peer.
TEST(ReplicaRelay, BurstLeavesAsOneBatchPerPeer) {
    TempDir dirs("relay-burst");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(14));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/1000.0);

    constexpr int kTxs = 25;
    scheduler.schedule_after(0.1, [&] {
        for (int i = 0; i < kTxs; ++i)
            EXPECT_TRUE(cluster.replicas[0]->submit_transaction(record_tx(200 + i, 0)));
    });
    scheduler.run_until(5.0);

    EXPECT_EQ(sends["txs"], 3);
    EXPECT_EQ(sends["txr"], 0);
    for (const auto& r : cluster.replicas) EXPECT_EQ(r->mempool_size(), std::size_t{kTxs});
}

// stop() sends the pending batch: a submission acknowledged just before the
// node stops (and its transport shuts down, as in the daemon) still reaches
// every peer. So does one acknowledged between stop() and the shutdown, which
// the daemon's RPC thread can still deliver.
TEST(ReplicaRelay, StopSendsThePendingBatch) {
    TempDir dirs("relay-stop");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(15));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/1000.0);

    scheduler.schedule_after(0.1, [&] {
        ASSERT_TRUE(cluster.replicas[0]->submit_transaction(record_tx(300, 0)));
        cluster.replicas[0]->stop();
        ASSERT_TRUE(cluster.replicas[0]->submit_transaction(record_tx(301, 0)));
        hub.endpoint(0).shutdown();
    });
    scheduler.run_until(5.0);

    EXPECT_EQ(sends["txs"], 6);
    for (std::size_t i = 1; i < cluster.replicas.size(); ++i)
        EXPECT_EQ(cluster.replicas[i]->mempool_size(), 2u);
}

// A partial mesh keeps flooding: a tx submitted at one end of a line reaches
// the mempool at the other end.
TEST(ReplicaRelay, LineTopologyReachesEveryMempool) {
    TempDir dirs("relay-line");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(12));
    SimTransportHub hub(network, 4);
    for (net::NodeId id = 0; id + 1 < 4; ++id) network.connect(id, id + 1);
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/1000.0);

    scheduler.schedule_after(0.1, [&] {
        cluster.replicas[0]->submit_transaction(record_tx(50, 0));
    });
    scheduler.run_until(5.0);

    for (const auto& r : cluster.replicas) EXPECT_EQ(r->mempool_size(), 1u);
    EXPECT_EQ(sends["txs"], 3); // 0->1, 1->2, 2->3
}

// PBFT with only the submitter<->primary link cut: the submitter's fan-out
// never reaches the primary and, in a full mesh, nobody relays it. Once the
// tx has waited two block intervals, the "txr" repair routes it through a
// backup and it confirms. Without the repair it would never reach a block.
TEST(ReplicaRelay, PbftRepairRoutesAroundCutSubmitterPrimaryLink) {
    TempDir dirs("relay-repair");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(13));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    network.partition("cut", {{0}, {1}}); // only 0 <-> 1 is cut
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/0.5);

    // Background load at the backups keeps the primary proposing blocks.
    for (int i = 0; i < 30; ++i)
        scheduler.schedule_after(0.3 * i, [&, i] {
            cluster.replicas[2 + i % 2]->submit_transaction(record_tx(60 + i, 0));
        });
    scheduler.schedule_after(1.0, [&] {
        cluster.replicas[1]->submit_transaction(record_tx(99, 0));
    });
    scheduler.run_until(20.0);
    for (auto& r : cluster.replicas) r->stop();
    scheduler.run_until(21.0);

    const core::Replica& submitter = *cluster.replicas[1];
    EXPECT_EQ(submitter.pending_submissions(), 0u);
    EXPECT_EQ(submitter.confirmation_latencies().size(), 1u);
    EXPECT_GT(sends["txr"], 0);
    EXPECT_EQ(cluster.replicas[0]->confirmed_txs(), 31u);
    EXPECT_EQ(submitter.tip(), cluster.replicas[0]->tip());
}

// The same cut with no other load: the primary has nothing to propose, so no
// block ever connects. The repair falls due by time on the sync tick instead,
// and the lone tx still confirms everywhere.
TEST(ReplicaRelay, PbftRepairFiresWithoutOtherLoad) {
    TempDir dirs("relay-repair-idle");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(16));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    network.partition("cut", {{0}, {1}});
    std::map<std::string, int> sends;
    RelayCluster cluster(hub, dirs.path, sends, /*block_interval=*/0.5);

    scheduler.schedule_after(1.0, [&] {
        cluster.replicas[1]->submit_transaction(record_tx(98, 0));
    });
    scheduler.run_until(20.0);
    for (auto& r : cluster.replicas) r->stop();
    scheduler.run_until(21.0);

    const core::Replica& submitter = *cluster.replicas[1];
    EXPECT_GT(sends["txr"], 0);
    EXPECT_EQ(submitter.pending_submissions(), 0u);
    EXPECT_EQ(submitter.confirmation_latencies().size(), 1u);
    for (const auto& r : cluster.replicas) {
        EXPECT_EQ(r->confirmed_txs(), 1u);
        EXPECT_EQ(r->tip(), submitter.tip());
    }
}

// A malformed "txs"/"txr" payload (truncated anywhere, a count beyond its
// bytes, trailing bytes) admits nothing, relays nothing and leaves the
// replica serving: the next valid batch is admitted whole. The replica is
// node 1 of a 4-node line, a partial mesh, so whatever it admitted from node
// 0 it would relay to node 2, and a forwarded repair would go there too.
TEST(ReplicaRelay, MalformedBatchesAdmitNothing) {
    TempDir dirs("relay-malformed");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(17));
    SimTransportHub hub(network, 4);
    for (net::NodeId id = 0; id + 1 < 4; ++id) network.connect(id, id + 1);
    std::map<std::string, int> sends;
    CountingTransport counted(hub.endpoint(1), sends);
    core::ReplicaConfig config;
    config.engine = core::ReplicaEngine::kPbft;
    config.node_count = 4;
    config.block_interval = 1000.0;
    config.data_dir = dirs.path / "n1";
    core::Replica replica(counted, config);
    replica.start();

    constexpr std::uint64_t kTxs = 3;
    Bytes body;
    for (std::uint64_t i = 0; i < kTxs; ++i)
        append(body, encode_to_bytes(record_tx(400 + i, 0)));
    const auto batch = [&](std::uint64_t count, ByteView tail) {
        Writer w;
        w.varint(count);
        w.bytes(ByteView(tail));
        return std::move(w).take();
    };
    const Bytes valid = batch(kTxs, ByteView(body));

    std::vector<Bytes> malformed;
    for (std::size_t len = 0; len < valid.size(); ++len)
        malformed.emplace_back(valid.begin(),
                               valid.begin() + static_cast<std::ptrdiff_t>(len));
    malformed.push_back(batch(1'000, ByteView(body)));   // count beyond the bytes
    malformed.push_back(batch(kTxs + 1, ByteView(body))); // one tx short
    Bytes trailing = valid;
    trailing.push_back(0);
    malformed.push_back(trailing);

    // Each payload rides in a relay frame under its own id, so every one of
    // them reaches the decoder.
    Transport& peer = hub.endpoint(0);
    std::size_t frames = 0;
    for (const Bytes& payload : malformed)
        for (const char* topic : {"txs", "txr"})
            peer.send(1, topic,
                      ByteView(relay_frame(std::to_string(frames++), ByteView(payload))));
    scheduler.run_until(1.0);
    EXPECT_EQ(replica.mempool_size(), 0u);
    EXPECT_EQ(sends["txs"], 0);

    peer.send(1, "txs", ByteView(relay_frame("valid", ByteView(valid))));
    scheduler.run_until(2.0);
    EXPECT_EQ(replica.mempool_size(), std::size_t{kTxs});
    EXPECT_EQ(sends["txs"], 1); // the valid batch goes on to node 2 as one
    replica.stop();
}

// --- Cluster harness sockets ---------------------------------------------------

// RpcClient sockets are close-on-exec, so daemons the driver spawns later do
// not inherit (and pin) another daemon's RPC connection.
TEST(Cluster, RpcClientSocketIsCloseOnExec) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    const sockaddr_in addr = bind_loopback(listen_fd);
    ASSERT_NE(addr.sin_port, 0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);

    app::RpcClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port), 2.0));
    EXPECT_TRUE(::fcntl(client.native_handle(), F_GETFD) & FD_CLOEXEC);
    client.close();
    ::close(listen_fd);
}

// A socket that connects to its own bound port (what a probe gets when the
// kernel picks the target port as its source port) is recognised, so
// RpcClient::connect can reject it; an ordinary connection is not.
TEST(Cluster, SelfConnectIsDetected) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const sockaddr_in own = bind_loopback(fd);
    ASSERT_NE(own.sin_port, 0);
    ASSERT_TRUE(connect_to(fd, own));
    EXPECT_TRUE(app::is_self_connected(fd));
    ::close(fd);

    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const sockaddr_in addr = bind_loopback(listen_fd);
    ASSERT_NE(addr.sin_port, 0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);
    const int client = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_TRUE(connect_to(client, addr));
    EXPECT_FALSE(app::is_self_connected(client));
    ::close(client);
    ::close(listen_fd);
}

// --- Daemon lifecycle through ClusterDriver (satellite: graceful shutdown) ---

TEST(Cluster, SigtermFlushesAndReopensWithZeroWalReplay) {
#ifdef DLT_NODE_BIN_PATH
    ::setenv("DLT_NODE_BIN", DLT_NODE_BIN_PATH, /*overwrite=*/0);
#endif
    TempDir work("cluster-sigterm");
    app::ClusterConfig config;
    config.node_count = 3;
    config.engine = core::ReplicaEngine::kNakamoto;
    config.block_interval = 0.25;
    config.work_dir = work.path;
    config.lsm_state = true; // LSM commits per WAL record: clean reopen replays 0
    app::ClusterDriver cluster(config);
    cluster.start();

    for (std::uint64_t i = 0; i < 12; ++i)
        EXPECT_TRUE(cluster.rpc(i % 3).submit(record_tx(i, 2)));
    ASSERT_TRUE(eventually(15.0, [&] {
        const auto s = cluster.rpc(1).status();
        return s && s->confirmed_txs >= 12 && s->height >= 2;
    }));

    // SIGTERM must flush and exit 0 — the graceful path, not a crash.
    cluster.signal_node(1, SIGTERM);
    EXPECT_EQ(cluster.wait_node(1), 0);

    // The surviving nodes keep making progress and still shut down cleanly.
    ASSERT_TRUE(eventually(10.0, [&] {
        const auto a = cluster.rpc(0).status();
        const auto b = cluster.rpc(2).status();
        return a && b && a->tip == b->tip && a->height >= 2;
    }));
    // Node 1 is already down; stop_all reports -1 for it and 0 for the rest.
    const std::vector<int> codes = cluster.stop_all();
    EXPECT_EQ(codes[0], 0);
    EXPECT_EQ(codes[2], 0);

    // Reopen the SIGTERMed node's data dir in-process: every connect was
    // WAL-committed into the LSM engine before the daemon exited, so recovery
    // must come from the engine with zero WAL records replayed.
    core::PersistentNodeOptions options;
    options.state_engine = core::StateEngine::kPersistent;
    core::PersistentNode node(cluster.data_dir(1),
                              ledger::make_genesis("e29", 0x207fffff), options);
    EXPECT_GT(node.height(), 0u);
    EXPECT_TRUE(node.recovery().from_state_engine);
    EXPECT_EQ(node.recovery().wal_records_replayed, 0u);
    EXPECT_EQ(node.recovery().wal_bytes_truncated, 0u);
}
