// Relay: one node's flood (paper §2.3) over a transport::Transport, the only
// flood in the code base. GossipOverlay runs one per simulated node and
// core::Replica one per process. A message travels as the frame id || payload;
// each node handles an id once (the last kMaxSeen ids are remembered), and
// the owner's verdict on a first-seen frame decides whether it goes on to
// every peer but its sender, or to `fanout` of them. See src/net/README.md.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/transport/transport.hpp"
#include "obs/metrics.hpp"

namespace dlt::net {

class Relay {
public:
    using PeerId = transport::PeerId;

    static constexpr std::size_t kIdBytes = 32;
    /// Ids remembered at most; past the cap the oldest is forgotten (a frame
    /// under a forgotten id counts as new), so no sender grows the set.
    static constexpr std::size_t kMaxSeen = std::size_t{1} << 17;

    /// Called once per message: for a first-seen frame, and for a published
    /// one with `from` == the local id. Returns whether the frame goes on.
    using Handler = std::function<bool(PeerId from, const std::string& topic,
                                       const Hash256& id, ByteView payload)>;
    /// Per (candidate peer, topic); false suppresses that hop.
    using Filter = std::function<bool(PeerId to, const std::string& topic)>;

    /// `fanout` 0 floods; otherwise each hop goes to `fanout` peers drawn
    /// with `rng`. The owner routes its relayed topics to receive().
    Relay(transport::Transport& transport, std::size_t fanout, Rng& rng, Handler handler);
    ~Relay();
    Relay(const Relay&) = delete;
    Relay& operator=(const Relay&) = delete;

    /// Frame a new message under an id hashed from the topic, payload, local
    /// id and transport time; hand it to the handler, then send it on.
    Hash256 publish(const std::string& topic, ByteView payload);
    /// A frame from a peer: dropped under kIdBytes, or by id when seen.
    void receive(PeerId from, const std::string& topic, ByteView frame);

    void set_filter(Filter filter) { filter_ = std::move(filter); } // nullptr clears
    std::size_t seen_count() const { return seen_.size(); }

private:
    bool remember(const Hash256& id); // false when seen already
    /// Send the frame (`shared` holds it when non-null) to the chosen peers.
    void forward(PeerId skip, const std::string& topic, ByteView frame,
                 const std::shared_ptr<const Bytes>& shared);

    transport::Transport& transport_;
    std::size_t fanout_;
    Rng& rng_;
    Handler handler_;
    Filter filter_;
    std::unordered_set<Hash256> seen_;
    std::deque<Hash256> seen_order_; // oldest first

    obs::Counter* broadcasts_ = nullptr; // gossip_broadcasts_total
    obs::Counter* accepts_ = nullptr;    // gossip_accepts_total
    obs::Counter* dedup_hits_ = nullptr; // gossip_dedup_hits_total
    obs::Gauge* seen_ids_ = nullptr;     // gossip_seen_ids
};

} // namespace dlt::net
