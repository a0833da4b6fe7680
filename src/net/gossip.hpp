// Gossip broadcast (paper §2.3): peers relay new data to a random subset of
// neighbors over multiple rounds, deduplicating by message id, until the whole
// overlay has seen it. This is the dissemination primitive blocks and
// transactions ride on; E18 measures its propagation behaviour. The overlay is
// one net::Relay per node over a SimTransportHub (the flood a deployed
// core::Replica runs too), plus per-message propagation records.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "net/relay.hpp"
#include "net/transport/sim_transport.hpp"

namespace dlt::net {

struct GossipParams {
    /// Number of random neighbors each node forwards to; 0 means flood (all).
    std::size_t fanout = 0;
};

/// Measured dissemination record for one broadcast.
struct PropagationRecord {
    SimTime origin_time = 0;
    std::size_t delivered = 0;                     // distinct nodes reached
    std::unordered_map<NodeId, SimTime> arrival;   // first arrival per node
};

/// Runs a gossip overlay over a Network. The overlay registers `node_count`
/// nodes on the (empty) network itself and owns their message handling; the
/// caller then builds a topology and injects broadcasts. The single callback is
/// invoked exactly once per (node, message).
class GossipOverlay {
public:
    /// Handler(node, from, topic, payload) fires on first delivery of a gossip
    /// message at each node and on every direct message. `from` is the peer
    /// the message arrived from (== node for locally injected broadcasts). The
    /// payload view aliases the shared message frame — copy it if it must
    /// outlive the callback.
    using Handler =
        std::function<void(NodeId, NodeId, const std::string&, ByteView)>;

    /// Precondition: `network` has no nodes yet.
    GossipOverlay(Network& network, std::size_t node_count, GossipParams params,
                  Handler handler);

    /// Number of nodes this overlay manages (== network node count at creation).
    std::size_t node_count() const { return relays_.size(); }

    /// Node `node`'s endpoint: what a per-node engine sends direct messages
    /// and sets timers through. Its deliveries belong to the overlay.
    transport::Transport& endpoint(NodeId node) { return hub_.endpoint(node); }

    /// Inject a message at `origin`; it is delivered locally and relayed.
    /// Returns the message id used for tracking. The topic must not carry the
    /// "d/" direct-message prefix.
    Hash256 broadcast(NodeId origin, const std::string& topic, const Bytes& payload);

    /// Point-to-point message outside the gossip flow: no message id, no
    /// dedup, no relaying. Delivered to the handler with the topic as given;
    /// direct topics must start with "d/" to stay distinguishable from gossip
    /// frames. Silently dropped when the two nodes are not currently linked
    /// (the peer may have churned away). Sync protocols (orphan-parent fetch)
    /// ride on this.
    void send_direct(NodeId from, NodeId to, const std::string& topic,
                     const Bytes& payload);

    /// Relay filter: invoked per (relaying node, candidate neighbor, topic)
    /// before a gossip frame is forwarded; returning false suppresses that
    /// hop. Models adversarial routing (an eclipse attacker refusing to
    /// bridge traffic to its victim) without touching link state — direct
    /// "d/" messages are never filtered, so sync protocols still work.
    /// Pass nullptr to clear. Filtered hops count as never sent (no traffic,
    /// no delivery).
    using RelayFilter =
        std::function<bool(NodeId at, NodeId to, const std::string& topic)>;
    void set_relay_filter(RelayFilter filter);

    /// Propagation telemetry for a message id (empty when unknown).
    const PropagationRecord* record(const Hash256& id) const;

    /// Fraction of nodes reached for a message id.
    double delivery_ratio(const Hash256& id) const;

    /// Virtual time by which `quantile` (e.g. 0.5, 0.99) of nodes had the message;
    /// nullopt when fewer nodes than that ever received it.
    std::optional<SimTime> time_to_quantile(const Hash256& id, double quantile) const;

private:
    static bool is_direct_topic(const std::string& topic) {
        return topic.size() >= 2 && topic[0] == 'd' && topic[1] == '/';
    }

    Network* network_;
    Handler handler_;
    transport::SimTransportHub hub_;
    std::deque<Relay> relays_; // per node; they hold hub endpoints
    std::unordered_map<Hash256, PropagationRecord> records_;
};

} // namespace dlt::net
