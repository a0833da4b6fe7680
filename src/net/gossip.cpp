#include "net/gossip.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dlt::net {

GossipOverlay::GossipOverlay(Network& network, std::size_t node_count,
                             GossipParams params, Handler handler)
    : network_(&network), handler_(std::move(handler)), hub_(network, node_count) {
    DLT_EXPECTS(node_count >= 2);
    DLT_EXPECTS(handler_ != nullptr);
    for (NodeId node = 0; node < node_count; ++node) {
        // Every frame goes on before the handler validates it, as gossip
        // always has here: the verdict is always true.
        relays_.emplace_back(
            hub_.endpoint(node), params.fanout, network.rng(),
            [this, node](NodeId from, const std::string& topic, const Hash256& id,
                         ByteView payload) {
                auto& rec = records_[id];
                ++rec.delivered;
                rec.arrival.emplace(node, network_->scheduler().now());
                handler_(node, from, topic, payload);
                return true;
            });
        hub_.endpoint(node).set_handler(
            [this, node](NodeId from, const std::string& topic, ByteView payload) {
                if (is_direct_topic(topic)) // point-to-point: no dedup, no relay
                    handler_(node, from, topic, payload);
                else
                    relays_[node].receive(from, topic, payload);
            });
    }
}

Hash256 GossipOverlay::broadcast(NodeId origin, const std::string& topic,
                                 const Bytes& payload) {
    DLT_EXPECTS(origin < relays_.size());
    DLT_EXPECTS(!is_direct_topic(topic));
    const Hash256 id = relays_[origin].publish(topic, ByteView(payload));
    records_[id].origin_time = network_->scheduler().now();
    return id;
}

void GossipOverlay::send_direct(NodeId from, NodeId to, const std::string& topic,
                                const Bytes& payload) {
    DLT_EXPECTS(from < relays_.size() && to < relays_.size());
    DLT_EXPECTS(is_direct_topic(topic));
    // The link may have churned away since the triggering message was sent;
    // a real peer's reply would hit a closed socket: the send drops it.
    hub_.endpoint(from).send(to, topic, ByteView(payload));
}

void GossipOverlay::set_relay_filter(RelayFilter filter) {
    for (NodeId node = 0; node < relays_.size(); ++node) {
        Relay::Filter at_node; // empty clears
        if (filter)
            at_node = [filter, node](NodeId to, const std::string& topic) {
                return filter(node, to, topic);
            };
        relays_[node].set_filter(std::move(at_node));
    }
}

const PropagationRecord* GossipOverlay::record(const Hash256& id) const {
    const auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
}

double GossipOverlay::delivery_ratio(const Hash256& id) const {
    const PropagationRecord* rec = record(id);
    if (rec == nullptr || relays_.empty()) return 0.0;
    return static_cast<double>(rec->delivered) / static_cast<double>(relays_.size());
}

std::optional<SimTime> GossipOverlay::time_to_quantile(const Hash256& id,
                                                       double quantile) const {
    DLT_EXPECTS(quantile > 0 && quantile <= 1);
    const PropagationRecord* rec = record(id);
    if (rec == nullptr) return std::nullopt;
    const std::size_t needed = static_cast<std::size_t>(
        std::ceil(quantile * static_cast<double>(relays_.size())));
    if (rec->arrival.size() < needed || needed == 0) return std::nullopt;
    std::vector<SimTime> times;
    times.reserve(rec->arrival.size());
    for (const auto& [node, t] : rec->arrival) times.push_back(t);
    std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(needed - 1),
                     times.end());
    return times[needed - 1] - rec->origin_time;
}

} // namespace dlt::net
