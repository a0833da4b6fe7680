#include "net/relay.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"

namespace dlt::net {

Relay::Relay(transport::Transport& transport, std::size_t fanout, Rng& rng,
             Handler handler)
    : transport_(transport), fanout_(fanout), rng_(rng), handler_(std::move(handler)) {
    DLT_EXPECTS(handler_ != nullptr);
    auto& registry = obs::MetricsRegistry::global();
    broadcasts_ = &registry.counter("gossip_broadcasts_total",
                                    "Messages injected into the overlay");
    accepts_ = &registry.counter("gossip_accepts_total",
                                 "First-time deliveries across all nodes");
    dedup_hits_ = &registry.counter("gossip_dedup_hits_total",
                                    "Frames discarded as already seen");
    seen_ids_ = &registry.gauge("gossip_seen_ids",
                                "Message ids remembered across all relays");
}

Relay::~Relay() { seen_ids_->add(-static_cast<double>(seen_.size())); }

Hash256 Relay::publish(const std::string& topic, ByteView payload) {
    Writer w;
    w.str(topic);
    w.blob(payload);
    w.u32(transport_.local_id());
    w.f64(transport_.now());
    const Hash256 id = crypto::tagged_hash("dlt/gossip-id", w.data());

    Bytes framed; // framed once: every hop shares it where the transport can
    framed.reserve(kIdBytes + payload.size());
    append(framed, id.view());
    append(framed, payload);
    const auto frame = std::make_shared<const Bytes>(std::move(framed));

    broadcasts_->inc();
    remember(id);
    accepts_->inc();
    const ByteView view(*frame);
    if (handler_(transport_.local_id(), topic, id, view.subspan(kIdBytes)))
        forward(transport_.local_id(), topic, view, frame);
    return id;
}

void Relay::receive(PeerId from, const std::string& topic, ByteView frame) {
    if (frame.size() < kIdBytes) return; // malformed
    const Hash256 id = Hash256::from_bytes(frame.first(kIdBytes));
    if (!remember(id)) {
        dedup_hits_->inc();
        return;
    }
    accepts_->inc();
    if (handler_(from, topic, id, frame.subspan(kIdBytes)))
        forward(from, topic, frame, nullptr);
}

bool Relay::remember(const Hash256& id) {
    if (!seen_.insert(id).second) return false;
    seen_order_.push_back(id);
    if (seen_order_.size() > kMaxSeen) {
        seen_.erase(seen_order_.front());
        seen_order_.pop_front();
    } else {
        seen_ids_->add(1);
    }
    return true;
}

void Relay::forward(PeerId skip, const std::string& topic, ByteView frame,
                    const std::shared_ptr<const Bytes>& shared) {
    // Never echo a frame to its sender, and never waste a sampled slot on it.
    std::vector<PeerId> peers = transport_.peer_ids();
    std::erase_if(peers, [&](PeerId p) {
        return p == skip || (filter_ && !filter_(p, topic));
    });
    if (fanout_ != 0 && fanout_ < peers.size()) {
        rng_.shuffle(peers);
        peers.resize(fanout_);
    }
    for (const PeerId p : peers) {
        if (shared)
            transport_.send_shared(p, topic, shared);
        else
            transport_.send(p, topic, frame); // the received buffer itself
    }
}

} // namespace dlt::net
