#include "consensus/pbft.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

// Implementation notes / simplifications (documented in DESIGN.md):
//  - Messages carry plain replica ids instead of signatures (the standard
//    "authenticated channels" PBFT variant); the engine drops a vote whose
//    claimed sender is not the peer it arrived from.
//  - Checkpointing/garbage collection is omitted: a deployed replica's
//    state transfer is the ledger's own catch-up (skip_to).
//  - View change is the simplified re-proposal form: replicas vote VIEW-CHANGE,
//    adopt view v on a 2f+1 quorum for v (joining early after f+1), the new
//    primary re-proposes every request not yet committed. Uncommitted slots are
//    discarded on view entry, which is safe because anything executed had a
//    2f+1 commit quorum that the next view cannot contradict in the fault
//    scenarios modelled here (crash + equivocation).

namespace dlt::consensus {

using net::transport::PeerId;

Hash256 pbft_batch_digest(const std::vector<Bytes>& requests) {
    Writer w;
    w.varint(requests.size());
    for (const auto& r : requests) w.blob(r);
    return crypto::tagged_hash("dlt/pbft-batch", w.data());
}

namespace {

Hash256 request_digest(const Bytes& request) {
    return crypto::tagged_hash("dlt/pbft-req", request);
}

/// PREPARE, COMMIT: (view, sequence, batch digest, sender).
Bytes encode_vote(std::uint32_t view, std::uint64_t seq, const Hash256& digest,
                  std::uint32_t sender) {
    Writer w;
    w.u32(view);
    w.u64(seq);
    w.fixed(digest);
    w.u32(sender);
    return std::move(w).take();
}

/// VIEW-CHANGE: (target view, sender).
Bytes encode_view_change(std::uint32_t target, std::uint32_t sender) {
    Writer w;
    w.u32(target);
    w.u32(sender);
    return std::move(w).take();
}

} // namespace

// --- PbftEngine ----------------------------------------------------------------------

PbftEngine::PbftEngine(net::transport::Transport& transport, std::uint32_t replicas,
                       double view_change_timeout, Hooks hooks)
    : transport_(transport),
      id_(transport.local_id()),
      n_(replicas),
      f_((replicas - 1) / 3),
      view_change_timeout_(view_change_timeout),
      hooks_(std::move(hooks)) {
    DLT_EXPECTS(replicas >= 1 && id_ < replicas);
    auto& registry = obs::MetricsRegistry::global();
    batches_committed_ = &registry.counter(
        "pbft_batches_committed_total", "Batches executed across all replicas");
    requests_executed_ = &registry.counter(
        "pbft_requests_executed_total", "Requests executed across all replicas");
    view_changes_ = &registry.counter("pbft_view_changes_total",
                                      "View transitions across all replicas");
}

void PbftEngine::set_active(bool active) {
    active_ = active;
    if (!active) restart_view_timer(); // cancels it: an inactive engine arms none
}

void PbftEngine::restart_view_timer() {
    if (view_timer_) transport_.cancel_timer(*view_timer_);
    view_timer_.reset();
    if (outstanding()) arm_view_timer();
}

void PbftEngine::broadcast(const std::string& topic, ByteView payload) {
    if (active_) transport_.broadcast(topic, payload);
}

bool PbftEngine::handle(PeerId from, const std::string& topic, ByteView payload) {
    const bool vote = topic == "prepare" || topic == "commit";
    if (!vote && topic != "preprepare" && topic != "viewchange" && topic != "newview")
        return false;
    if (!active_) return true;
    try {
        if (vote) handle_vote(from, payload, topic == "commit");
        else if (topic == "preprepare") handle_pre_prepare(from, payload);
        else if (topic == "viewchange") handle_view_change(from, payload);
        else handle_new_view(from, payload);
    } catch (const Error&) {
        // Malformed message: drop, as a hardened replica would.
    }
    return true;
}

// --- Proposal ------------------------------------------------------------------------------

Bytes PbftEngine::encode_pre_prepare(std::uint64_t seq,
                                     const std::vector<Bytes>& requests) const {
    Writer w;
    w.u32(view_);
    w.u64(seq);
    w.fixed(pbft_batch_digest(requests));
    w.varint(requests.size());
    for (const auto& req : requests) w.blob(req);
    return std::move(w).take();
}

void PbftEngine::propose(std::vector<Bytes> requests) {
    if (!is_primary() || !active_) return;
    next_sequence_ = std::max(next_sequence_, last_executed_ + 1);
    const Bytes pp = encode_pre_prepare(next_sequence_++, requests);
    broadcast("preprepare", ByteView(pp));
    // The primary processes its own pre-prepare locally.
    handle_pre_prepare(id_, ByteView(pp));
}

void PbftEngine::equivocate(const std::vector<Bytes>& requests,
                            const std::vector<Bytes>& conflicting) {
    const std::uint64_t seq = next_sequence_++;
    const Bytes a = encode_pre_prepare(seq, requests);
    const Bytes b = encode_pre_prepare(seq, conflicting);
    for (std::uint32_t to = 0; to < n_; ++to) {
        if (to == id_) continue;
        transport_.send(to, "preprepare", ByteView(to % 2 == 0 ? a : b));
    }
}

// --- Three-phase agreement -----------------------------------------------------------

void PbftEngine::handle_pre_prepare(PeerId from, ByteView payload) {
    Reader reader(payload);
    const std::uint32_t view = reader.u32();
    const std::uint64_t seq = reader.u64();
    const Hash256 digest = reader.fixed<32>();
    const std::uint64_t count = reader.varint_count(); // each blob has a length
    std::vector<Bytes> requests;
    requests.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) requests.push_back(reader.blob());
    reader.expect_done();

    if (view != view_ || from != primary_of_view(view)) return;
    if (pbft_batch_digest(requests) != digest) return; // primary lied about digest
    if (seq <= last_executed_) return;

    Slot& slot = slots_[seq];
    if (slot.pre_prepared && slot.view == view && *slot.digest != digest)
        return; // conflicting pre-prepare in the same view: ignore (equivocation)
    if (slot.digest && *slot.digest != digest) {
        // Votes that arrived first named another batch; they do not count.
        slot.prepares.clear();
        slot.commits.clear();
    }
    slot.view = view;
    slot.digest = digest;
    slot.requests = std::move(requests);
    slot.pre_prepared = true;
    if (hooks_.pre_prepared) hooks_.pre_prepared(seq, slot.requests);

    broadcast("prepare", ByteView(encode_vote(view, seq, digest, id_)));
    slot.prepares.insert(id_); // count our own prepare
    try_advance(seq);
    arm_view_timer();
}

void PbftEngine::handle_vote(PeerId from, ByteView payload, bool commit) {
    Reader reader(payload);
    const std::uint32_t view = reader.u32();
    const std::uint64_t seq = reader.u64();
    const Hash256 digest = reader.fixed<32>();
    const std::uint32_t sender = reader.u32();
    reader.expect_done();

    if (sender != from || view != view_ || seq <= last_executed_) return;
    Slot& slot = slots_[seq];
    // Before the pre-prepare, the first vote's digest is remembered so later
    // votes count only if they match it.
    if (!slot.digest) slot.digest = digest;
    else if (*slot.digest != digest) return;
    if (commit) {
        slot.commits.insert(sender);
    } else {
        slot.view = view;
        slot.prepares.insert(sender);
    }
    try_advance(seq);
}

void PbftEngine::try_advance(std::uint64_t sequence) {
    const auto it = slots_.find(sequence);
    if (it == slots_.end()) return;
    Slot& slot = it->second;
    const std::size_t quorum = n_ - f_; // 2f+1 when n = 3f+1

    // prepared == pre-prepare received + a quorum of matching PREPAREs
    // (conservative: our own prepare is in the set).
    if (!slot.prepared && slot.pre_prepared && slot.prepares.size() >= quorum) {
        slot.prepared = true;
        broadcast("commit", ByteView(encode_vote(slot.view, sequence, *slot.digest, id_)));
        slot.commits.insert(id_);
    }

    if (!slot.committed && slot.prepared && slot.commits.size() >= quorum) {
        slot.committed = true;
        if (hooks_.committed) hooks_.committed(sequence, slot.requests);
        execute_ready();
    }
}

void PbftEngine::execute_ready() {
    for (;;) {
        const auto it = slots_.find(last_executed_ + 1);
        if (it == slots_.end() || !it->second.committed) break;
        Slot& slot = it->second;
        CommittedBatch batch{last_executed_ + 1, slot.view, std::move(slot.requests),
                             transport_.now()};
        batches_committed_->inc();
        requests_executed_->inc(batch.requests.size());
        ++last_executed_;
        slots_.erase(it);
        if (hooks_.execute) hooks_.execute(std::move(batch));
    }

    restart_view_timer(); // progress happened
    if (is_primary() && hooks_.may_propose) hooks_.may_propose();
}

void PbftEngine::skip_to(std::uint64_t sequence) {
    if (sequence <= last_executed_) return;
    last_executed_ = sequence;
    slots_.erase(slots_.begin(), slots_.upper_bound(sequence));
    execute_ready();
}

// --- View changes ---------------------------------------------------------------------

void PbftEngine::arm_view_timer() {
    if (!active_ || view_timer_) return;
    view_timer_ = transport_.schedule_after(view_change_timeout_, [this] {
        view_timer_.reset();
        start_view_change();
    });
}

void PbftEngine::start_view_change() {
    if (!active_) return;
    if (!outstanding()) return; // nothing to order: no need for a view change

    const Bytes vote = encode_view_change(view_ + 1, id_);
    broadcast("viewchange", ByteView(vote));
    handle_view_change(id_, ByteView(vote)); // count own vote uniformly

    // The vote may not reach a quorum (partitioned cluster, >f crashes): re-arm
    // the timer so the view change is re-broadcast once the network heals.
    // Votes are per-replica sets, so retries never double-count.
    arm_view_timer();
}

void PbftEngine::handle_view_change(PeerId from, ByteView payload) {
    Reader reader(payload);
    const std::uint32_t target = reader.u32();
    const std::uint32_t sender = reader.u32();
    reader.expect_done();

    if (sender != from || target <= view_) return;
    auto& votes = view_votes_[target];
    votes.insert(sender);

    // Join an in-progress view change once f+1 others vote (liveness
    // amplification from the PBFT paper).
    if (votes.size() >= f_ + 1 && !votes.contains(id_)) {
        broadcast("viewchange", ByteView(encode_view_change(target, id_)));
        votes.insert(id_);
    }

    if (votes.size() >= n_ - f_) {
        enter_view(target);
        if (primary_of_view(target) == id_) {
            Writer w;
            w.u32(target);
            broadcast("newview", ByteView(w.data()));
            // Re-propose everything outstanding.
            if (hooks_.may_propose) hooks_.may_propose();
        }
    }
}

void PbftEngine::handle_new_view(PeerId from, ByteView payload) {
    Reader reader(payload);
    const std::uint32_t view = reader.u32();
    reader.expect_done();
    if (view > view_ && from == primary_of_view(view)) enter_view(view);
}

void PbftEngine::enter_view(std::uint32_t view) {
    if (view <= view_) return;
    view_ = view;
    view_changes_->inc();

    // Abandon uncommitted slots: their requests are still pending at the
    // owner (removal happens only on commit) so the new primary re-proposes
    // them.
    std::erase_if(slots_, [](const auto& entry) { return !entry.second.committed; });
    // The new primary continues sequencing after everything it has seen commit.
    next_sequence_ = (slots_.empty() ? last_executed_ : slots_.rbegin()->first) + 1;

    view_votes_.erase(view_votes_.begin(), view_votes_.upper_bound(view));
    restart_view_timer();
    if (is_primary() && hooks_.may_propose) hooks_.may_propose();
}

// --- PbftCluster ---------------------------------------------------------------------

PbftCluster::PbftCluster(PbftConfig config, std::uint64_t seed)
    : config_(config),
      n_(3 * config.f + 1),
      rng_(seed),
      network_(scheduler_, rng_.fork(1)),
      hub_(network_, n_),
      // Finality is the execute step (on_finalized); depth-based k-deep never
      // applies to a total-order log.
      lifecycle_(1, &obs::Tracer::global()) {
    DLT_EXPECTS(config.f >= 1);
    network_.build_full_mesh(config_.link);
    replicas_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
        PbftEngine::Hooks hooks;
        if (i == 0)
            hooks.pre_prepared = [this](std::uint64_t, const std::vector<Bytes>& requests) {
                for (const auto& req : requests)
                    lifecycle_.on_first_seen(request_digest(req), 0, scheduler_.now());
            };
        hooks.committed = [this, i](std::uint64_t seq, const std::vector<Bytes>& requests) {
            on_committed(i, seq, requests);
        };
        hooks.execute = [this, i](CommittedBatch batch) { on_execute(i, std::move(batch)); };
        hooks.has_pending = [this, i] { return !replicas_[i].pending.empty(); };
        hooks.may_propose = [this, i] { maybe_cut_batch(i); };
        net::transport::Transport& endpoint = hub_.endpoint(i);
        PbftEngine& engine = *(replicas_[i].engine = std::make_unique<PbftEngine>(
                                   endpoint, n_, config_.view_change_timeout, std::move(hooks)));
        endpoint.set_handler([&engine](PeerId from, const std::string& topic, ByteView payload) {
            engine.handle(from, topic, payload);
        });
    }
}

void PbftCluster::submit(Bytes request) {
    submit_times_.emplace(request_digest(request), scheduler_.now());
    lifecycle_.on_submitted(request_digest(request), scheduler_.now(), 0);
    // Clients multicast to all replicas so a faulty primary cannot censor
    // without detection.
    for (std::uint32_t i = 0; i < n_; ++i) {
        Bytes copy = request;
        scheduler_.schedule_after(0.0, [this, i, copy = std::move(copy)]() mutable {
            handle_request(i, copy);
        });
    }
}

void PbftCluster::set_fault(std::uint32_t replica, PbftFault fault) {
    DLT_EXPECTS(replica < n_);
    replicas_[replica].fault = fault;
    replicas_[replica].engine->set_active(fault != PbftFault::kCrashed);
    network_.set_crashed(replica, fault == PbftFault::kCrashed);
}

void PbftCluster::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

// --- Request intake and batching ---------------------------------------------------

void PbftCluster::handle_request(std::uint32_t replica, const Bytes& request) {
    Replica& r = replicas_[replica];
    if (r.fault == PbftFault::kCrashed) return;
    r.pending.push_back(request);
    r.engine->arm_view_timer();
    if (r.engine->is_primary()) maybe_cut_batch(replica);
}

void PbftCluster::maybe_cut_batch(std::uint32_t replica) {
    Replica& r = replicas_[replica];
    if (!r.engine->is_primary() || r.pending.empty()) return;
    if (r.pending.size() >= config_.batch_size) {
        if (r.batch_timer) {
            scheduler_.cancel(*r.batch_timer);
            r.batch_timer.reset();
        }
        propose_batch(replica);
        return;
    }
    if (!r.batch_timer) {
        r.batch_timer = scheduler_.schedule_after(config_.batch_interval,
                                                  [this, replica] {
                                                      replicas_[replica].batch_timer.reset();
                                                      propose_batch(replica);
                                                  });
    }
}

void PbftCluster::propose_batch(std::uint32_t replica) {
    Replica& r = replicas_[replica];
    if (!r.engine->is_primary() || r.fault == PbftFault::kCrashed || r.pending.empty())
        return;

    std::vector<Bytes> requests;
    const std::size_t take = std::min(config_.batch_size, r.pending.size());
    for (std::size_t i = 0; i < take; ++i) {
        requests.push_back(std::move(r.pending.front()));
        r.pending.pop_front();
    }

    if (r.fault == PbftFault::kEquivocating) {
        // Send one batch to the first half of replicas and a conflicting
        // (reordered) batch to the other half.
        std::vector<Bytes> shuffled = requests;
        std::reverse(shuffled.begin(), shuffled.end());
        if (shuffled == requests) shuffled.push_back(Bytes{0xFF}); // force conflict
        r.engine->equivocate(requests, shuffled);
        return;
    }

    r.engine->propose(std::move(requests));
    if (!r.pending.empty()) maybe_cut_batch(replica);
}

void PbftCluster::on_committed(std::uint32_t replica, std::uint64_t sequence,
                               const std::vector<Bytes>& requests) {
    Replica& r = replicas_[replica];
    if (replica == 0) {
        // Commit = inclusion in the total order at this sequence number.
        std::vector<Hash256> digests;
        digests.reserve(requests.size());
        for (const auto& req : requests) digests.push_back(request_digest(req));
        lifecycle_.on_block_connected(sequence, digests, scheduler_.now());
    }
    // Drop committed requests from the pending queue (they are spoken for).
    for (const auto& req : requests)
        if (const auto match = std::find(r.pending.begin(), r.pending.end(), req);
            match != r.pending.end())
            r.pending.erase(match);
}

void PbftCluster::on_execute(std::uint32_t replica, CommittedBatch batch) {
    if (replica == 0) {
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled()) {
            tracer.instant(
                "pbft.execute", "consensus", scheduler_.now(), replica,
                {{"seq", obs::trace_arg(batch.sequence)},
                 {"view", obs::trace_arg(static_cast<std::uint64_t>(batch.view))},
                 {"requests",
                  obs::trace_arg(static_cast<std::uint64_t>(batch.requests.size()))}});
        }
        for (const auto& req : batch.requests) {
            const auto t = submit_times_.find(request_digest(req));
            if (t != submit_times_.end())
                commit_latencies_.push_back(scheduler_.now() - t->second);
            // Execute = deterministic finality for the request.
            lifecycle_.on_finalized(request_digest(req), scheduler_.now());
        }
    }
    replicas_[replica].log.push_back(std::move(batch));
}

// --- Inspection -------------------------------------------------------------------------

const std::vector<CommittedBatch>& PbftCluster::log_of(std::uint32_t replica) const {
    return replicas_.at(replica).log;
}

std::size_t PbftCluster::executed_requests(std::uint32_t replica) const {
    std::size_t count = 0;
    for (const auto& batch : replicas_.at(replica).log) count += batch.requests.size();
    return count;
}

bool PbftCluster::logs_consistent() const {
    const Replica* reference = nullptr;
    for (const auto& r : replicas_) {
        if (r.fault != PbftFault::kNone) continue;
        if (reference == nullptr) {
            reference = &r;
            continue;
        }
        const std::size_t common = std::min(reference->log.size(), r.log.size());
        for (std::size_t i = 0; i < common; ++i) {
            if (reference->log[i].sequence != r.log[i].sequence ||
                reference->log[i].requests != r.log[i].requests)
                return false;
        }
    }
    return true;
}

std::uint32_t PbftCluster::max_view() const {
    std::uint32_t view = 0;
    for (const auto& r : replicas_)
        if (r.fault == PbftFault::kNone) view = std::max(view, r.engine->view());
    return view;
}

std::optional<double> PbftCluster::mean_commit_latency() const {
    if (commit_latencies_.empty()) return std::nullopt;
    double sum = 0;
    for (const double lat : commit_latencies_) sum += lat;
    return sum / static_cast<double>(commit_latencies_.size());
}

} // namespace dlt::consensus
