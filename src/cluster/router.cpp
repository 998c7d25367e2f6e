#include "cluster/router.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace mw::cluster {
namespace {

/// FNV-1a + murmur3 finalizer for ring points and request keys. The
/// placement must be identical across hosts and runs, so std::hash
/// (implementation-defined) is out. Raw FNV-1a is not enough either: the
/// last input byte moves the hash by at most ~2^48 (one multiply by the
/// 2^40-sized prime), so sequential ids like "model#1", "model#2" would all
/// land in the same ring arc (arcs average 2^64/points wide). The finalizer
/// diffuses low-byte changes across all 64 bits.
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

}  // namespace

Router::Router(const Clock& clock, Transport& transport, RouterConfig config,
               obs::MetricsRegistry* metrics)
    : config_(std::move(config)), clock_(&clock), transport_(&transport),
      owned_metrics_(metrics == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      health_(config_.health, clock, metrics_) {
    MW_CHECK(!config_.name.empty(), "Router: name must be non-empty");
    MW_CHECK(config_.request_timeout_s > 0.0,
             "Router: request_timeout_s must be > 0");
    MW_CHECK(config_.max_attempts >= 1, "Router: max_attempts must be >= 1");
    MW_CHECK(config_.vnodes_per_node >= 1, "Router: vnodes_per_node must be >= 1");
    submitted_metric_ = &metrics_->counter("mw_cluster_submitted_total");
    completed_metric_ = &metrics_->counter("mw_cluster_completed_total");
    failed_metric_ = &metrics_->counter("mw_cluster_failed_total");
    rejected_metric_ = &metrics_->counter("mw_cluster_rejected_total");
    shutdown_metric_ = &metrics_->counter("mw_cluster_shutdown_total");
    rerouted_metric_ = &metrics_->counter("mw_cluster_rerouted_total");
    hedges_metric_ = &metrics_->counter("mw_cluster_hedges_total");
    timeouts_metric_ = &metrics_->counter("mw_cluster_timeouts_total");
    transport_->register_endpoint(config_.name,
                                  [this](const std::string& from, const Frame& frame) {
                                      handle_frame(from, frame);
                                  });
    maintenance_ = pool_.submit([this] { maintenance_loop(); });
}

Router::~Router() { stop(); }

void Router::add_node(const std::string& node,
                      const std::vector<std::string>& models) {
    MW_CHECK(!node.empty(), "Router: node name must be non-empty");
    const MutexLock lock(mutex_);
    if (nodes_.insert(node).second) {
        outstanding_.emplace(node, 0);
        for (std::size_t v = 0; v < config_.vnodes_per_node; ++v) {
            ring_.emplace_back(fnv1a(node + "#" + std::to_string(v)), node);
        }
        std::sort(ring_.begin(), ring_.end());
    }
    for (const std::string& model : models) {
        auto& replicas = placement_[model];
        if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
            replicas.push_back(node);
        }
    }
}

std::optional<std::string> Router::pick_node(const std::string& model,
                                             std::uint64_t id,
                                             const std::vector<std::string>& exclude) {
    const auto it = placement_.find(model);
    if (it == placement_.end() || it->second.empty()) return std::nullopt;
    std::vector<std::string> candidates;
    candidates.reserve(it->second.size());
    for (const std::string& node : it->second) {
        if (std::find(exclude.begin(), exclude.end(), node) == exclude.end()) {
            candidates.push_back(node);
        }
    }
    if (candidates.empty()) return std::nullopt;
    // The breaker is the admission point: open nodes are skipped, half-open
    // ones admit the occasional probe (that probe is how a healed partition
    // re-admits a replica).
    const std::vector<std::string> allowed =
        health_.partition_allowed(candidates, nullptr);
    if (allowed.empty()) return std::nullopt;

    // A half-open node that allow() just admitted IS the probe: send this
    // request there, or the load-based tie-break below would starve a
    // recovering (idle, but not yet trusted) replica of probes forever.
    for (const std::string& node : allowed) {
        if (health_.state(node) == fault::BreakerState::kHalfOpen) return node;
    }

    if (config_.policy == RoutePolicy::kLeastLoaded) {
        std::size_t best_load = 0;
        std::vector<const std::string*> best;
        for (const std::string& node : allowed) {
            const std::size_t load = outstanding_[node];
            if (best.empty() || load < best_load) {
                best_load = load;
                best.assign(1, &node);
            } else if (load == best_load) {
                best.push_back(&node);
            }
        }
        // Round-robin among the tied minimum, NOT first-by-name: a burst of
        // equal-load picks (idle fleet, or timed-out reroutes landing after
        // everyone drained) would otherwise all pile onto one replica.
        return *best[rr_++ % best.size()];
    }

    // Consistent hash: walk the ring from the request's point until a vnode
    // of an allowed replica appears. The walk is what keeps placement stable
    // when a node is excluded: only its keys move.
    const std::set<std::string> allowed_set(allowed.begin(), allowed.end());
    const std::uint64_t point = fnv1a(model + "#" + std::to_string(id));
    auto start = std::lower_bound(ring_.begin(), ring_.end(),
                                  std::make_pair(point, std::string{}));
    for (std::size_t step = 0; step < ring_.size(); ++step) {
        if (start == ring_.end()) start = ring_.begin();
        if (allowed_set.count(start->second) > 0) return start->second;
        ++start;
    }
    return std::nullopt;
}

void Router::release_charges(const PendingEntry& entry) {
    for (const std::string& node : entry.nodes) {
        auto it = outstanding_.find(node);
        if (it != outstanding_.end() && it->second > 0) --it->second;
    }
}

void Router::count_terminal(serve::RequestStatus status) {
    switch (status) {
        case serve::RequestStatus::kCompleted:
            completed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            completed_metric_->inc();
            break;
        case serve::RequestStatus::kRejectedFull:
            rejected_full_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            rejected_metric_->inc();
            break;
        case serve::RequestStatus::kEvicted:
            evicted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            rejected_metric_->inc();
            break;
        case serve::RequestStatus::kShedDeadline:
            shed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            rejected_metric_->inc();
            break;
        case serve::RequestStatus::kShutdown:
            shutdown_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            shutdown_metric_->inc();
            break;
        case serve::RequestStatus::kFailed:
            failed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            failed_metric_->inc();
            break;
    }
}

void Router::complete(PendingEntry entry, ClusterResponse response) {
    response.round_trip_s = clock_->now() - entry.submit_s;
    response.attempts = entry.attempts;
    response.hedged = response.hedged || entry.hedged;
    count_terminal(response.status);
    entry.promise.set_value(std::move(response));
}

std::future<ClusterResponse> Router::submit(serve::InferenceRequest request) {
    MW_CHECK(!request.model_name.empty(), "Router: model_name must be non-empty");
    MW_CHECK(request.payload.shape().rank() == 2,
             "Router: payload must be rank-2 (samples, sample_elems)");
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed: id uniqueness only, no ordering
    const double now = clock_->now();
    submitted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    submitted_metric_->inc();

    RequestPacket packet;
    packet.id = id;
    packet.model_name = request.model_name;
    packet.policy = request.policy;
    packet.slo_s = request.slo_s;
    packet.sent_at_s = now;
    packet.payload = std::move(request.payload);
    MW_TRACE_INSTANT(obs::Phase::kSerialize, id, now, "request");

    PendingEntry entry;
    entry.frame = packet.serialize();
    entry.model = packet.model_name;
    entry.submit_s = now;
    std::future<ClusterResponse> future = entry.promise.get_future();

    std::optional<std::string> node;
    bool was_stopped = false;
    {
        const MutexLock lock(mutex_);
        if (stopped_.load(std::memory_order_acquire)) {
            was_stopped = true;
        } else {
            node = pick_node(request.model_name, id, {});
            if (node.has_value()) {
                entry.sent_at_s = now;
                entry.deadline_s = now + config_.request_timeout_s;
                entry.nodes.push_back(*node);
                ++outstanding_[*node];
                Frame wire = entry.frame;
                pending_.emplace(id, std::move(entry));
                MW_TRACE_INSTANT(obs::Phase::kRoute, id, now, node->c_str());
                // mw-analyze: allow(blocking-under-lock) simulated transport queues on the
                // injected clock; the lock is held so a reply cannot race the pending insert
                transport_->send(config_.name, *node, std::move(wire), id);
            }
        }
    }
    if (was_stopped) {
        ClusterResponse response;
        response.status = serve::RequestStatus::kShutdown;
        complete(std::move(entry), std::move(response));
    } else if (!node.has_value()) {
        ClusterResponse response;
        response.status = serve::RequestStatus::kFailed;
        response.error = "no healthy replica for model: " + request.model_name;
        complete(std::move(entry), std::move(response));
    }
    return future;
}

void Router::handle_frame(const std::string& from, const Frame& frame) {
    ResponsePacket packet;
    try {
        packet = parse_response(frame);
    } catch (const PacketError&) {
        stale_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
        return;
    }
    PendingEntry entry;
    {
        const MutexLock lock(mutex_);
        const auto it = pending_.find(packet.id);
        if (it == pending_.end()) {
            // The hedge loser, a response that raced a reroute, or anything
            // arriving after stop() drained the table.
            stale_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
            return;
        }
        entry = std::move(it->second);
        pending_.erase(it);
        release_charges(entry);
    }
    if (packet.status == serve::RequestStatus::kCompleted) {
        health_.on_success(packet.node_name, packet.execute_s);
    }
    if (entry.attempts > 1) {
        rerouted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    ClusterResponse response;
    response.status = packet.status;
    response.node_name = packet.node_name;
    response.device_name = packet.device_name;
    response.error = packet.error;
    response.outputs = std::move(packet.outputs);
    response.queue_s = packet.queue_s;
    response.execute_s = packet.execute_s;
    response.service_s = packet.service_s;
    response.end_time_s = packet.end_time_s;
    response.energy_j = packet.energy_j;
    response.hedged = packet.hedged;
    const double now = clock_->now();
    MW_TRACE_INSTANT(obs::Phase::kComplete, packet.id, now,
                     status_label(packet.status));
    complete(std::move(entry), std::move(response));
    (void)from;
}

void Router::maintenance_loop() {
    while (!stopped_.load(std::memory_order_acquire)) {
        sleep_for_seconds(config_.maintenance_poll_s);
        const double now = clock_->now();
        std::vector<PendingEntry> expired;
        {
            const MutexLock lock(mutex_);
            for (auto it = pending_.begin(); it != pending_.end();) {
                PendingEntry& entry = it->second;
                if (now >= entry.deadline_s) {
                    timeouts_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                    timeouts_metric_->inc();
                    // Silence past the deadline is the only failure signal a
                    // lossy fabric gives; feed it to the breaker.
                    health_.on_failure(entry.nodes.back());
                    std::optional<std::string> retry;
                    if (entry.attempts < config_.max_attempts) {
                        retry = pick_node(entry.model, it->first,
                                          {entry.nodes.back()});
                    }
                    if (retry.has_value()) {
                        ++entry.attempts;
                        entry.nodes.push_back(*retry);
                        ++outstanding_[*retry];
                        entry.sent_at_s = now;
                        entry.deadline_s = now + config_.request_timeout_s;
                        rerouted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                        rerouted_metric_->inc();
                        MW_TRACE_INSTANT(obs::Phase::kRoute, it->first, now,
                                         ("re:" + *retry).c_str());
                        // mw-analyze: allow(blocking-under-lock) simulated transport, held
                        // deliberately: the reroute must land in pending_ before any reply
                        transport_->send(config_.name, *retry, entry.frame,
                                         it->first);
                        ++it;
                    } else {
                        release_charges(entry);
                        expired.push_back(std::move(entry));
                        it = pending_.erase(it);
                    }
                } else if (!entry.hedged && config_.hedge_timeout_s > 0.0 &&
                           now >= entry.sent_at_s + config_.hedge_timeout_s) {
                    const std::optional<std::string> mate =
                        pick_node(entry.model, it->first, entry.nodes);
                    if (mate.has_value()) {
                        entry.hedged = true;
                        entry.nodes.push_back(*mate);
                        ++outstanding_[*mate];
                        hedges_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
                        hedges_metric_->inc();
                        health_.note_hedge(*mate);
                        MW_TRACE_INSTANT(obs::Phase::kHedge, it->first, now,
                                         mate->c_str());
                        // mw-analyze: allow(blocking-under-lock) simulated transport, held
                        // deliberately: the hedge must land in pending_ before any reply
                        transport_->send(config_.name, *mate, entry.frame,
                                         it->first);
                    } else {
                        // No second replica to hedge to; stop re-checking.
                        entry.hedged = true;
                    }
                    ++it;
                } else {
                    ++it;
                }
            }
        }
        for (PendingEntry& entry : expired) {
            ClusterResponse response;
            response.status = serve::RequestStatus::kFailed;
            response.error = "replica unreachable after " +
                             std::to_string(entry.attempts) + " attempt(s)";
            response.node_name = entry.nodes.empty() ? "" : entry.nodes.back();
            complete(std::move(entry), std::move(response));
        }
    }
}

void Router::stop() {
    if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
    if (maintenance_.valid()) maintenance_.get();
    std::vector<PendingEntry> drained;
    {
        const MutexLock lock(mutex_);
        for (auto& [id, entry] : pending_) {
            release_charges(entry);
            drained.push_back(std::move(entry));
        }
        pending_.clear();
    }
    for (PendingEntry& entry : drained) {
        ClusterResponse response;
        response.status = serve::RequestStatus::kShutdown;
        complete(std::move(entry), std::move(response));
    }
}

RouterCounters Router::counters() const {
    RouterCounters counters;
    counters.submitted = submitted_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.completed = completed_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.rejected_full = rejected_full_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.evicted = evicted_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.shed = shed_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.failed = failed_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.shutdown = shutdown_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.rerouted = rerouted_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.hedges = hedges_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.timeouts = timeouts_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    counters.stale = stale_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    return counters;
}

std::size_t Router::pending() const {
    const MutexLock lock(mutex_);
    return pending_.size();
}

std::size_t Router::outstanding(const std::string& node) const {
    const MutexLock lock(mutex_);
    const auto it = outstanding_.find(node);
    return it == outstanding_.end() ? 0 : it->second;
}

}  // namespace mw::cluster
