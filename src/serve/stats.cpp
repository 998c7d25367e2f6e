#include "serve/stats.hpp"

namespace mw::serve {
namespace {

std::string series_name(const char* metric, sched::Policy policy) {
    return std::string("mw_serve_") + metric + "{policy=\"" +
           sched::policy_name(policy) + "\"}";
}

}  // namespace

PolicyCounters ServerSnapshot::totals() const {
    PolicyCounters t;
    for (const auto& p : policy) {
        const PolicyCounters& c = p.counters;
        t.submitted += c.submitted;
        t.admitted += c.admitted;
        t.rejected_full += c.rejected_full;
        t.evicted += c.evicted;
        t.shed += c.shed;
        t.completed += c.completed;
        t.failed += c.failed;
        t.shutdown += c.shutdown;
        t.batches_executed += c.batches_executed;
        t.coalesced_requests += c.coalesced_requests;
        t.samples += c.samples;
        t.bytes_in += c.bytes_in;
        t.energy_j += c.energy_j;
    }
    return t;
}

ServerStats::ServerStats() {
    for (std::size_t i = 0; i < kPolicyLanes; ++i) {
        const auto policy = static_cast<sched::Policy>(i);
        Lane& lane = lanes_[i];
        lane.submitted = &registry_.counter(series_name("submitted_total", policy));
        lane.admitted = &registry_.counter(series_name("admitted_total", policy));
        lane.rejected_full =
            &registry_.counter(series_name("rejected_full_total", policy));
        lane.evicted = &registry_.counter(series_name("evicted_total", policy));
        lane.shed = &registry_.counter(series_name("shed_total", policy));
        lane.completed = &registry_.counter(series_name("completed_total", policy));
        lane.failed = &registry_.counter(series_name("failed_total", policy));
        lane.shutdown = &registry_.counter(series_name("shutdown_total", policy));
        lane.batches_executed =
            &registry_.counter(series_name("batches_executed_total", policy));
        lane.coalesced_requests =
            &registry_.counter(series_name("coalesced_requests_total", policy));
        lane.samples = &registry_.gauge(series_name("samples", policy));
        lane.bytes_in = &registry_.gauge(series_name("bytes_in", policy));
        lane.energy_j = &registry_.gauge(series_name("energy_joules", policy));
        lane.queue_hist = &registry_.histogram(series_name("queue_seconds", policy));
        lane.execute_hist =
            &registry_.histogram(series_name("execute_seconds", policy));
    }
}

void ServerStats::on_submitted(sched::Policy policy) {
    lanes_[lane_of(policy)].submitted->inc();
}

void ServerStats::on_admitted(sched::Policy policy) {
    lanes_[lane_of(policy)].admitted->inc();
}

void ServerStats::on_rejected_full(sched::Policy policy) {
    lanes_[lane_of(policy)].rejected_full->inc();
}

void ServerStats::on_evicted(sched::Policy policy) {
    lanes_[lane_of(policy)].evicted->inc();
}

void ServerStats::on_shed(sched::Policy policy) {
    lanes_[lane_of(policy)].shed->inc();
}

void ServerStats::on_shutdown(sched::Policy policy) {
    lanes_[lane_of(policy)].shutdown->inc();
}

ServerSnapshot ServerStats::snapshot() const {
    ServerSnapshot snap;
    for (std::size_t i = 0; i < kPolicyLanes; ++i) {
        const Lane& lane = lanes_[i];
        PolicySnapshot& out = snap.policy[i];
        out.counters.submitted = lane.submitted->value();
        out.counters.admitted = lane.admitted->value();
        out.counters.rejected_full = lane.rejected_full->value();
        out.counters.evicted = lane.evicted->value();
        out.counters.shed = lane.shed->value();
        out.counters.completed = lane.completed->value();
        out.counters.failed = lane.failed->value();
        out.counters.shutdown = lane.shutdown->value();
        out.counters.batches_executed = lane.batches_executed->value();
        out.counters.coalesced_requests = lane.coalesced_requests->value();
        out.counters.samples = lane.samples->value();
        out.counters.bytes_in = lane.bytes_in->value();
        out.counters.energy_j = lane.energy_j->value();
        out.queue_p50_s = lane.queue_hist->percentile(50.0);
        out.queue_p95_s = lane.queue_hist->percentile(95.0);
        out.queue_p99_s = lane.queue_hist->percentile(99.0);
        out.execute_p50_s = lane.execute_hist->percentile(50.0);
        out.execute_p95_s = lane.execute_hist->percentile(95.0);
        out.execute_p99_s = lane.execute_hist->percentile(99.0);
    }
    return snap;
}

}  // namespace mw::serve
