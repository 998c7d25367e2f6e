#include "traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "graph/synth.hpp"

namespace pb {

namespace {

/// Fills everything but the arrival time.
class RequestDrawer {
public:
    RequestDrawer(const RequestShape& shape, std::uint64_t seed) : shape_(shape), rng_(seed) {}

    RequestSpec draw(double at_s) {
        RequestSpec r;
        r.at_s = at_s;
        r.model = static_cast<std::uint32_t>(rng_.below(shape_.model_count));
        if (shape_.log_uniform_samples) {
            const double lo = std::log(static_cast<double>(shape_.min_samples));
            const double hi = std::log(static_cast<double>(shape_.max_samples) + 1.0);
            r.samples = static_cast<std::uint32_t>(std::exp(rng_.uniform(lo, hi)));
            if (r.samples > shape_.max_samples) r.samples = shape_.max_samples;
            if (r.samples < shape_.min_samples) r.samples = shape_.min_samples;
        } else {
            r.samples = shape_.min_samples +
                        static_cast<std::uint32_t>(
                            rng_.below(shape_.max_samples - shape_.min_samples + 1));
        }
        r.offset = static_cast<std::uint32_t>(rng_.below(shape_.pool_rows - r.samples + 1));
        r.policy = static_cast<mw::sched::Policy>(rng_.below(3));
        if (shape_.slo_max_s > 0.0) r.slo_s = rng_.uniform(shape_.slo_min_s, shape_.slo_max_s);
        if (shape_.hot_graphs > 0) {
            r.graph = rng_.uniform() < shape_.repeat_share
                          ? static_cast<std::uint32_t>(rng_.below(shape_.hot_graphs))
                          : shape_.hot_graphs + fresh_++;
        }
        return r;
    }

    double exponential(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

private:
    RequestShape shape_;
    mw::Rng rng_;
    std::uint32_t fresh_ = 0;
};

}  // namespace

std::vector<RequestSpec> poisson_stream(const RequestShape& shape, double rate,
                                        double duration_s, std::uint64_t seed) {
    RequestDrawer drawer(shape, seed);
    std::vector<RequestSpec> out;
    out.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
    for (double t = drawer.exponential(rate); t < duration_s; t += drawer.exponential(rate)) {
        out.push_back(drawer.draw(t));
    }
    return out;
}

std::vector<RequestSpec> burst_stream(const RequestShape& shape, double on_rate, double on_s,
                                      double off_s, double duration_s, std::uint64_t seed) {
    RequestDrawer drawer(shape, seed);
    std::vector<RequestSpec> out;
    for (double window = 0.0; window < duration_s; window += on_s + off_s) {
        const double end = std::min(window + on_s, duration_s);
        for (double t = window + drawer.exponential(on_rate); t < end;
             t += drawer.exponential(on_rate)) {
            out.push_back(drawer.draw(t));
        }
    }
    return out;
}

std::uint64_t phase_seed(std::uint64_t run_seed, std::uint64_t phase) {
    std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + phase * 0xbf58476d1ce4e5b9ULL + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

mw::graph::Graph fresh_graph(std::uint64_t seed, std::uint32_t index) {
    mw::Rng rng(phase_seed(seed, index));
    return mw::graph::random_dag(rng, kDagShape);
}

}  // namespace pb
