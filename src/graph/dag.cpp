#include "graph/dag.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"

namespace mw::graph {

NodeId Graph::add_node(OpNode node) {
    const NodeId id = nodes_.size();
    for (const NodeId producer : node.inputs) {
        MW_CHECK(producer < id, "graph `" + name_ + "`: node `" + node.name +
                                    "` references producer " + std::to_string(producer) +
                                    " which does not exist yet");
    }
    MW_CHECK(node.out_bytes >= 0.0 && std::isfinite(node.out_bytes),
             "node `" + node.name + "`: out_bytes must be finite and non-negative");
    MW_CHECK(node.external_in_bytes >= 0.0 && std::isfinite(node.external_in_bytes),
             "node `" + node.name + "`: external_in_bytes must be finite and non-negative");
    std::uint64_t h = nodes_hash_;
    for (const double v : {node.cost.flops, node.cost.bytes_in, node.cost.bytes_out,
                           node.cost.bytes_weights, node.cost.work_items, node.out_bytes,
                           node.external_in_bytes}) {
        h = hash_word(h, std::bit_cast<std::uint64_t>(v));
    }
    h = hash_word(h, static_cast<std::uint64_t>(node.cost.kernel_launches));
    h = hash_word(h, node.inputs.size());
    for (const NodeId u : node.inputs) h = hash_word(h, u);
    nodes_hash_ = h;
    nodes_.push_back(std::move(node));
    return id;
}

ConsumerIndex::ConsumerIndex(const std::vector<OpNode>& nodes) : begin_(nodes.size() + 1, 0) {
    for (const OpNode& node : nodes) {
        for (const NodeId u : node.inputs) ++begin_[u + 1];
    }
    for (std::size_t u = 1; u < begin_.size(); ++u) begin_[u] += begin_[u - 1];
    ids_.resize(begin_.back());
    std::vector<std::size_t> next(begin_.begin(), begin_.end() - 1);
    for (NodeId v = 0; v < nodes.size(); ++v) {
        for (const NodeId u : nodes[v].inputs) ids_[next[u]++] = v;
    }
}

void Graph::validate() const {
    for (NodeId v = 0; v < nodes_.size(); ++v) {
        const OpNode& node = nodes_[v];
        for (const NodeId u : node.inputs) {
            if (u >= v) {
                throw InvalidArgument("graph `" + name_ + "`: node " + std::to_string(v) +
                                      " (`" + node.name + "`) has producer " +
                                      std::to_string(u) +
                                      " >= its own id; nodes must be topologically ordered");
            }
        }
        if (!(node.out_bytes >= 0.0) || !std::isfinite(node.out_bytes) ||
            !(node.external_in_bytes >= 0.0) || !std::isfinite(node.external_in_bytes)) {
            throw InvalidArgument("graph `" + name_ + "`: node " + std::to_string(v) + " (`" +
                                  node.name + "`) has a non-finite or negative footprint");
        }
    }
}

nn::LayerCost Graph::total_cost() const {
    nn::LayerCost total;
    for (const OpNode& node : nodes_) total += node.cost;
    return total;
}

double Graph::boundary_bytes() const {
    const auto cons = consumers();
    double bytes = 0.0;
    for (NodeId v = 0; v < nodes_.size(); ++v) {
        bytes += nodes_[v].external_in_bytes;
        if (cons[v].empty()) bytes += nodes_[v].out_bytes;
    }
    return bytes;
}

double Graph::worst_case_intensity() const {
    double flops = 0.0;
    double bytes = 0.0;
    for (const OpNode& node : nodes_) {
        flops += node.cost.flops;
        bytes += node.out_bytes + node.external_in_bytes;
        for (const NodeId u : node.inputs) bytes += nodes_[u].out_bytes;
    }
    return bytes > 0.0 ? flops / bytes : 0.0;
}

std::uint64_t Graph::fingerprint() const {
    return hash_word(hash_bytes(nodes_hash_, name_), nodes_.size());
}

std::uint64_t hash_word(std::uint64_t h, std::uint64_t word) {
    std::uint64_t z = (h ^ word) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t hash_bytes(std::uint64_t h, std::string_view bytes) {
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, 8);
        h = hash_word(h, word);
    }
    if (i < bytes.size()) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, bytes.size() - i);
        h = hash_word(h, word);
    }
    return hash_word(h, bytes.size());
}

}  // namespace mw::graph
