// Operator DAGs: the workload representation of ROADMAP item 3.
//
// A Graph is a directed acyclic graph of operators, each carrying the same
// analytic cost profile (nn::LayerCost) the execution model already prices
// monolithic models from, plus the byte footprint of its output tensor.
// Edges carry tensors: the bytes flowing along an edge u -> v are exactly
// u's output footprint. Nodes with no producers read their input from host
// memory (`external_in_bytes`), nodes with no consumers write their output
// back — both transfers cross the device's spill link (see schedule.hpp).
//
// Invariant: a node's producers are added before the node itself, so node
// ids (indices into nodes()) are a valid topological order by construction.
// Graph::validate() re-checks the invariant for graphs restored from files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layer.hpp"

namespace mw::graph {

using NodeId = std::size_t;

/// One operator of the DAG.
struct OpNode {
    std::string name;                ///< human label, e.g. "dense(800, relu)"
    nn::LayerCost cost;              ///< analytic cost (flops, bytes, launches)
    double out_bytes = 0.0;          ///< footprint of the output tensor
    double external_in_bytes = 0.0;  ///< graph-input bytes read from host memory
    std::vector<NodeId> inputs;      ///< producer node ids (all < this node's id)
};

/// Every node's consumers in one flat array with per-node offsets:
/// index[u] lists the nodes that read u's output, ascending.
class ConsumerIndex {
public:
    explicit ConsumerIndex(const std::vector<OpNode>& nodes);

    [[nodiscard]] std::size_t size() const { return begin_.size() - 1; }
    [[nodiscard]] std::span<const NodeId> operator[](NodeId u) const {
        return {ids_.data() + begin_[u], ids_.data() + begin_[u + 1]};
    }

private:
    std::vector<std::size_t> begin_;
    std::vector<NodeId> ids_;
};

/// An operator DAG. Append-only: add_node() validates that every producer
/// already exists, which keeps the node array topologically ordered.
class Graph {
public:
    Graph() = default;
    explicit Graph(std::string name) : name_(std::move(name)) {}

    /// Append an operator; `inputs` must reference existing nodes. Returns
    /// the new node's id.
    NodeId add_node(OpNode node);

    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    [[nodiscard]] const OpNode& node(NodeId id) const { return nodes_.at(id); }
    [[nodiscard]] const std::vector<OpNode>& nodes() const { return nodes_; }

    /// consumers()[u] = every node that reads u's output, ascending.
    [[nodiscard]] ConsumerIndex consumers() const { return ConsumerIndex(nodes_); }

    /// Re-check the topological invariant and footprint sanity; throws
    /// InvalidArgument with the offending node named. Graphs built through
    /// add_node() always pass; call this after restoring from a file.
    void validate() const;

    /// Aggregate cost over all operators (the monolithic-kernel view).
    [[nodiscard]] nn::LayerCost total_cost() const;

    /// Total bytes read from + written to host memory at the graph boundary.
    [[nodiscard]] double boundary_bytes() const;

    /// Arithmetic intensity: total flops / total tensor bytes moved if every
    /// edge spilled (the memory-bound vs compute-bound axis of the bench).
    [[nodiscard]] double worst_case_intensity() const;

    /// Plan-cache key: a word-wise hash (hash_word) over every node's cost
    /// fields, footprints and producer ids, kept up to date by add_node(),
    /// with the name and node count folded in here. O(name length).
    [[nodiscard]] std::uint64_t fingerprint() const;

private:
    std::string name_;
    std::vector<OpNode> nodes_;
    std::uint64_t nodes_hash_ = 0;
};

/// One step of the fingerprint hash: the splitmix64 finaliser applied to
/// `h ^ word` plus the golden-ratio increment. Doubles enter as their bits.
[[nodiscard]] std::uint64_t hash_word(std::uint64_t h, std::uint64_t word);

/// Fold `bytes` into `h` eight bytes per hash_word() step (the last word
/// zero-padded), then the length.
[[nodiscard]] std::uint64_t hash_bytes(std::uint64_t h, std::string_view bytes);

}  // namespace mw::graph
