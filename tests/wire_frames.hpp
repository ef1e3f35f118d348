// Wire-frame builders shared by the serving-layer tests: render request
// and delta frames exactly as a client would send them, and rebuild the
// graph the server reconstructs from a frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "io/json.hpp"

namespace acolay::test {

/// Optional request-frame keys; defaults omit them.
struct FrameOpts {
  double deadline = 0.0;
  int priority = 0;
  bool warm = false;
  std::string cycle_policy = {};  // empty = omit the key (server default)
};

/// Renders a wire request frame for `g`. Edge order on the wire is
/// Digraph::edges() (source-major) order, so the graph the server
/// reconstructs has source-major adjacency — wire_normalized() below
/// builds the Digraph the direct solver must be handed for bit-identity
/// comparisons.
inline std::string frame(const std::string& id, const graph::Digraph& g,
                         int num_tours, std::uint64_t seed,
                         FrameOpts opts = {}) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", g.num_vertices());
  w.key("edges").begin_array();
  for (const auto& e : g.edges()) {
    w.begin_array().value(e.source).value(e.target).end_array();
  }
  w.end_array();
  w.key("widths").begin_array();
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    w.value(g.width(v));
  }
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_tours", num_tours);
  w.kv("seed", seed);
  w.end_object();
  if (opts.deadline > 0.0) w.kv("deadline_seconds", opts.deadline);
  if (opts.priority != 0) w.kv("priority", opts.priority);
  if (opts.warm) w.kv("warm", true);
  if (!opts.cycle_policy.empty()) w.kv("cycle_policy", opts.cycle_policy);
  w.end_object();
  return w.str();
}

/// The graph as the server will reconstruct it from the frame above:
/// edges re-added in source-major order (predecessor lists included).
inline graph::Digraph wire_normalized(const graph::Digraph& g) {
  graph::Digraph out(g.num_vertices());
  for (const auto& e : g.edges()) out.add_edge(e.source, e.target);
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    out.set_width(v, g.width(v));
  }
  return out;
}

/// Renders a wire delta frame (exactly "id" and "delta", per the
/// protocol's exclusivity rule).
inline std::string delta_frame(const std::string& id,
                               const std::string& base_hex,
                               const graph::GraphDelta& d) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("delta").begin_object();
  w.kv("base", base_hex);
  if (!d.remove_edges.empty()) {
    w.key("remove_edges").begin_array();
    for (const auto& e : d.remove_edges) {
      w.begin_array().value(e.source).value(e.target).end_array();
    }
    w.end_array();
  }
  if (!d.remove_vertices.empty()) {
    w.key("remove_vertices").begin_array();
    for (const auto v : d.remove_vertices) w.value(v);
    w.end_array();
  }
  if (!d.add_vertex_widths.empty()) {
    w.key("add_vertices").begin_array();
    for (const double width : d.add_vertex_widths) w.value(width);
    w.end_array();
  }
  if (!d.add_edges.empty()) {
    w.key("add_edges").begin_array();
    for (const auto& e : d.add_edges) {
      w.begin_array().value(e.source).value(e.target).end_array();
    }
    w.end_array();
  }
  if (!d.set_widths.empty()) {
    w.key("set_widths").begin_array();
    for (const auto& change : d.set_widths) {
      w.begin_array().value(change.vertex).value(change.width).end_array();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace acolay::test
