// Vertex-centric BSP engine — the Apache Giraph / Pregel stand-in used by
// the Fig. 5b baseline comparison.
//
// Same substrate as the subgraph-centric runtime (one worker thread per
// partition, bulk message delivery, barriered supersteps), but the unit of
// computation is a single vertex and messages address vertices. This
// isolates exactly the difference the paper attributes its speedups to:
// a vertex-centric SSSP needs ~graph-diameter supersteps and per-vertex
// message traffic, while the subgraph-centric version runs Dijkstra inside
// each subgraph and needs ~partition-hop supersteps.
//
// A run is the one-instance case of TemporalVertexEngine (the τ of the
// paper's [τ, n·τ] bound for a TI-BSP port): the program runs as one
// timestep with no instance attributes, so both engines share one superstep
// loop, delivery exchange, recovery path and send site.
//
// Messages carry one double (what Pregel's SSSP/BFS use).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "partition/partitioned_graph.h"
#include "metrics/stats.h"
#include "vertexcentric/ti_engine.h"

namespace tsg {
namespace vertexcentric {

class VertexContext;

// User logic invoked per active vertex per superstep.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;
  virtual void compute(VertexContext& ctx) = 0;
};

struct VcConfig {
  std::int32_t max_supersteps = 100000;
  // Edge weights by template edge index; empty = unweighted (1.0).
  std::vector<double> edge_weights;
  // Fault tolerance: recovery rolls back to the run's initial cut, which
  // re-seeds values via initial_value and reruns from superstep 0. This
  // caps how many recoveries a run tolerates.
  std::int32_t max_recoveries = 8;
};

struct VcResult {
  RunStats stats;
  std::vector<double> values;  // final per-vertex values
  std::int32_t supersteps = 0;
};

class VertexCentricEngine {
 public:
  explicit VertexCentricEngine(const PartitionedGraph& pg);

  // Runs to quiescence. `initial_value(v)` seeds every vertex value;
  // vertices start active.
  VcResult run(VertexProgram& program, const VcConfig& config,
               const std::function<double(VertexIndex)>& initial_value);

 private:
  class Adapter;  // VertexProgram -> TemporalVertexProgram

  const PartitionedGraph& pg_;
};

// Context passed to VertexProgram::compute: the temporal context of the
// one-instance run plus the value array and edge weights.
class VertexContext {
 public:
  [[nodiscard]] VertexIndex vertex() const { return ctx_.vertex(); }
  [[nodiscard]] std::int32_t superstep() const { return ctx_.superstep(); }
  [[nodiscard]] const GraphTemplate& graphTemplate() const {
    return ctx_.graphTemplate();
  }

  [[nodiscard]] double value() const { return values_[ctx_.vertex()]; }
  void setValue(double v) { values_[ctx_.vertex()] = v; }

  [[nodiscard]] std::span<const double> messages() const {
    return ctx_.messages();
  }

  [[nodiscard]] double edgeWeight(EdgeIndex e) const {
    return edge_weights_.empty() ? 1.0 : edge_weights_[e];
  }

  void sendTo(VertexIndex dst, double value) { ctx_.sendTo(dst, value); }
  void voteToHalt() { ctx_.voteToHalt(); }

 private:
  friend class VertexCentricEngine;

  VertexContext(TemporalVertexContext& ctx, double* values,
                const std::vector<double>& edge_weights)
      : ctx_(ctx), values_(values), edge_weights_(edge_weights) {}

  TemporalVertexContext& ctx_;
  double* values_;
  const std::vector<double>& edge_weights_;
};

}  // namespace vertexcentric
}  // namespace tsg
