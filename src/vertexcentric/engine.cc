#include "vertexcentric/engine.h"

#include <utility>

#include "gofs/checkpoint.h"

namespace tsg {
namespace vertexcentric {

// The VertexProgram as a temporal program over one attribute-free instance.
// It owns the value array. Its checkpoint state is empty: rolling back to
// the initial cut re-seeds values from initial_value instead of copying
// them into the cut.
class VertexCentricEngine::Adapter final : public TemporalVertexProgram {
 public:
  Adapter(VertexProgram& program, const std::vector<double>& edge_weights,
          const std::function<double(VertexIndex)>& initial_value,
          std::size_t num_vertices)
      : program_(program),
        edge_weights_(edge_weights),
        initial_value_(initial_value),
        values_(num_vertices) {
    seed();
  }

  void compute(TemporalVertexContext& ctx) override {
    VertexContext vctx(ctx, values_.data(), edge_weights_);
    program_.compute(vctx);
  }

  Status loadState(BinaryReader& r) override {
    (void)r;
    seed();
    return Status::ok();
  }

  std::vector<double> takeValues() { return std::move(values_); }

 private:
  void seed() {
    for (VertexIndex v = 0; v < values_.size(); ++v) {
      values_[v] = initial_value_(v);
    }
  }

  VertexProgram& program_;
  const std::vector<double>& edge_weights_;
  const std::function<double(VertexIndex)>& initial_value_;
  std::vector<double> values_;
};

VertexCentricEngine::VertexCentricEngine(const PartitionedGraph& pg)
    : pg_(pg) {}

VcResult VertexCentricEngine::run(
    VertexProgram& program, const VcConfig& config,
    const std::function<double(VertexIndex)>& initial_value) {
  const GraphTemplate& tmpl = pg_.graphTemplate();
  TSG_CHECK(config.edge_weights.empty() ||
            config.edge_weights.size() == tmpl.numEdges());

  Adapter adapter(program, config.edge_weights, initial_value,
                  tmpl.numVertices());
  MemoryCheckpointStore store;  // cuts hold no values; see Adapter
  TemporalVcConfig temporal;
  temporal.max_supersteps_per_timestep = config.max_supersteps;
  temporal.checkpoint_store = &store;
  temporal.max_recoveries = config.max_recoveries;
  auto run = TemporalVertexEngine(pg_).run(adapter, temporal);

  VcResult result;
  result.stats = std::move(run.stats);
  result.values = adapter.takeValues();
  // Records of an aborted attempt precede the completed attempt's, so the
  // last record is that attempt's final superstep.
  result.supersteps = result.stats.supersteps().back().superstep + 1;
  return result;
}

}  // namespace vertexcentric
}  // namespace tsg
