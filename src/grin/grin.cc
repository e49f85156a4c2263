#include "grin/grin.h"

#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::grin {

bool MatchesCondition(const VertexCondition& condition,
                      const PropertyValue& value) {
  switch (condition.cmp) {
    case VertexCondition::Cmp::kEq:
      return value == condition.value;
    case VertexCondition::Cmp::kNe:
      return value != condition.value;
    case VertexCondition::Cmp::kLt:
      return value.Compare(condition.value) < 0;
    case VertexCondition::Cmp::kLe:
      return value.Compare(condition.value) <= 0;
    case VertexCondition::Cmp::kGt:
      return value.Compare(condition.value) > 0;
    case VertexCondition::Cmp::kGe:
      return value.Compare(condition.value) >= 0;
  }
  return false;
}

bool VertexFilter::Matches(const GrinGraph& graph, vid_t v) const {
  for (const VertexCondition& condition : conditions) {
    const PropertyValue value = condition.column == VertexCondition::kNoColumn
                                    ? PropertyValue()
                                    : graph.GetVertexProperty(v,
                                                              condition.column);
    if (!MatchesCondition(condition, value)) return false;
  }
  return true;
}

GrinGraph::~GrinGraph() = default;

Status GrinGraph::RequireTraits(uint32_t required) const {
  const uint32_t missing = required & ~capabilities();
  if (missing == 0) return Status::OK();
  return Status::CapabilityMissing("backend '" + backend_name() +
                                   "' lacks required GRIN traits (mask " +
                                   std::to_string(missing) + ")");
}

std::pair<vid_t, vid_t> GrinGraph::VertexRange(label_t label) const {
  return {0, 0};
}

namespace {

/// Adapts the scalar AdjVisitor to the batched one, tagging each chunk
/// with the source index and concrete direction.
struct BatchAdjForward {
  BatchAdjVisitor visitor;
  void* ctx;
  size_t src_index = 0;
  Direction dir = Direction::kOut;
};

bool ForwardChunk(void* raw, const AdjChunk& chunk) {
  auto* f = static_cast<BatchAdjForward*>(raw);
  return f->visitor(f->ctx, f->src_index, f->dir, chunk);
}

}  // namespace

bool GrinGraph::GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                  label_t edge_label, BatchAdjVisitor visitor,
                                  void* ctx) const {
  BatchAdjForward forward{visitor, ctx};
  for (size_t i = 0; i < vids.size(); ++i) {
    forward.src_index = i;
    // kBoth expands per source (out then in), matching the scalar call
    // order engines relied on before batching.
    if (dir != Direction::kIn) {
      forward.dir = Direction::kOut;
      if (!VisitAdj(vids[i], Direction::kOut, edge_label, ForwardChunk,
                    &forward)) {
        return false;
      }
    }
    if (dir != Direction::kOut) {
      forward.dir = Direction::kIn;
      if (!VisitAdj(vids[i], Direction::kIn, edge_label, ForwardChunk,
                    &forward)) {
        return false;
      }
    }
  }
  return true;
}

void GrinGraph::GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                                      PropertyValue* out) const {
  for (size_t i = 0; i < vids.size(); ++i) {
    out[i] = GetVertexProperty(vids[i], col);
  }
}

namespace {

/// Shared by both default filtered entry points: evaluates the filter via
/// the boxed accessor and gathers the projection columns into a reused
/// scratch buffer.
struct FilteredForward {
  const GrinGraph* graph;
  const VertexFilter* filter;
  std::span<const size_t> project_cols;
  std::vector<PropertyValue> props;

  bool Survives(vid_t v) {
    if (!filter->Matches(*graph, v)) {
      FLEX_COUNTER_INC(metrics::kFusedRowsPrunedTotal);
      return false;
    }
    props.resize(project_cols.size());
    for (size_t i = 0; i < project_cols.size(); ++i) {
      props[i] = graph->GetVertexProperty(v, project_cols[i]);
    }
    return true;
  }
};

struct FilteredScanForward {
  FilteredForward shared;
  FilteredVertexVisitor visitor;
  void* visitor_ctx;
  bool stopped = false;
};

struct FilteredAdjForward {
  FilteredForward shared;
  label_t dst_label;
  FilteredNeighborVisitor visitor;
  void* ctx;
};

}  // namespace

bool GrinGraph::VisitVerticesFiltered(label_t label, size_t begin,
                                      size_t end, const VertexFilter& filter,
                                      std::span<const size_t> project_cols,
                                      FilteredVertexVisitor visitor,
                                      void* visitor_ctx) const {
  FilteredScanForward forward{{this, &filter, project_cols, {}},
                              visitor, visitor_ctx};
  VisitVertices(
      label, begin, end,
      [](void* raw, vid_t v) -> bool {
        auto* f = static_cast<FilteredScanForward*>(raw);
        if (!f->shared.Survives(v)) return true;
        f->stopped = !f->visitor(f->visitor_ctx, v, f->shared.props);
        return !f->stopped;
      },
      &forward);
  return !forward.stopped;
}

bool GrinGraph::GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                  label_t edge_label, label_t dst_label,
                                  const VertexFilter& filter,
                                  std::span<const size_t> project_cols,
                                  FilteredNeighborVisitor visitor,
                                  void* ctx) const {
  FilteredAdjForward forward{{this, &filter, project_cols, {}},
                             dst_label, visitor, ctx};
  return GetNeighborsBatch(
      vids, dir, edge_label,
      [](void* raw, size_t src_index, Direction, const AdjChunk& chunk)
          -> bool {
        auto* f = static_cast<FilteredAdjForward*>(raw);
        for (const vid_t nbr : chunk.neighbors) {
          if (f->dst_label != kInvalidLabel &&
              f->shared.graph->VertexLabelOf(nbr) != f->dst_label) {
            continue;
          }
          if (!f->shared.Survives(nbr)) continue;
          if (!f->visitor(f->ctx, src_index, nbr, f->shared.props)) {
            return false;
          }
        }
        return true;
      },
      &forward);
}

std::span<const int64_t> GrinGraph::VertexInt64Column(label_t label,
                                                      size_t col) const {
  return {};
}

std::span<const double> GrinGraph::VertexDoubleColumn(label_t label,
                                                      size_t col) const {
  return {};
}

}  // namespace flex::grin
