#include "grin/grin.h"

#include <numeric>
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

/// Candidates a filtered visit buffers before it evaluates them: enough to
/// amortize each batched column read, few enough to stay in cache.
constexpr size_t kFilterChunk = 1024;

/// The one evaluator of pushed filters and projections. Candidates, each a
/// vid plus a tag for the visitor (an expansion's source index), are
/// buffered up to kFilterChunk at a time. Each condition then reads its
/// column for the candidates still alive with one GetVerticesProperties
/// call, and each projection column is read for the survivors the same
/// way; survivors reach `deliver(v, tag, props)` in candidate order.
template <typename Deliver>
class FilterPass {
 public:
  FilterPass(const GrinGraph& graph, const VertexFilter& filter,
             std::span<const size_t> project_cols, Deliver deliver)
      : graph_(graph),
        filter_(filter),
        project_cols_(project_cols),
        deliver_(deliver) {}
  FilterPass(const FilterPass&) = delete;
  FilterPass& operator=(const FilterPass&) = delete;

  /// Takes one candidate; false once the visitor has stopped.
  bool Add(vid_t v, size_t tag) {
    vids_.push_back(v);
    tags_.push_back(tag);
    return vids_.size() < kFilterChunk || Flush();
  }

  /// Evaluates what is still buffered; false if the visitor stopped.
  bool Finish() { return live_ && Flush(); }

 private:
  bool Flush() {
    const size_t n = vids_.size();
    // alive_[k] is the buffer position of the k-th candidate still alive,
    // whose vid has been compacted to vids_[k].
    alive_.resize(n);
    std::iota(alive_.begin(), alive_.end(), size_t{0});
    for (const VertexCondition& condition : filter_.conditions) {
      if (alive_.empty()) break;
      if (condition.column == VertexCondition::kNoColumn) {
        // An unresolved property compares as the empty value, unread.
        if (!MatchesCondition(condition, PropertyValue())) alive_.clear();
        continue;
      }
      values_.resize(alive_.size());
      graph_.GetVerticesProperties({vids_.data(), alive_.size()},
                                   condition.column, values_.data());
      size_t kept = 0;
      for (size_t k = 0; k < alive_.size(); ++k) {
        if (!MatchesCondition(condition, values_[k])) continue;
        alive_[kept] = alive_[k];
        vids_[kept] = vids_[k];
        ++kept;
      }
      alive_.resize(kept);
    }
    const size_t survivors = alive_.size();
    columns_.resize(project_cols_.size());
    for (size_t p = 0; p < project_cols_.size(); ++p) {
      columns_[p].resize(survivors);
      graph_.GetVerticesProperties({vids_.data(), survivors},
                                   project_cols_[p], columns_[p].data());
    }
    props_.resize(project_cols_.size());
    size_t delivered = 0;
    while (live_ && delivered < survivors) {
      for (size_t p = 0; p < props_.size(); ++p) {
        props_[p] = std::move(columns_[p][delivered]);
      }
      live_ = deliver_(vids_[delivered], tags_[alive_[delivered]], props_);
      ++delivered;
    }
    // Counted as a row-at-a-time visit would: the candidates rejected
    // ahead of the last one delivered.
    const size_t seen = live_ ? n : alive_[delivered - 1] + 1;
    if (seen > delivered) {
      FLEX_COUNTER_ADD(metrics::kFusedRowsPrunedTotal, seen - delivered);
    }
    vids_.clear();
    tags_.clear();
    return live_;
  }

  const GrinGraph& graph_;
  const VertexFilter& filter_;
  std::span<const size_t> project_cols_;
  Deliver deliver_;
  bool live_ = true;
  std::vector<vid_t> vids_;
  std::vector<size_t> tags_;
  std::vector<size_t> alive_;
  std::vector<PropertyValue> values_;
  std::vector<std::vector<PropertyValue>> columns_;
  std::vector<PropertyValue> props_;
};

}  // namespace

bool GrinGraph::VisitVerticesFiltered(label_t label, size_t begin,
                                      size_t end, const VertexFilter& filter,
                                      std::span<const size_t> project_cols,
                                      FilteredVertexVisitor visitor,
                                      void* visitor_ctx) const {
  FilterPass pass(*this, filter, project_cols,
                  [&](vid_t v, size_t, std::span<const PropertyValue> props) {
                    return visitor(visitor_ctx, v, props);
                  });
  VisitVertices(
      label, begin, end,
      [](void* raw, vid_t v) {
        return static_cast<decltype(pass)*>(raw)->Add(v, 0);
      },
      &pass);
  return pass.Finish();
}

bool GrinGraph::GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                                  label_t edge_label, label_t dst_label,
                                  const VertexFilter& filter,
                                  FilteredNeighborVisitor visitor,
                                  void* ctx) const {
  FilterPass pass(*this, filter, {},
                  [&](vid_t nbr, size_t src_index,
                      std::span<const PropertyValue>) {
                    return visitor(ctx, src_index, nbr);
                  });
  using Pass = decltype(pass);
  struct Fwd {
    const GrinGraph* graph;
    label_t dst_label;
    Pass* pass;
  } fwd{this, dst_label, &pass};
  GetNeighborsBatch(
      vids, dir, edge_label,
      [](void* raw, size_t src_index, Direction, const AdjChunk& chunk) {
        auto* f = static_cast<Fwd*>(raw);
        for (const vid_t nbr : chunk.neighbors) {
          if (f->dst_label != kInvalidLabel &&
              f->graph->VertexLabelOf(nbr) != f->dst_label) {
            continue;
          }
          if (!f->pass->Add(nbr, src_index)) return false;
        }
        return true;
      },
      &fwd);
  return pass.Finish();
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
