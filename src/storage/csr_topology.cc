#include "storage/csr_topology.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::storage {

Status CsrTopology::AddVertexLabel(std::span<const oid_t> oids) {
  FLEX_CHECK(edges_.empty());
  const vid_t first = num_vertices();
  const auto label = static_cast<label_t>(oid_index_.size());
  auto& index = oid_index_.emplace_back();
  index.reserve(oids.size() * 2);
  for (size_t i = 0; i < oids.size(); ++i) {
    if (!index.emplace(oids[i], first + static_cast<vid_t>(i)).second) {
      return Status::AlreadyExists("duplicate vertex oid " +
                                   std::to_string(oids[i]) +
                                   " in vertex label " + std::to_string(label));
    }
  }
  oids_.insert(oids_.end(), oids.begin(), oids.end());
  label_start_.push_back(num_vertices());
  return Status::OK();
}

vid_t CsrTopology::Lookup(label_t label, oid_t oid) const {
  const auto& index = oid_index_[label];
  const auto it = index.find(oid);
  return it == index.end() ? kInvalidVid : it->second;
}

template <typename Endpoints>
Status CsrTopology::BuildEdgeLabel(label_t src_label, label_t dst_label,
                                   size_t m, const Endpoints& endpoints,
                                   std::vector<size_t>* order) {
  // Counting sort: resolve and count, then place. Forward and reverse
  // entries are placed together, so the reverse CSR learns each edge's
  // forward id without a per-edge slot map.
  const vid_t n = num_vertices();
  EdgeCsr c;
  c.out_offsets.assign(static_cast<size_t>(n) + 1, 0);
  c.in_offsets.assign(static_cast<size_t>(n) + 1, 0);
  std::vector<vid_t> srcs(m), dsts(m);
  for (size_t i = 0; i < m; ++i) {
    const auto [src_oid, dst_oid] = endpoints(i);
    const vid_t src = Lookup(src_label, src_oid);
    if (src == kInvalidVid) {
      return Status::NotFound("edge src oid " + std::to_string(src_oid));
    }
    const vid_t dst = Lookup(dst_label, dst_oid);
    if (dst == kInvalidVid) {
      return Status::NotFound("edge dst oid " + std::to_string(dst_oid));
    }
    srcs[i] = src;
    dsts[i] = dst;
    ++c.out_offsets[src + 1];
    ++c.in_offsets[dst + 1];
  }
  std::partial_sum(c.out_offsets.begin(), c.out_offsets.end(),
                   c.out_offsets.begin());
  std::partial_sum(c.in_offsets.begin(), c.in_offsets.end(),
                   c.in_offsets.begin());

  c.out_nbrs.resize(m);
  c.in_nbrs.resize(m);
  c.in_eids.resize(m);
  if (order != nullptr) order->resize(m);
  std::vector<eid_t> out_cursor(c.out_offsets.begin(), c.out_offsets.end() - 1);
  std::vector<eid_t> in_cursor(c.in_offsets.begin(), c.in_offsets.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    const eid_t e = out_cursor[srcs[i]]++;
    const eid_t r = in_cursor[dsts[i]]++;
    c.out_nbrs[e] = dsts[i];
    c.in_nbrs[r] = srcs[i];
    c.in_eids[r] = e;
    if (order != nullptr) (*order)[e] = i;
  }
  edges_.push_back(std::move(c));
  return Status::OK();
}

Status CsrTopology::AddEdgeLabel(label_t src_label, label_t dst_label,
                                 std::span<const oid_t> src_oids,
                                 std::span<const oid_t> dst_oids,
                                 std::vector<size_t>* order) {
  if (src_oids.size() != dst_oids.size()) {
    return Status::InvalidArgument("edge src and dst columns differ in length");
  }
  return BuildEdgeLabel(
      src_label, dst_label, src_oids.size(),
      [&](size_t i) { return std::pair{src_oids[i], dst_oids[i]}; }, order);
}

Status CsrTopology::AddEdgeLabel(label_t src_label, label_t dst_label,
                                 std::span<const RawEdge> edges) {
  return BuildEdgeLabel(
      src_label, dst_label, edges.size(),
      [&](size_t i) {
        return std::pair{static_cast<oid_t>(edges[i].src),
                         static_cast<oid_t>(edges[i].dst)};
      },
      nullptr);
}

void CsrTopology::SetOutWeights(label_t edge_label,
                                std::span<const double> weights) {
  EdgeCsr& c = edges_[edge_label];
  FLEX_CHECK(weights.size() == c.out_nbrs.size());
  c.out_weights.assign(weights.begin(), weights.end());
}

size_t CsrTopology::num_edges() const {
  size_t n = 0;
  for (const EdgeCsr& c : edges_) n += c.out_nbrs.size();
  return n;
}

label_t CsrTopology::VertexLabelOf(vid_t v) const {
  // Few labels: a linear scan beats binary search.
  for (size_t l = 0; l + 1 < label_start_.size(); ++l) {
    if (v < label_start_[l + 1]) return static_cast<label_t>(l);
  }
  return kInvalidLabel;
}

Result<vid_t> CsrTopology::FindVertex(label_t label, oid_t oid) const {
  if (label >= oid_index_.size()) {
    return Status::InvalidArgument("bad vertex label");
  }
  const vid_t v = Lookup(label, oid);
  if (v == kInvalidVid) {
    return Status::NotFound("vertex oid " + std::to_string(oid));
  }
  return v;
}

// ------------------------------------------------------------ GRIN base

void CsrGrinGraph::VisitVertices(label_t label, size_t begin, size_t end,
                                 bool (*visitor)(void*, vid_t),
                                 void* visitor_ctx) const {
  FLEX_COUNTER_INC(metrics::kStorageScansTotal);
  const auto [first, last] = topology_->VertexRange(label);
  end = std::min<size_t>(end, last - first);
  for (size_t i = begin; i < end; ++i) {
    if (!visitor(visitor_ctx, static_cast<vid_t>(first + i))) return;
  }
}

bool CsrGrinGraph::VisitAdj(vid_t v, Direction dir, label_t edge_label,
                            grin::AdjVisitor visitor, void* ctx) const {
  if (dir == Direction::kBoth) {
    return VisitAdj(v, Direction::kOut, edge_label, visitor, ctx) &&
           VisitAdj(v, Direction::kIn, edge_label, visitor, ctx);
  }
  FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
  const grin::AdjChunk chunk = topology_->Adjacency(v, dir, edge_label);
  return chunk.neighbors.empty() || visitor(ctx, chunk);
}

bool CsrGrinGraph::GetNeighborsBatch(std::span<const vid_t> vids,
                                     Direction dir, label_t edge_label,
                                     grin::BatchAdjVisitor visitor,
                                     void* ctx) const {
  // CSR slices served directly: one virtual call per batch instead of one
  // per (vertex, direction), with the scalar path's counter increments —
  // one adj visit per source per concrete direction.
  auto emit = [&](size_t i, Direction d) {
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    const grin::AdjChunk chunk = topology_->Adjacency(vids[i], d, edge_label);
    return chunk.neighbors.empty() || visitor(ctx, i, d, chunk);
  };
  for (size_t i = 0; i < vids.size(); ++i) {
    if (dir != Direction::kIn && !emit(i, Direction::kOut)) return false;
    if (dir != Direction::kOut && !emit(i, Direction::kIn)) return false;
  }
  return true;
}

Result<vid_t> CsrGrinGraph::FindVertex(label_t label, oid_t oid) const {
  FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
  return topology_->FindVertex(label, oid);
}

}  // namespace flex::storage
