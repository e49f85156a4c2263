#include "storage/livegraph/livegraph_store.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::storage {

LiveGraphStore::LiveGraphStore(vid_t num_vertices)
    : adjacency_(num_vertices), vertex_create_(num_vertices, 0) {
  auto vlabel = schema_.AddVertexLabel("V", {});
  FLEX_CHECK(vlabel.ok());
  FLEX_CHECK(schema_
                 .AddEdgeLabel("E", vlabel.value(), vlabel.value(),
                               {{"weight", PropertyType::kDouble}})
                 .ok());
}

std::unique_ptr<LiveGraphStore> LiveGraphStore::Build(const EdgeList& list) {
  auto store = std::make_unique<LiveGraphStore>(list.num_vertices);
  for (const RawEdge& e : list.edges) {
    FLEX_CHECK(store->AddEdge(e.src, e.dst, e.weight).ok());
  }
  store->CommitVersion();
  return store;
}

Status LiveGraphStore::AddEdge(vid_t src, vid_t dst, double weight) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (src >= adjacency_.size() || dst >= adjacency_.size()) {
    return Status::OutOfRange("vertex id out of range");
  }
  adjacency_[src].push_back(
      {dst, weight, committed_.load(std::memory_order_relaxed) + 1, kNever});
  return Status::OK();
}

Status LiveGraphStore::DeleteEdge(vid_t src, vid_t dst) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (src >= adjacency_.size() || dst >= adjacency_.size()) {
    return Status::OutOfRange("vertex id out of range");
  }
  bool found = false;
  for (VersionEntry& e : adjacency_[src]) {
    if (e.nbr == dst && e.remove == kNever) {
      e.remove = committed_.load(std::memory_order_relaxed) + 1;
      found = true;
    }
  }
  if (!found) return Status::NotFound("no live edge to delete");
  return Status::OK();
}

version_t LiveGraphStore::CommitVersion() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

Result<vid_t> LiveGraphStore::AppendVertex(label_t label, oid_t oid,
                                           std::vector<PropertyValue> props) {
  if (label != 0) return Status::InvalidArgument("LiveGraph has one label");
  if (!props.empty()) {
    return Status::Unimplemented("LiveGraph vertices carry no properties");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto next = static_cast<oid_t>(adjacency_.size());
  if (oid < next) {
    return Status::AlreadyExists("vertex oid " + std::to_string(oid));
  }
  if (oid != next) {
    // oid == vid identity: appends must be dense, which also makes replay
    // assign the same vids an uninterrupted run would.
    return Status::InvalidArgument("LiveGraph oids are dense; next is " +
                                   std::to_string(next));
  }
  adjacency_.emplace_back();
  vertex_create_.push_back(committed_.load(std::memory_order_relaxed) + 1);
  return static_cast<vid_t>(next);
}

Status LiveGraphStore::AppendEdge(label_t edge_label, oid_t src, oid_t dst,
                                  double weight, int64_t /*ts*/) {
  if (edge_label != 0) {
    return Status::InvalidArgument("LiveGraph has one edge label");
  }
  if (src < 0 || dst < 0) return Status::OutOfRange("vertex id out of range");
  return AddEdge(static_cast<vid_t>(src), static_cast<vid_t>(dst), weight);
}

Status LiveGraphStore::UpdateProperty(label_t, oid_t, uint32_t,
                                      const PropertyValue&) {
  return Status::Unimplemented("LiveGraph vertices carry no properties");
}

Status LiveGraphStore::RemoveEdge(label_t edge_label, oid_t src, oid_t dst) {
  if (edge_label != 0) {
    return Status::InvalidArgument("LiveGraph has one edge label");
  }
  if (src < 0 || dst < 0) return Status::OutOfRange("vertex id out of range");
  return DeleteEdge(static_cast<vid_t>(src), static_cast<vid_t>(dst));
}

size_t LiveGraphStore::CountEdges(version_t version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t count = 0;
  for (const auto& adj : adjacency_) {
    for (const VersionEntry& e : adj) {
      if (e.create <= version && version < e.remove) ++count;
    }
  }
  return count;
}

// ----------------------------------------------------------- GRIN adapter

class LiveGraphGrin final : public grin::GrinGraph {
 public:
  /// `num_vertices` is the visible-vertex bound captured at snapshot
  /// construction (under the store lock): vertices appended later — which
  /// may even reallocate adjacency_ — never enter this view, and every
  /// adjacency access below re-acquires the shared lock.
  LiveGraphGrin(const LiveGraphStore* store, version_t version,
                vid_t num_vertices)
      : store_(store), version_(version), num_vertices_(num_vertices) {}

  std::string backend_name() const override { return "livegraph"; }

  uint32_t capabilities() const override {
    return grin::kAdjacentListIterator | grin::kOidIndex | grin::kLabelIndex |
           grin::kVertexListArray | grin::kVersionedSnapshot;
  }

  const GraphSchema& schema() const override { return store_->schema_; }

  vid_t NumVertices() const override { return num_vertices_; }
  vid_t NumVerticesOfLabel(label_t) const override { return num_vertices_; }
  label_t VertexLabelOf(vid_t) const override { return 0; }

  std::pair<vid_t, vid_t> VertexRange(label_t) const override {
    return {0, num_vertices_};
  }

  void VisitVertices(label_t, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    end = std::min<size_t>(end, num_vertices_);
    for (size_t v = begin; v < end; ++v) {
      if (!visitor(visitor_ctx, static_cast<vid_t>(v))) return;
    }
  }

  bool VisitAdj(vid_t v, Direction dir, label_t, grin::AdjVisitor visitor,
                void* ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    if (dir != Direction::kOut) return true;  // Out-only baseline store.
    if (v >= num_vertices_) return true;
    // An edge's id is (v << 32) + its position in v's append-only log:
    // stable and unique with no per-edge id buffer. A chunk ends at every
    // skipped record, so the ids inside one stay base + i.
    constexpr size_t kBuf = 64;
    vid_t nbuf[kBuf];
    double wbuf[kBuf];
    size_t fill = 0;
    const eid_t first = eid_t{v} << 32;
    eid_t base = first;
    auto flush = [&](size_t next) {  // `next`: log position after the chunk
      const grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {}, base};
      fill = 0;
      base = first + next;
      return chunk.neighbors.empty() || visitor(ctx, chunk);
    };
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    const auto& log = store_->adjacency_[v];
    for (size_t i = 0; i < log.size(); ++i) {
      const auto& e = log[i];
      if (e.create > version_ || version_ >= e.remove) {
        if (!flush(i + 1)) return false;
        continue;
      }
      nbuf[fill] = e.nbr;
      wbuf[fill] = e.weight;
      if (++fill == kBuf && !flush(i + 1)) return false;
    }
    return flush(log.size());
  }

  size_t Degree(vid_t v, Direction dir, label_t) const override {
    if (dir != Direction::kOut || v >= num_vertices_) return 0;
    size_t count = 0;
    store_->ForEachOut(v, version_, [&](vid_t, double) { ++count; });
    return count;
  }

  PropertyValue GetVertexProperty(vid_t, size_t) const override {
    return PropertyValue();
  }
  PropertyValue GetEdgeProperty(label_t, eid_t, size_t) const override {
    return PropertyValue();
  }

  Result<vid_t> FindVertex(label_t, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    if (oid < 0 || oid >= static_cast<oid_t>(num_vertices_)) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return static_cast<vid_t>(oid);
  }

  oid_t GetOid(vid_t v) const override { return static_cast<oid_t>(v); }

  version_t SnapshotVersion() const override { return version_; }

 private:
  const LiveGraphStore* store_;
  version_t version_;
  vid_t num_vertices_;
};

std::unique_ptr<grin::GrinGraph> LiveGraphStore::GetSnapshot() const {
  return GetSnapshot(read_version());
}

std::unique_ptr<grin::GrinGraph> LiveGraphStore::GetSnapshot(
    version_t version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // vertex_create_ is nondecreasing: the visible set is a prefix.
  const auto it = std::upper_bound(vertex_create_.begin(),
                                   vertex_create_.end(), version);
  const auto visible =
      static_cast<vid_t>(std::distance(vertex_create_.begin(), it));
  return std::make_unique<LiveGraphGrin>(this, version, visible);
}

std::unique_ptr<grin::GrinGraph> LiveGraphStore::PinSnapshot(
    version_t version) const {
  FLEX_COUNTER_INC(metrics::kStorageSnapshotsPinnedTotal);
  return GetSnapshot(version);
}

}  // namespace flex::storage
