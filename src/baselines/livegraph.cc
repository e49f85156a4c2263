#include "baselines/livegraph.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::baselines {

LiveGraphStore::LiveGraphStore(vid_t num_vertices) : adjacency_(num_vertices) {
  auto vlabel = schema_.AddVertexLabel("V", {});
  FLEX_CHECK(vlabel.ok());
  FLEX_CHECK(schema_
                 .AddEdgeLabel("E", vlabel.value(), vlabel.value(),
                               {{"weight", PropertyType::kDouble}})
                 .ok());
}

std::unique_ptr<LiveGraphStore> LiveGraphStore::Build(const EdgeList& list) {
  std::unique_ptr<LiveGraphStore> store(new LiveGraphStore(list.num_vertices));
  for (const RawEdge& e : list.edges) {
    FLEX_CHECK(e.src < list.num_vertices && e.dst < list.num_vertices);
    store->adjacency_[e.src].push_back({e.dst, e.weight, kBuilt, kNever});
  }
  return store;
}

// ----------------------------------------------------------- GRIN adapter

class LiveGraphSnapshot final : public grin::GrinGraph {
 public:
  LiveGraphSnapshot(const LiveGraphStore* store, version_t version)
      : store_(store), version_(version) {}

  std::string backend_name() const override { return "livegraph"; }

  uint32_t capabilities() const override {
    return grin::kAdjacentListIterator | grin::kOidIndex | grin::kLabelIndex |
           grin::kVertexListArray | grin::kVersionedSnapshot;
  }

  const GraphSchema& schema() const override { return store_->schema_; }

  vid_t NumVertices() const override { return store_->num_vertices(); }
  vid_t NumVerticesOfLabel(label_t) const override {
    return store_->num_vertices();
  }
  label_t VertexLabelOf(vid_t) const override { return 0; }

  std::pair<vid_t, vid_t> VertexRange(label_t) const override {
    return {0, store_->num_vertices()};
  }

  void VisitVertices(label_t, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    end = std::min<size_t>(end, store_->num_vertices());
    for (size_t v = begin; v < end; ++v) {
      if (!visitor(visitor_ctx, static_cast<vid_t>(v))) return;
    }
  }

  bool VisitAdj(vid_t v, Direction dir, label_t, grin::AdjVisitor visitor,
                void* ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    if (dir != Direction::kOut) return true;  // Out-only baseline store.
    if (v >= store_->num_vertices()) return true;
    // An edge's id is (v << 32) + its position in v's record vector:
    // stable and unique with no per-edge id buffer. A chunk ends at every
    // skipped record, so the ids inside one stay base + i.
    constexpr size_t kBuf = 64;
    vid_t nbuf[kBuf];
    double wbuf[kBuf];
    size_t fill = 0;
    const eid_t first = eid_t{v} << 32;
    eid_t base = first;
    auto flush = [&](size_t next) {  // `next`: position after the chunk
      const grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {}, base};
      fill = 0;
      base = first + next;
      return chunk.neighbors.empty() || visitor(ctx, chunk);
    };
    const auto& log = store_->adjacency_[v];
    for (size_t i = 0; i < log.size(); ++i) {
      const auto& e = log[i];
      if (!Visible(e)) {
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
    if (dir != Direction::kOut || v >= store_->num_vertices()) return 0;
    const auto& log = store_->adjacency_[v];
    return static_cast<size_t>(std::count_if(
        log.begin(), log.end(), [this](const auto& e) { return Visible(e); }));
  }

  PropertyValue GetVertexProperty(vid_t, size_t) const override {
    return PropertyValue();
  }
  PropertyValue GetEdgeProperty(label_t, eid_t, size_t) const override {
    return PropertyValue();
  }

  Result<vid_t> FindVertex(label_t, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    if (oid < 0 || oid >= static_cast<oid_t>(store_->num_vertices())) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return static_cast<vid_t>(oid);
  }

  oid_t GetOid(vid_t v) const override { return static_cast<oid_t>(v); }

  version_t SnapshotVersion() const override { return version_; }

 private:
  /// The per-record check LiveGraph pays on every read.
  bool Visible(const LiveGraphStore::VersionEntry& e) const {
    return e.create <= version_ && version_ < e.remove;
  }

  const LiveGraphStore* store_;
  version_t version_;
};

std::unique_ptr<grin::GrinGraph> LiveGraphStore::GetSnapshot() const {
  return std::make_unique<LiveGraphSnapshot>(this, kBuilt);
}

}  // namespace flex::baselines
