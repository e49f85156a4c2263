// Chaos crash-recovery suite: kill the writer at every stage of the
// commit pipeline (torn WAL append, lost fsync, mid-apply death) and
// assert the recovered store is bit-identical — SnapshotFingerprint and
// epoch — to an uninterrupted run that stops at the same durable batch.
// Both dynamic backends, GART also replayed onto a built base, schedules
// scripted from FLEX_CHAOS_SEED (the `tools/check.sh crash` mode loops
// seeds 1 7 23 101 under ASan+UBSan).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"
#include "storage/livegraph/livegraph_store.h"
#include "storage/mutable_store.h"

namespace flex::storage {
namespace {

uint64_t ChaosSeed() {
  const char* s = std::getenv("FLEX_CHAOS_SEED");
  return (s != nullptr && s[0] != '\0') ? std::strtoull(s, nullptr, 10) : 1;
}

// --------------------------------------------------- scripted workloads

/// One staged mutation of a scripted batch.
struct Op {
  enum Kind { kVertex, kEdge, kUpdate, kRemove } kind;
  oid_t a = 0;
  oid_t b = 0;
  double weight = 1.0;
  int64_t ts = 0;
  std::string name;  // kVertex / kUpdate payload (GART only).
};

struct Script {
  std::vector<std::vector<Op>> batches;
};

/// The stores under test: GART from Create, LiveGraph, and GART built from
/// BaseGraph(), whose WAL replays onto that base as the htap recovery
/// does.
enum class Backend { kGart, kLiveGraph, kGartBuilt };

bool IsGart(Backend backend) { return backend != Backend::kLiveGraph; }

/// The epoch a fresh backend starts at: Build publishes its base as one.
version_t BaseEpoch(Backend backend) {
  return backend == Backend::kGartBuilt ? 1 : 0;
}

GraphSchema GartSchema();

/// The built backend's base: vertices 0..7 and the ring i -> i + 1.
PropertyGraphData BaseGraph() {
  PropertyGraphData data;
  data.schema = GartSchema();
  for (oid_t i = 0; i < 8; ++i) {
    data.AddVertex(0, i, {PropertyValue("b" + std::to_string(i))});
  }
  for (oid_t i = 0; i < 8; ++i) {
    data.AddEdge(0, i, (i + 1) % 8,
                 {PropertyValue(i / 2.0), PropertyValue(int64_t{i})});
  }
  return data;
}

/// Deterministic mixed workload honouring each backend's shape rules
/// (LiveGraph: dense oids, no properties; GART: sparse oids, updates). On
/// the built base every batch also updates a base vertex and deletes a
/// base edge while one is left.
Script MakeScript(uint64_t seed, Backend backend, int num_batches) {
  const bool gart = IsGart(backend);
  const bool built = backend == Backend::kGartBuilt;
  Rng rng(seed * 1000003 + (built ? 3 : gart ? 1 : 2));
  Script script;
  std::vector<oid_t> vertices;
  std::vector<std::pair<oid_t, oid_t>> edges;
  std::vector<std::pair<oid_t, oid_t>> base_edges;
  oid_t next_dense = 2;  // LiveGraph backends start with vertices {0, 1}.
  if (!gart) {
    vertices = {0, 1};
  }
  if (built) {
    const PropertyGraphData base = BaseGraph();
    vertices = base.vertices[0].oids;
    for (size_t i = 0; i < base.edges[0].src_oids.size(); ++i) {
      base_edges.emplace_back(base.edges[0].src_oids[i],
                              base.edges[0].dst_oids[i]);
    }
    edges = base_edges;
  }
  for (int b = 0; b < num_batches; ++b) {
    std::vector<Op>& ops = script.batches.emplace_back();
    if (built) {
      Op update;
      update.kind = Op::kUpdate;
      update.a = vertices[rng.Uniform(8)];
      update.name = "base" + std::to_string(b);
      ops.push_back(update);
      if (!base_edges.empty()) {
        Op remove;
        remove.kind = Op::kRemove;
        const auto e = base_edges[rng.Uniform(base_edges.size())];
        remove.a = e.first;
        remove.b = e.second;
        ops.push_back(remove);
        std::erase(base_edges, e);
        std::erase(edges, e);
      }
    }
    const int new_vertices = 1 + static_cast<int>(rng.Uniform(2));
    for (int i = 0; i < new_vertices; ++i) {
      Op op;
      op.kind = Op::kVertex;
      op.a = gart ? static_cast<oid_t>(100 + vertices.size()) : next_dense++;
      if (gart) op.name = "v" + std::to_string(op.a);
      vertices.push_back(op.a);
      ops.push_back(op);
    }
    for (int i = 0; i < 2 && vertices.size() >= 2; ++i) {
      Op op;
      op.kind = Op::kEdge;
      op.a = vertices[rng.Uniform(vertices.size())];
      op.b = vertices[rng.Uniform(vertices.size())];
      op.weight = static_cast<double>(rng.Uniform(1000)) / 8.0;
      op.ts = static_cast<int64_t>(rng.Uniform(1 << 20));
      edges.emplace_back(op.a, op.b);
      ops.push_back(op);
    }
    if (gart && rng.Bernoulli(0.5) && !vertices.empty()) {
      Op op;
      op.kind = Op::kUpdate;
      op.a = vertices[rng.Uniform(vertices.size())];
      op.name = "u" + std::to_string(b);
      ops.push_back(op);
    }
    if (rng.Bernoulli(0.3) && !edges.empty()) {
      Op op;
      op.kind = Op::kRemove;
      const auto e = edges[rng.Uniform(edges.size())];
      op.a = e.first;
      op.b = e.second;
      ops.push_back(op);
      // RemoveEdge tombstones every live (a)->(b); drop them all so the
      // script never removes a pair twice (LiveGraph rejects a delete
      // that finds no live edge).
      std::erase(edges, e);
    }
  }
  return script;
}

Status StageOp(DurableStore* store, const Op& op, bool gart) {
  switch (op.kind) {
    case Op::kVertex:
      return store->AppendVertex(
          0, op.a,
          gart ? std::vector<PropertyValue>{PropertyValue(op.name)}
               : std::vector<PropertyValue>{});
    case Op::kEdge:
      return store->AppendEdge(0, op.a, op.b, op.weight, op.ts);
    case Op::kUpdate:
      return store->UpdateProperty(0, op.a, 0, PropertyValue(op.name));
    case Op::kRemove:
      return store->RemoveEdge(0, op.a, op.b);
  }
  return Status::Internal("bad op");
}

/// Applies one scripted batch straight to a backend — the uninterrupted
/// reference run the recovered store must match bit-for-bit.
void ApplyBatchDirect(MutableGraphStore* store, const std::vector<Op>& ops,
                      bool gart) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kVertex:
        ASSERT_TRUE(store
                        ->AppendVertex(
                            0, op.a,
                            gart ? std::vector<PropertyValue>{PropertyValue(
                                       op.name)}
                                 : std::vector<PropertyValue>{})
                        .ok());
        break;
      case Op::kEdge:
        ASSERT_TRUE(
            store->AppendEdge(0, op.a, op.b, op.weight, op.ts).ok());
        break;
      case Op::kUpdate:
        ASSERT_TRUE(
            store->UpdateProperty(0, op.a, 0, PropertyValue(op.name)).ok());
        break;
      case Op::kRemove:
        ASSERT_TRUE(store->RemoveEdge(0, op.a, op.b).ok());
        break;
    }
  }
  store->CommitBatch();
}

// ----------------------------------------------------- backend factories

GraphSchema GartSchema() {
  GraphSchema schema;
  EXPECT_TRUE(
      schema.AddVertexLabel("V", {{"name", PropertyType::kString}}).ok());
  EXPECT_TRUE(schema
                  .AddEdgeLabel("E", 0, 0,
                                {{"weight", PropertyType::kDouble},
                                 {"ts", PropertyType::kInt64}})
                  .ok());
  return schema;
}

/// Fresh backend in the WAL's base state — every open of a WAL must start
/// from the same base state, per the DurableStore::Open contract.
std::shared_ptr<MutableGraphStore> FreshBackend(Backend backend) {
  if (backend == Backend::kLiveGraph) {
    return std::make_shared<LiveGraphStore>(2);
  }
  auto store = backend == Backend::kGart ? GartStore::Create(GartSchema())
                                         : GartStore::Build(BaseGraph());
  EXPECT_TRUE(store.ok());
  return std::shared_ptr<MutableGraphStore>(std::move(store).value());
}

// ----------------------------------------------------------- the harness

class CrashRecoveryTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { fault::Injector::Instance().DisarmAll(); }
  void TearDown() override {
    fault::Injector::Instance().DisarmAll();
    for (const std::string& p : paths_) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }

  std::string TempWalPath() {
    static std::atomic<int> counter{0};
    std::string p = "flex_crash_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + ".wal";
    paths_.push_back(p);
    return p;
  }

  std::vector<std::string> paths_;
};

/// Kills the writer at fault site `site` (armed to fire on its `nth` hit),
/// recovers, and asserts bit-identity with an uninterrupted run truncated
/// to the durable prefix. `apply_site` marks the post-durability site: a
/// crash there keeps the in-flight batch.
void RunCrashAndRecover(Backend backend, const std::string& site,
                        uint64_t nth, bool apply_site,
                        const std::string& wal) {
  SCOPED_TRACE(site + " nth=" + std::to_string(nth));
  const bool gart = IsGart(backend);
  const Script script = MakeScript(ChaosSeed(), backend, /*num_batches=*/12);

  // --- the interrupted run -------------------------------------------
  int committed = 0;
  bool crashed = false;
  {
    auto ds = DurableStore::Open(FreshBackend(backend), wal);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    fault::Policy policy;  // kFail on hit window [nth, nth+1).
    policy.nth = nth;
    fault::Injector::Instance().Arm(site, policy);
    for (const auto& batch : script.batches) {
      bool staged_ok = true;
      for (const Op& op : batch) {
        if (!StageOp(ds.value().get(), op, gart).ok()) {
          staged_ok = false;
          break;
        }
      }
      if (!staged_ok || !ds.value()->CommitBatch().ok()) {
        crashed = true;  // The "process" dies here; the store is dropped.
        EXPECT_TRUE(ds.value()->failed());
        break;
      }
      ++committed;
    }
    fault::Injector::Instance().DisarmAll();
  }
  ASSERT_TRUE(crashed) << "fault never fired; nth too large for the script";

  // Durable prefix: a post-durability (apply) crash keeps the in-flight
  // batch; a WAL-stage crash loses it.
  const int durable = committed + (apply_site ? 1 : 0);

  // --- recovery -------------------------------------------------------
  auto recovered = DurableStore::Open(FreshBackend(backend), wal);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->read_version(),
            BaseEpoch(backend) + static_cast<version_t>(durable));
  EXPECT_EQ(recovered.value()->recovery_stats().committed_batches,
            static_cast<uint64_t>(durable));

  // --- the uninterrupted reference ------------------------------------
  auto reference = FreshBackend(backend);
  for (int b = 0; b < durable; ++b) {
    ApplyBatchDirect(reference.get(), script.batches[b], gart);
  }
  EXPECT_EQ(SnapshotFingerprint(*recovered.value()->PinSnapshot()),
            SnapshotFingerprint(*reference->PinSnapshot()));

  // --- life after recovery: finish the script, reopen once more -------
  for (size_t b = static_cast<size_t>(durable); b < script.batches.size();
       ++b) {
    for (const Op& op : script.batches[b]) {
      ASSERT_TRUE(StageOp(recovered.value().get(), op, gart).ok());
    }
    auto epoch = recovered.value()->CommitBatch();
    ASSERT_TRUE(epoch.ok()) << "batch " << b << ": "
                            << epoch.status().message();
  }
  for (size_t b = static_cast<size_t>(durable); b < script.batches.size();
       ++b) {
    ApplyBatchDirect(reference.get(), script.batches[b], gart);
  }
  const uint32_t final_fp =
      SnapshotFingerprint(*recovered.value()->PinSnapshot());
  EXPECT_EQ(final_fp, SnapshotFingerprint(*reference->PinSnapshot()));

  auto reopened = DurableStore::Open(FreshBackend(backend), wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(SnapshotFingerprint(*reopened.value()->PinSnapshot()), final_fp);
  EXPECT_EQ(reopened.value()->read_version(), reference->read_version());
}

TEST_P(CrashRecoveryTest, TornAppendLosesOnlyInFlightBatch) {
  // One Append() per commit, so the nth hit is the nth batch.
  const uint64_t nth = 1 + ChaosSeed() % 5;
  RunCrashAndRecover(GetParam(), "wal.append", nth,
                     /*apply_site=*/false, TempWalPath());
}

TEST_P(CrashRecoveryTest, LostSyncLosesOnlyInFlightBatch) {
  const uint64_t nth = 1 + (ChaosSeed() / 3) % 5;
  RunCrashAndRecover(GetParam(), "wal.sync", nth,
                     /*apply_site=*/false, TempWalPath());
}

TEST_P(CrashRecoveryTest, ApplyCrashKeepsDurableBatch) {
  // storage.apply hits once per record; land the kill mid-batch.
  const uint64_t nth = 1 + ChaosSeed() % 12;
  RunCrashAndRecover(GetParam(), "storage.apply", nth,
                     /*apply_site=*/true, TempWalPath());
}

TEST_P(CrashRecoveryTest, BackToBackCrashesStayConsistent) {
  // Crash, recover, crash again at a later point, recover again — the
  // second recovery must still match an uninterrupted reference.
  const Backend backend = GetParam();
  const bool gart = IsGart(backend);
  const std::string wal = TempWalPath();
  const Script script = MakeScript(ChaosSeed() + 77, backend, 10);

  int committed = 0;
  for (int round = 0; round < 2; ++round) {
    auto ds = DurableStore::Open(FreshBackend(backend), wal);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    ASSERT_EQ(ds.value()->read_version(),
              BaseEpoch(backend) + static_cast<version_t>(committed));
    fault::Policy policy;
    policy.nth = 2 + static_cast<uint64_t>(round);
    fault::Injector::Instance().Arm("wal.append", policy);
    for (size_t b = static_cast<size_t>(committed);
         b < script.batches.size(); ++b) {
      for (const Op& op : script.batches[b]) {
        ASSERT_TRUE(StageOp(ds.value().get(), op, gart).ok());
      }
      if (!ds.value()->CommitBatch().ok()) break;
      ++committed;
    }
    fault::Injector::Instance().DisarmAll();
  }

  auto recovered = DurableStore::Open(FreshBackend(backend), wal);
  ASSERT_TRUE(recovered.ok());
  auto reference = FreshBackend(backend);
  for (int b = 0; b < committed; ++b) {
    ApplyBatchDirect(reference.get(), script.batches[b], gart);
  }
  EXPECT_EQ(SnapshotFingerprint(*recovered.value()->PinSnapshot()),
            SnapshotFingerprint(*reference->PinSnapshot()));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CrashRecoveryTest,
    ::testing::Values(Backend::kGart, Backend::kLiveGraph,
                      Backend::kGartBuilt),
    [](const ::testing::TestParamInfo<Backend>& info) -> std::string {
      switch (info.param) {
        case Backend::kGart:
          return "Gart";
        case Backend::kLiveGraph:
          return "LiveGraph";
        case Backend::kGartBuilt:
          return "GartBuilt";
      }
      return "";
    });

}  // namespace
}  // namespace flex::storage
