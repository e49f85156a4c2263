// GART / DurableStore behavior tests: GART's write API, WAL
// commit/recover round-trips, MVCC property updates, snapshot isolation
// under concurrent readers (over an empty store and over a built base),
// and a mixed read/write SNB-style scenario running Cypher over pinned
// snapshots.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "query/service.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"

namespace flex::storage {
namespace {

class MutationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : paths_) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }

  std::string TempWalPath() {
    static std::atomic<int> counter{0};
    std::string p = "flex_mutation_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + ".wal";
    paths_.push_back(p);
    return p;
  }

  std::vector<std::string> paths_;
};

/// One vertex label "V" {name}, one edge label "E" {weight, ts}.
GraphSchema SimpleSchema() {
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

/// Person --LIKES--> Post, the shape of the SNB interactive updates.
GraphSchema SnbSchema() {
  GraphSchema schema;
  EXPECT_TRUE(
      schema.AddVertexLabel("Person", {{"name", PropertyType::kString}}).ok());
  EXPECT_TRUE(
      schema.AddVertexLabel("Post", {{"content", PropertyType::kString}})
          .ok());
  EXPECT_TRUE(
      schema.AddEdgeLabel("LIKES", 0, 1, {{"weight", PropertyType::kDouble}})
          .ok());
  return schema;
}

std::shared_ptr<GartStore> NewGart(const GraphSchema& schema) {
  auto store = GartStore::Create(schema);
  EXPECT_TRUE(store.ok()) << store.status().message();
  return std::move(store).value();
}

// ------------------------------------------------- uniform write surface

TEST_F(MutationTest, GartThroughBaseInterface) {
  auto store = NewGart(SimpleSchema());
  ASSERT_TRUE(
      store->AddVertex(0, 10, {PropertyValue(std::string("a"))}).ok());
  ASSERT_TRUE(
      store->AddVertex(0, 11, {PropertyValue(std::string("b"))}).ok());
  ASSERT_TRUE(store->AddEdge(0, 10, 11, 2.5, 7).ok());
  EXPECT_EQ(store->read_version(), 0u);
  // Uncommitted writes are invisible to a snapshot pinned now.
  auto before = store->GetSnapshot();
  EXPECT_EQ(before->NumVerticesOfLabel(0), 0u);

  EXPECT_EQ(store->CommitVersion(), 1u);
  EXPECT_EQ(store->read_version(), 1u);
  auto after = store->GetSnapshot();
  EXPECT_EQ(after->SnapshotVersion(), 1u);
  EXPECT_EQ(after->NumVerticesOfLabel(0), 2u);
  auto found = after->FindVertex(0, 11);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(after->GetVertexProperty(found.value(), 0).AsString(), "b");
  // The old pin still reads the empty epoch (snapshot isolation).
  EXPECT_EQ(before->NumVerticesOfLabel(0), 0u);
}

TEST_F(MutationTest, GartUpdatePropertyIsMvcc) {
  auto store = NewGart(SimpleSchema());
  ASSERT_TRUE(
      store->AddVertex(0, 10, {PropertyValue(std::string("old"))}).ok());
  ASSERT_TRUE(store->CommitVersion() == 1u);
  auto old_snap = store->GetSnapshot();

  ASSERT_TRUE(
      store->UpdateProperty(0, 10, 0, PropertyValue(std::string("new")))
          .ok());
  ASSERT_TRUE(store->CommitVersion() == 2u);
  auto new_snap = store->GetSnapshot();

  const vid_t v = old_snap->FindVertex(0, 10).value();
  EXPECT_EQ(old_snap->GetVertexProperty(v, 0).AsString(), "old");
  EXPECT_EQ(new_snap->GetVertexProperty(v, 0).AsString(), "new");

  // Type and existence are validated against the schema.
  EXPECT_EQ(store->UpdateProperty(0, 10, 0, PropertyValue(int64_t{3})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store->UpdateProperty(0, 999, 0, PropertyValue(std::string("x")))
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      store->UpdateProperty(0, 10, 9, PropertyValue(std::string("x"))).code(),
      StatusCode::kInvalidArgument);
}

// --------------------------------------------------- durable round trips

TEST_F(MutationTest, DurableCommitRecoverRoundTrip) {
  const std::string wal = TempWalPath();
  const GraphSchema schema = SimpleSchema();

  uint32_t fp = 0;
  version_t version = 0;
  {
    auto ds = DurableStore::Open(NewGart(schema), wal);
    ASSERT_TRUE(ds.ok()) << ds.status().message();
    DurableStore& s = *ds.value();
    EXPECT_EQ(s.recovery_stats().committed_batches, 0u);

    // Batch 1: two vertices and an edge.
    ASSERT_TRUE(s.AppendVertex(0, 10, {PropertyValue(std::string("a"))}).ok());
    ASSERT_TRUE(s.AppendVertex(0, 11, {PropertyValue(std::string("b"))}).ok());
    ASSERT_TRUE(s.AppendEdge(0, 10, 11, 2.5, 7).ok());
    auto e1 = s.CommitBatch();
    ASSERT_TRUE(e1.ok()) << e1.status().message();
    EXPECT_EQ(e1.value(), 1u);

    // Batch 2: every remaining record type — update, delete, new edge.
    ASSERT_TRUE(
        s.UpdateProperty(0, 10, 0, PropertyValue(std::string("a2"))).ok());
    ASSERT_TRUE(s.RemoveEdge(0, 10, 11).ok());
    ASSERT_TRUE(s.AppendEdge(0, 11, 10, -0.5, 9).ok());
    auto e2 = s.CommitBatch();
    ASSERT_TRUE(e2.ok());
    EXPECT_EQ(e2.value(), 2u);

    version = s.read_version();
    fp = SnapshotFingerprint(*s.PinSnapshot());
  }

  // Recover onto a fresh backend: bit-identical for readers.
  auto reopened = DurableStore::Open(NewGart(schema), wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  DurableStore& r = *reopened.value();
  EXPECT_EQ(r.recovery_stats().committed_batches, 2u);
  EXPECT_EQ(r.recovery_stats().applied_records, 6u);
  EXPECT_EQ(r.read_version(), version);
  EXPECT_EQ(SnapshotFingerprint(*r.PinSnapshot()), fp);

  // The recovered store accepts new writes; a third open sees them too.
  ASSERT_TRUE(r.AppendVertex(0, 12, {PropertyValue(std::string("c"))}).ok());
  auto e3 = r.CommitBatch();
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3.value(), version + 1);
  const uint32_t fp3 = SnapshotFingerprint(*r.PinSnapshot());

  auto third = DurableStore::Open(NewGart(schema), wal);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value()->read_version(), version + 1);
  EXPECT_EQ(SnapshotFingerprint(*third.value()->PinSnapshot()), fp3);
}

TEST_F(MutationTest, DurableEmptyBatchIsNoOp) {
  auto ds = DurableStore::Open(NewGart(SimpleSchema()), TempWalPath());
  ASSERT_TRUE(ds.ok());
  auto epoch = ds.value()->CommitBatch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 0u);
  EXPECT_FALSE(ds.value()->failed());
}

TEST_F(MutationTest, DurableRejectedRecordFailStops) {
  auto ds = DurableStore::Open(NewGart(SimpleSchema()), TempWalPath());
  ASSERT_TRUE(ds.ok());
  DurableStore& s = *ds.value();
  // An edge between vertices that don't exist is only caught at apply
  // time, after the batch went durable: the store fail-stops.
  ASSERT_TRUE(s.AppendEdge(0, 404, 405, 1.0, 0).ok());
  EXPECT_FALSE(s.CommitBatch().ok());
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.AppendVertex(0, 1, {PropertyValue(std::string("x"))}).code(),
            StatusCode::kAborted);
  EXPECT_EQ(s.CommitBatch().status().code(), StatusCode::kAborted);
}

// ------------------------------------------- snapshot isolation (stress)

/// Vertex and edge counts visible at one epoch.
struct Counts {
  uint64_t vertices;
  uint64_t edges;
};

/// Writer publishes `epochs` batches (2 vertices + 1 edge each) on top of
/// `base`, what the store holds already, while readers concurrently pin
/// snapshots and assert that whatever epoch they pinned, the (vertex,
/// edge) counts are exactly that epoch's — never a half-batch.
void RunIsolationStress(GartStore* store, int epochs, oid_t oid0,
                        Counts base = {0, 0}) {
  // expected[e] = counts visible e commits after `first`; filled before
  // readers start (the vector itself is immutable while threads run).
  const version_t first = store->read_version();
  std::vector<Counts> expected(epochs + 1);
  for (int e = 0; e <= epochs; ++e) {
    expected[e] = {base.vertices + 2 * static_cast<uint64_t>(e),
                   base.edges + static_cast<uint64_t>(e)};
  }

  std::atomic<bool> done{false};
  ThreadPool pool(4);
  for (int r = 0; r < 4; ++r) {
    pool.Submit([&] {
      do {
        auto snap = store->GetSnapshot();
        const version_t v = snap->SnapshotVersion();
        ASSERT_GE(v, first);
        ASSERT_LE(v - first, static_cast<version_t>(epochs));
        const Counts& want = expected[v - first];
        EXPECT_EQ(snap->NumVerticesOfLabel(0), want.vertices)
            << "epoch " << v;
        // Visible vertices are a prefix of the vid space; summing their
        // out-degrees at the pinned version counts committed edges only.
        uint64_t edges = 0;
        for (vid_t i = 0; i < want.vertices; ++i) {
          edges += snap->Degree(i, Direction::kOut, 0);
        }
        EXPECT_EQ(edges, want.edges) << "epoch " << v;
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (int e = 0; e < epochs; ++e) {
    const oid_t a = oid0 + 2 * e;
    const oid_t b = a + 1;
    ASSERT_TRUE(store->AddVertex(0, a, {}).ok());
    ASSERT_TRUE(store->AddVertex(0, b, {}).ok());
    ASSERT_TRUE(store->AddEdge(0, a, b, 1.0, e).ok());
    store->CommitVersion();
  }
  done.store(true, std::memory_order_release);
  pool.Wait();

  EXPECT_EQ(store->read_version(), first + static_cast<version_t>(epochs));
  auto final_snap = store->GetSnapshot();
  EXPECT_EQ(final_snap->NumVerticesOfLabel(0), expected[epochs].vertices);
}

/// One vertex label "V" {}, one edge label "E" {weight, ts}.
GraphSchema StressSchema() {
  GraphSchema schema;
  EXPECT_TRUE(schema.AddVertexLabel("V", {}).ok());
  EXPECT_TRUE(schema
                  .AddEdgeLabel("E", 0, 0,
                                {{"weight", PropertyType::kDouble},
                                 {"ts", PropertyType::kInt64}})
                  .ok());
  return schema;
}

TEST_F(MutationTest, GartSnapshotIsolationUnderConcurrentCommits) {
  auto store = NewGart(StressSchema());
  RunIsolationStress(store.get(), 40, /*oid0=*/100);
}

TEST_F(MutationTest, GartBuiltSnapshotIsolationUnderConcurrentCommits) {
  // The htap shape: pinned readers over a built base plus the log while
  // the writer commits. The base is 16 vertices, each with two out-edges.
  PropertyGraphData data;
  data.schema = StressSchema();
  for (oid_t i = 0; i < 16; ++i) data.AddVertex(0, i, {});
  for (oid_t i = 0; i < 16; ++i) {
    for (const oid_t dst : {(i + 1) % 16, (i * 7 + 3) % 16}) {
      data.AddEdge(0, i, dst, {PropertyValue(1.0), PropertyValue(i)});
    }
  }
  auto store = GartStore::Build(data);
  ASSERT_TRUE(store.ok()) << store.status().message();
  RunIsolationStress(store.value().get(), 40, /*oid0=*/100, {16, 32});
}

// ------------------------------------- mixed read/write (SNB-style, MVCC)

TEST_F(MutationTest, MixedCypherReadsOverPinnedSnapshotsDuringWrites) {
  auto store = NewGart(SnbSchema());
  constexpr int kEpochs = 12;

  std::atomic<bool> done{false};
  ThreadPool pool(3);
  for (int r = 0; r < 3; ++r) {
    pool.Submit([&] {
      do {
        auto snap = store->GetSnapshot();
        const version_t v = snap->SnapshotVersion();
        // A full interactive stack over the pinned view: the graph is
        // bound at construction, so every query answers at epoch v even
        // while the writer publishes newer ones.
        query::QueryService service(snap.get(), /*num_workers=*/2);
        auto rows = service.Run(query::Language::kCypher,
                                "MATCH (p:Person) RETURN p.name");
        ASSERT_TRUE(rows.ok()) << rows.status().message();
        EXPECT_EQ(rows.value().size(), static_cast<size_t>(v))
            << "pinned epoch " << v;
        auto liked = service.Run(
            query::Language::kCypher,
            "MATCH (p:Person)-[:LIKES]->(q:Post) RETURN q.content");
        ASSERT_TRUE(liked.ok()) << liked.status().message();
        EXPECT_EQ(liked.value().size(), static_cast<size_t>(v));
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // One person + one post + one like per epoch, so the row counts above
  // equal the pinned epoch number exactly.
  for (int e = 1; e <= kEpochs; ++e) {
    ASSERT_TRUE(store
                    ->AddVertex(0, 1000 + e,
                                {PropertyValue(std::string("p") +
                                               std::to_string(e))})
                    .ok());
    ASSERT_TRUE(store
                    ->AddVertex(1, 2000 + e,
                                {PropertyValue(std::string("post") +
                                               std::to_string(e))})
                    .ok());
    ASSERT_TRUE(store->AddEdge(0, 1000 + e, 2000 + e, 1.0, e).ok());
    EXPECT_EQ(store->CommitVersion(), static_cast<version_t>(e));
  }
  done.store(true, std::memory_order_release);
  pool.Wait();

  auto snap = store->GetSnapshot();
  query::QueryService service(snap.get(), 2);
  auto rows = service.Run(query::Language::kCypher,
                          "MATCH (p:Person) RETURN p.name");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), static_cast<size_t>(kEpochs));
}

// --------------------------------------------------- HTAP (serving + OLTP)

TEST_F(MutationTest, HtapClientsReadPinnedEpochsWhileWriterCommits) {
  // The first HTAP scenario: a writer advances epochs through DurableStore
  // (WAL group commit underneath) while concurrent QueryService clients
  // serve Cypher reads over pinned snapshots. The oracle is per-epoch
  // fingerprinting: every client records (pinned version, result rows),
  // and after the run each recorded version is re-pinned and re-queried
  // serially — the concurrent answer must match the serial answer for that
  // epoch exactly, and the re-pinned store fingerprint must match the one
  // taken at commit time (epochs are immutable and revisitable).
  auto ds = DurableStore::Open(NewGart(SnbSchema()), TempWalPath());
  ASSERT_TRUE(ds.ok()) << ds.status().message();
  DurableStore& store = *ds.value();
  constexpr int kEpochs = 12;
  constexpr int kClients = 3;

  // Commit-time fingerprints, indexed by epoch. Slot 0 is the empty graph.
  // The writer fills epochs 1..kEpochs while the clients run; clients
  // never read this vector (they only pin snapshots), so the only
  // synchronization it needs is the final pool.Wait().
  std::vector<uint32_t> commit_fp(kEpochs + 1);
  commit_fp[0] = SnapshotFingerprint(*store.PinSnapshot());

  struct Observation {
    version_t version;
    std::vector<std::string> persons;
    std::vector<std::string> liked;
  };
  std::vector<std::vector<Observation>> observed(kClients);
  // Highest version any client has recorded. The `observed` vectors are
  // only read after pool.Wait(), so the writer paces itself on this.
  std::atomic<version_t> max_observed{0};

  std::atomic<bool> done{false};
  ThreadPool pool(kClients);
  for (int c = 0; c < kClients; ++c) {
    pool.Submit([&, c] {
      do {
        auto snap = store.PinSnapshot();
        const version_t v = snap->SnapshotVersion();
        query::QueryService service(snap.get(), /*num_workers=*/2);
        query::RunOptions options;
        options.tenant = "htap-client-" + std::to_string(c);
        auto persons = service.Run(query::Language::kCypher,
                                   "MATCH (p:Person) RETURN p.name", options);
        ASSERT_TRUE(persons.ok()) << persons.status().message();
        auto liked = service.Run(
            query::Language::kCypher,
            "MATCH (p:Person)-[:LIKES]->(q:Post) RETURN q.content", options);
        ASSERT_TRUE(liked.ok()) << liked.status().message();
        observed[c].push_back({v, query::RowsToStrings(persons.value()),
                               query::RowsToStrings(liked.value())});
        version_t seen = max_observed.load();
        while (seen < v && !max_observed.compare_exchange_weak(seen, v)) {
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (int e = 1; e <= kEpochs; ++e) {
    ASSERT_TRUE(store
                    .AppendVertex(0, 1000 + e,
                                  {PropertyValue(std::string("p") +
                                                 std::to_string(e))})
                    .ok());
    ASSERT_TRUE(store
                    .AppendVertex(1, 2000 + e,
                                  {PropertyValue(std::string("post") +
                                                 std::to_string(e))})
                    .ok());
    ASSERT_TRUE(store.AppendEdge(0, 1000 + e, 2000 + e, 1.0, e).ok());
    auto committed = store.CommitBatch();
    ASSERT_TRUE(committed.ok()) << committed.status().message();
    ASSERT_EQ(committed.value(), static_cast<version_t>(e));
    commit_fp[e] = SnapshotFingerprint(*store.PinSnapshot(e));
    // Wait for some client to read epoch e before committing the next
    // one. A slow reader (TSan) would otherwise start its first read after
    // the last commit and see only epoch 0. The wait is bounded so a
    // client that died on an ASSERT fails the test instead of hanging it.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (max_observed.load() < static_cast<version_t>(e) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (max_observed.load() < static_cast<version_t>(e)) {
      ADD_FAILURE() << "no client read epoch " << e << " within 30 s";
      break;
    }
  }
  done.store(true, std::memory_order_release);
  pool.Wait();

  // Serial re-validation: for every epoch any client pinned, re-pin it and
  // recompute the answer. Concurrent result == serial result, per epoch.
  std::vector<bool> epoch_seen(kEpochs + 1, false);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_FALSE(observed[c].empty()) << "client " << c << " never read";
    for (const Observation& obs : observed[c]) {
      ASSERT_LE(obs.version, static_cast<version_t>(kEpochs));
      epoch_seen[obs.version] = true;
      auto snap = store.PinSnapshot(obs.version);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(SnapshotFingerprint(*snap), commit_fp[obs.version])
          << "epoch " << obs.version << " drifted after later commits";
      query::QueryService service(snap.get(), 2);
      auto persons = service.Run(query::Language::kCypher,
                                 "MATCH (p:Person) RETURN p.name");
      ASSERT_TRUE(persons.ok());
      EXPECT_EQ(obs.persons, query::RowsToStrings(persons.value()))
          << "client " << c << " person rows diverged at epoch "
          << obs.version;
      auto liked = service.Run(
          query::Language::kCypher,
          "MATCH (p:Person)-[:LIKES]->(q:Post) RETURN q.content");
      ASSERT_TRUE(liked.ok());
      EXPECT_EQ(obs.liked, query::RowsToStrings(liked.value()))
          << "client " << c << " liked rows diverged at epoch "
          << obs.version;
      // Row-count invariant of this workload: one person/post/like pair
      // per epoch, so counts equal the pinned epoch number.
      EXPECT_EQ(obs.persons.size(), static_cast<size_t>(obs.version));
      EXPECT_EQ(obs.liked.size(), static_cast<size_t>(obs.version));
    }
  }
  // Sanity on coverage: the run observed at least one committed epoch
  // (readers that only ever saw the empty epoch 0 would vacuously pass
  // the parity checks above).
  bool any_committed_epoch_seen = false;
  for (int v = 1; v <= kEpochs; ++v) {
    any_committed_epoch_seen = any_committed_epoch_seen || epoch_seen[v];
  }
  EXPECT_TRUE(any_committed_epoch_seen);
}

}  // namespace
}  // namespace flex::storage
