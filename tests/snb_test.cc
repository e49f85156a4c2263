#include <gtest/gtest.h>

#include "query/service.h"
#include "snb/snb.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::snb {
namespace {

class SnbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SnbConfig config;
    config.num_persons = 300;
    config.seed = 7;
    stats_ = new SnbStats();
    auto data = GenerateSnb(config, stats_);
    store_ = storage::VineyardStore::Build(data).value().release();
    graph_ = store_->GetGrinHandle().release();
    service_ = new query::QueryService(graph_, 2);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete graph_;
    delete store_;
    delete stats_;
  }

  static SnbStats* stats_;
  static storage::VineyardStore* store_;
  static grin::GrinGraph* graph_;
  static query::QueryService* service_;
};

SnbStats* SnbTest::stats_ = nullptr;
storage::VineyardStore* SnbTest::store_ = nullptr;
grin::GrinGraph* SnbTest::graph_ = nullptr;
query::QueryService* SnbTest::service_ = nullptr;

TEST_F(SnbTest, GeneratorProducesExpectedShape) {
  EXPECT_EQ(stats_->num_persons, 300u);
  EXPECT_GT(stats_->num_posts, 1000u);
  EXPECT_GT(stats_->num_comments, 2000u);
  EXPECT_GE(stats_->num_forums, 20u);
  EXPECT_EQ(store_->topology().num_vertices(),
            stats_->num_persons + stats_->num_posts + stats_->num_comments +
                stats_->num_forums + stats_->num_tags);
}

TEST_F(SnbTest, GeneratorIsDeterministic) {
  SnbConfig config;
  config.num_persons = 50;
  config.seed = 99;
  SnbStats a, b;
  auto g1 = GenerateSnb(config, &a);
  auto g2 = GenerateSnb(config, &b);
  EXPECT_EQ(g1.total_vertices(), g2.total_vertices());
  EXPECT_EQ(g1.total_edges(), g2.total_edges());
  EXPECT_EQ(g1.edges[0].src_oids, g2.edges[0].src_oids);
}

TEST_F(SnbTest, AllComplexQueriesCompileAndRun) {
  Rng rng(1);
  for (const QuerySpec& q : InteractiveComplexQueries()) {
    auto plan = service_->Compile(query::Language::kCypher, q.cypher);
    ASSERT_TRUE(plan.ok()) << q.name << ": " << plan.status().ToString();
    for (int rep = 0; rep < 3; ++rep) {
      auto rows = service_->Run(query::Language::kCypher, q.cypher,
                                query::EngineKind::kGaia,
                                q.params(rng, *stats_));
      ASSERT_TRUE(rows.ok()) << q.name << ": " << rows.status().ToString();
    }
  }
}

TEST_F(SnbTest, AllShortQueriesCompileAndRun) {
  Rng rng(2);
  for (const QuerySpec& q : InteractiveShortQueries()) {
    auto rows = service_->Run(query::Language::kCypher, q.cypher,
                              query::EngineKind::kHiActor,
                              q.params(rng, *stats_));
    ASSERT_TRUE(rows.ok()) << q.name << ": " << rows.status().ToString();
  }
}

TEST_F(SnbTest, AllBiQueriesReturnRows) {
  Rng rng(3);
  size_t nonempty = 0;
  for (const QuerySpec& q : BiQueries()) {
    auto rows = service_->Run(query::Language::kCypher, q.cypher,
                              query::EngineKind::kGaia, q.params(rng, *stats_));
    ASSERT_TRUE(rows.ok()) << q.name << ": " << rows.status().ToString();
    nonempty += !rows.value().empty();
  }
  EXPECT_EQ(nonempty, 20u);  // Aggregation queries always produce rows.
}

TEST_F(SnbTest, ShortQueriesAgreeAcrossEngines) {
  Rng rng1(4), rng2(4);
  for (const QuerySpec& q : InteractiveShortQueries()) {
    auto a = service_->Run(query::Language::kCypher, q.cypher,
                           query::EngineKind::kGaia, q.params(rng1, *stats_));
    auto b = service_->Run(query::Language::kCypher, q.cypher,
                           query::EngineKind::kHiActor,
                           q.params(rng2, *stats_));
    ASSERT_TRUE(a.ok() && b.ok()) << q.name;
    EXPECT_EQ(query::RowsToStrings(a.value()), query::RowsToStrings(b.value()))
        << q.name;
  }
}

TEST_F(SnbTest, UpdatesApplyToGart) {
  SnbConfig config;
  config.num_persons = 100;
  config.seed = 11;
  SnbStats stats;
  auto data = GenerateSnb(config, &stats);
  auto gart = storage::GartStore::Build(data).value();
  const size_t before = gart->num_vertices();

  Rng rng(5);
  uint64_t serial = 0;
  for (const UpdateSpec& u : InteractiveUpdates()) {
    for (int rep = 0; rep < 5; ++rep) {
      Status st = u.apply(gart.get(), rng, stats, serial++);
      ASSERT_TRUE(st.ok()) << u.name << ": " << st.ToString();
    }
    gart->CommitVersion();
  }
  EXPECT_GT(gart->num_vertices(), before);

  // Interactive reads still run against the updated snapshot.
  auto snap = gart->GetSnapshot();
  query::NaiveGraphDB db(snap.get());
  auto rows = db.Run(query::Language::kCypher,
                     InteractiveShortQueries()[2].cypher,
                     {PropertyValue(int64_t{5})});
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
}

}  // namespace
}  // namespace flex::snb
