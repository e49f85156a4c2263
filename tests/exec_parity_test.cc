// Exp-2 parity harness: every SNB interactive and BI query must produce
// result rows bit-identical, in row order, to the tuple-at-a-time
// reference (Interpreter::RunTupleAtATime) when run on batched Gaia at 1
// worker and at 4 workers, and the 1-worker run must record the
// reference's operator span shape under its "gaia" span — batching is an
// execution-layer change only, invisible to results and to observability.
// Each query runs both with pipeline fusion (FUSED_SCAN / FUSED_EXPAND
// pushdown) and with fusion disabled, and the two plans must agree
// row-for-row: fusion is a plan-shape change only. Span shapes are
// compared within one plan (a fused plan legitimately records op.fused_*
// marker spans the unfused plan does not). The whole suite runs once per
// property backend — Vineyard, a GART snapshot and a GraphAr direct view —
// so every backend's scan, expansion and pushdown path is held to the
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "query/service.h"
#include "runtime/gaia.h"
#include "snb/snb.h"
#include "storage/gart/gart_store.h"
#include "storage/graphar/graphar.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

/// A GRIN handle on the SNB graph plus whatever keeps it valid.
struct OpenedGraph {
  std::shared_ptr<void> owner;
  std::unique_ptr<grin::GrinGraph> graph;
};

struct Vineyard {
  static constexpr char kName[] = "vineyard";
  static OpenedGraph Open(const PropertyGraphData& data) {
    std::shared_ptr<storage::VineyardStore> store =
        std::move(storage::VineyardStore::Build(data).value());
    return {store, store->GetGrinHandle()};
  }
};

struct Gart {
  static constexpr char kName[] = "gart";
  static OpenedGraph Open(const PropertyGraphData& data) {
    std::shared_ptr<storage::GartStore> store =
        std::move(storage::GartStore::Build(data).value());
    return {store, store->GetSnapshot()};
  }
};

struct GraphAr {
  static constexpr char kName[] = "graphar";
  static OpenedGraph Open(const PropertyGraphData& data) {
    const std::string path = testing::TempDir() + "exec_parity.gar";
    EXPECT_TRUE(storage::graphar::WriteGraphAr(path, data).ok());
    std::shared_ptr<storage::graphar::GraphArReader> reader =
        std::move(storage::graphar::GraphArReader::Open(path).value());
    return {reader, std::move(reader->OpenDirect().value())};
  }
};

struct BackendName {
  template <typename Backend>
  static std::string GetName(int) {
    return Backend::kName;
  }
};

/// Canonicalizes a trace into its span *shape*: each span rendered as its
/// root-to-leaf path of names, all paths sorted. Two traces with equal
/// shapes executed the same logical steps, regardless of timing, worker
/// interleaving, or span-id assignment order.
std::vector<std::string> SpanShape(const trace::Trace& trace) {
  const std::vector<trace::Span> spans = trace.spans();
  std::map<uint64_t, const trace::Span*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  std::vector<std::string> paths;
  paths.reserve(spans.size());
  for (const auto& span : spans) {
    std::string path = span.name;
    for (uint64_t parent = span.parent; parent != trace::kNoParent;) {
      const trace::Span* p = by_id.at(parent);
      path = p->name + "/" + path;
      parent = p->parent;
    }
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

template <typename Backend>
class ExecParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig config;
    config.num_persons = 200;
    config.seed = 17;
    stats_ = new snb::SnbStats();
    auto data = snb::GenerateSnb(config, stats_);
    opened_ = new OpenedGraph(Backend::Open(data));
    graph_ = opened_->graph.get();
    service_ = new QueryService(graph_, 1);
    gaia1_ = new runtime::GaiaEngine(graph_, 1);
    gaia4_ = new runtime::GaiaEngine(graph_, 4);
  }
  static void TearDownTestSuite() {
    delete gaia4_;
    delete gaia1_;
    delete service_;
    delete opened_;
    delete stats_;
  }

  /// Runs one plan on the reference and on batched Gaia at 1 and 4
  /// workers with one shared parameter draw, and asserts:
  ///   - both Gaia runs return the reference's rows, in order, and
  ///   - the 1-worker Gaia trace has the reference's span shape. The
  ///     reference runs under a "gaia" root so the two trees line up; 4
  ///     workers legitimately add gaia.shard / gaia.exchange spans.
  /// `reference` receives the reference rows.
  static void RunPlanAllEngines(const ir::Plan& plan,
                                const std::vector<PropertyValue>& params,
                                const std::string& name,
                                std::vector<std::string>* reference) {
    trace::Trace reference_trace(name);
    {
      trace::ScopedSpan root(&reference_trace, "gaia", "engine");
      ExecOptions opts;
      opts.params = params;
      opts.trace = &reference_trace;
      opts.trace_parent = root.id();
      auto rows = Interpreter(graph_).RunTupleAtATime(plan, opts);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      *reference = RowsToStrings(rows.value());
    }
    trace::Trace gaia_trace(name);
    auto one = gaia1_->Run(plan, params, {}, nullptr, &gaia_trace);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(RowsToStrings(one.value()), *reference)
        << "1-worker Gaia diverges from the reference";
    EXPECT_EQ(SpanShape(gaia_trace), SpanShape(reference_trace))
        << "1-worker Gaia span shape diverges from the reference";
    auto four = gaia4_->Run(plan, params);
    ASSERT_TRUE(four.ok()) << four.status().ToString();
    EXPECT_EQ(RowsToStrings(four.value()), *reference)
        << "4-worker Gaia diverges from the reference";
  }

  /// Compiles `spec` with fusion on (the service default) and off, runs
  /// both plans through every engine, and asserts the two plans agree
  /// row-for-row: pushdown must never change results.
  static void CheckParity(const snb::QuerySpec& spec) {
    SCOPED_TRACE(spec.name);
    auto fused = service_->Compile(Language::kCypher, spec.cypher);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    auto parsed =
        ParseQuery(Language::kCypher, spec.cypher, graph_->schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    optimizer::OptimizerOptions no_fusion;
    no_fusion.fusion = false;
    const ir::Plan unfused =
        optimizer::Optimize(parsed.value(), &service_->catalog(), no_fusion,
                            &graph_->schema());
    Rng rng(20240607 + spec.name.size());
    const std::vector<PropertyValue> params = spec.params(rng, *stats_);

    std::vector<std::string> fused_rows;
    RunPlanAllEngines(fused.value(), params, spec.name, &fused_rows);
    std::vector<std::string> unfused_rows;
    RunPlanAllEngines(unfused, params, spec.name, &unfused_rows);
    EXPECT_EQ(fused_rows, unfused_rows) << "fusion changed result rows";
  }

  static snb::SnbStats* stats_;
  static OpenedGraph* opened_;
  static grin::GrinGraph* graph_;
  static QueryService* service_;
  static runtime::GaiaEngine* gaia1_;
  static runtime::GaiaEngine* gaia4_;
};

template <typename Backend>
snb::SnbStats* ExecParityTest<Backend>::stats_ = nullptr;
template <typename Backend>
OpenedGraph* ExecParityTest<Backend>::opened_ = nullptr;
template <typename Backend>
grin::GrinGraph* ExecParityTest<Backend>::graph_ = nullptr;
template <typename Backend>
QueryService* ExecParityTest<Backend>::service_ = nullptr;
template <typename Backend>
runtime::GaiaEngine* ExecParityTest<Backend>::gaia1_ = nullptr;
template <typename Backend>
runtime::GaiaEngine* ExecParityTest<Backend>::gaia4_ = nullptr;

using PropertyBackends = ::testing::Types<Vineyard, Gart, GraphAr>;
TYPED_TEST_SUITE(ExecParityTest, PropertyBackends, BackendName);

TYPED_TEST(ExecParityTest, InteractiveComplexQueries) {
  for (const auto& spec : snb::InteractiveComplexQueries()) {
    TestFixture::CheckParity(spec);
  }
}

TYPED_TEST(ExecParityTest, InteractiveShortQueries) {
  for (const auto& spec : snb::InteractiveShortQueries()) {
    TestFixture::CheckParity(spec);
  }
}

TYPED_TEST(ExecParityTest, BiQueries) {
  for (const auto& spec : snb::BiQueries()) TestFixture::CheckParity(spec);
}

}  // namespace
}  // namespace flex::query
