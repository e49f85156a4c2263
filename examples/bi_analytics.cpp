// Use case 4 / Workload 5 (§1, §8): ad-hoc BI analysis over an archived
// historical graph, on a single machine.
//
// Deployment (flexbuild selection (2)(4)(8)(9)(10)(13)(20)(23)): Cypher →
// GraphIR → optimizer → Gaia, with GraphAr as the storage backend — the
// data scientist queries the archive directly without standing up a
// resident graph database.
//
// Run: ./build/examples/bi_analytics

#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/fault.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/graphar/graphar.h"

using namespace flex;

int main() {
  // Optional chaos: FLEX_FAULT='site=key:value;...' arms fault injection
  // (see src/common/fault.h); unset means zero-overhead disarmed sites.
  if (flex::Status st = flex::fault::Injector::Instance().ArmFromEnv();
      !st.ok()) {
    std::fprintf(stderr, "bad FLEX_FAULT: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- A historical social-network snapshot, archived as GraphAr.
  snb::SnbConfig config;
  config.num_persons = 1000;
  snb::SnbStats stats;
  auto data = snb::GenerateSnb(config, &stats);
  // Per-process name: two runs at once (say, two build trees under ctest)
  // must not overwrite each other's archive.
  const std::string archive =
      "/tmp/flex_bi_history_" + std::to_string(::getpid()) + ".gar";
  FLEX_CHECK(storage::graphar::WriteGraphAr(archive, data).ok());
  std::printf("archived snapshot: %zu vertices, %zu edges -> %s\n",
              data.total_vertices(), data.total_edges(), archive.c_str());

  // ---- Open the archive directly as a GRIN data source.
  auto reader = storage::graphar::GraphArReader::Open(archive).value();
  auto graph = reader->OpenDirect().value();
  query::QueryService service(graph.get(), /*num_workers=*/4);

  // ---- Ad-hoc analysis session.
  struct Question {
    const char* text;
    const char* cypher;
  };
  const Question session[] = {
      {"Which browsers produce the longest posts?",
       "MATCH (m:Post) RETURN m.browserUsed, count(m) AS posts, "
       "avg(m.length) AS avgLen ORDER BY avgLen DESC"},
      {"Top 5 most discussed tags?",
       "MATCH (c:Comment)-[:REPLY_OF_POST]->(m:Post)-[:POST_HAS_TAG]->(t:Tag) "
       "RETURN t.name, count(c) AS replies ORDER BY replies DESC, t.name "
       "LIMIT 5"},
      {"Which forums have the most active members (by comments)?",
       "MATCH (f:Forum)-[:HAS_MEMBER]->(p:Person)"
       "<-[:COMMENT_HAS_CREATOR]-(c:Comment) "
       "RETURN f.title, count(c) AS activity ORDER BY activity DESC, "
       "f.title LIMIT 5"},
      {"Who are the five most-liked authors?",
       "MATCH (a:Person)<-[:POST_HAS_CREATOR]-(m:Post)<-[:LIKES]-(b:Person) "
       "RETURN a.id, count(b) AS likes ORDER BY likes DESC, a.id LIMIT 5"},
  };

  for (const Question& q : session) {
    std::printf("\nQ: %s\n", q.text);
    auto rows =
        service.Run(query::Language::kCypher, q.cypher, query::EngineKind::kGaia);
    FLEX_CHECK(rows.ok());
    for (const auto& line : query::RowsToStrings(rows.value())) {
      std::printf("   %s\n", line.c_str());
    }
  }
  std::printf("\n(every query ran on the Gaia dataflow engine straight off "
              "the GraphAr archive — no database to operate)\n");
  std::remove(archive.c_str());
  return 0;
}
