// The three SNB workloads: interactive (HiActor point reads), bi (Gaia
// scans and aggregation) and htap (WAL commits beside pinned-snapshot
// reads). Every request goes through the stack's public entry points; the
// benchmark only draws inputs, times calls and checks answers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "optimizer/optimizer.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"
#include "storage/vineyard/vineyard_store.h"
#include "workloads.h"

namespace flex::flexbench {

namespace {

using query::Language;
using Rows = Result<std::vector<ir::Row>>;

/// Requests per seed whose answers the reference re-checks.
constexpr size_t kOracleRequests = 64;

/// Templates whose ORDER BY ... LIMIT can cut through ties, so the engine
/// and the reference may keep different tied rows: only row counts compare.
/// C1 orders by lastName alone; in C7 one liker can like two posts of the
/// same person on the same day.
bool CountOnly(const std::string& name) { return name == "C1" || name == "C7"; }

struct Request {
  const snb::QuerySpec* spec = nullptr;
  std::vector<PropertyValue> params;
};

/// The SNB interactive mix: 70% short reads (S1-S7), 30% complex reads
/// (C1-C14), fresh parameters for every request.
class InteractiveMix {
 public:
  InteractiveMix()
      : shorts_(snb::InteractiveShortQueries()),
        complexes_(snb::InteractiveComplexQueries()) {}

  Request Draw(Rng& rng, const snb::SnbStats& stats) const {
    const auto& suite = rng.NextDouble() < 0.7 ? shorts_ : complexes_;
    const snb::QuerySpec& spec = suite[rng.Uniform(suite.size())];
    return {&spec, spec.params(rng, stats)};
  }

  std::vector<const snb::QuerySpec*> templates() const {
    std::vector<const snb::QuerySpec*> all;
    for (const auto& q : shorts_) all.push_back(&q);
    for (const auto& q : complexes_) all.push_back(&q);
    return all;
  }

 private:
  std::vector<snb::QuerySpec> shorts_;
  std::vector<snb::QuerySpec> complexes_;
};

/// One engine answer kept for the reference check.
struct Observed {
  Request request;
  std::vector<std::string> rows;
  /// The snapshot the answer was computed on (null: the workload's graph).
  std::shared_ptr<const grin::GrinGraph> graph;
};

/// What one client thread saw during a loop.
struct ClientLog {
  explicit ClientLog(uint64_t seed) : rng(seed) {}

  Rng rng;
  LatencyBook book;
  uint64_t errors = 0;
  std::string first_error;
  std::vector<Observed> observed;
  std::vector<TracedOp> traced;

  /// Books a completed request; a failed one counts as an error instead.
  /// Keeps the answer for the reference check while `observed` has room
  /// and `keep` is set.
  void Record(const std::string& type, double ms, const Rows& rows,
              const Request& req, bool keep,
              std::shared_ptr<const grin::GrinGraph> graph = nullptr) {
    if (!rows.ok()) {
      if (errors++ == 0) first_error = type + ": " + rows.status().ToString();
      return;
    }
    book.Add(type, ms);
    if (keep && observed.size() < kOracleRequests) {
      observed.push_back(
          {req, query::RowsToStrings(rows.value()), std::move(graph)});
    }
  }
};

/// Merges the clients' latencies into `book` and their failures into
/// `report`.
void Collect(const std::vector<ClientLog>& logs, LatencyBook* book,
             Report* report) {
  for (const ClientLog& log : logs) {
    book->Merge(log.book);
    report->Attempt(log.book.count() + log.errors);
    for (uint64_t i = 0; i < log.errors; ++i) report->Fail(log.first_error);
  }
}

std::vector<ClientLog> MakeClients(size_t n, uint64_t seed, uint64_t stream) {
  std::vector<ClientLog> logs;
  for (size_t c = 0; c < n; ++c) logs.emplace_back(StreamSeed(seed, stream + c));
  return logs;
}

std::vector<TracedOp> TakeTraced(std::vector<ClientLog>* logs) {
  std::vector<TracedOp> all;
  for (ClientLog& log : *logs) {
    for (TracedOp& op : log.traced) all.push_back(std::move(op));
  }
  return all;
}

PropertyGraphData GenerateSnb(const Config& config, size_t persons,
                              snb::SnbStats* stats) {
  snb::SnbConfig snb_config;
  snb_config.num_persons = persons;
  snb_config.seed = StreamSeed(config.seed, 1);
  return snb::GenerateSnb(snb_config, stats);
}

/// Parses and optimizes every template once through the compiler's public
/// entry points (the same two calls QueryService::Compile makes), timing
/// each phase. Returns the plans by template name.
std::map<std::string, std::shared_ptr<const ir::Plan>> CompileTemplates(
    const std::vector<const snb::QuerySpec*>& specs,
    const query::QueryService& service, const grin::GrinGraph& graph,
    SetupPhases* phases) {
  std::map<std::string, std::shared_ptr<const ir::Plan>> plans;
  for (const snb::QuerySpec* spec : specs) {
    Timer parse;
    auto logical =
        query::ParseQuery(Language::kCypher, spec->cypher, graph.schema());
    phases->parse_s += parse.ElapsedSeconds();
    FLEX_CHECK(logical.ok());
    Timer optimize;
    ir::Plan plan = optimizer::Optimize(logical.value(), &service.catalog(),
                                        {}, &graph.schema());
    phases->compile_s += optimize.ElapsedSeconds();
    plans[spec->name] = std::make_shared<const ir::Plan>(std::move(plan));
  }
  phases->compile_s += phases->parse_s;
  return plans;
}

/// Re-runs every observed request through the NaiveGraphDB reference (the
/// unoptimized plan, tuple at a time, on one thread) over the same graph
/// and compares the answers as sorted row multisets. Identical requests on
/// the same graph are answered by the reference once.
void CheckAgainstNaive(const std::vector<Observed>& observed,
                       const grin::GrinGraph* default_graph, Report* report) {
  std::map<std::pair<const grin::GrinGraph*, std::string>,
           std::vector<std::string>>
      reference;
  for (const Observed& obs : observed) {
    report->Attempt();
    const grin::GrinGraph* graph =
        obs.graph != nullptr ? obs.graph.get() : default_graph;
    const std::string& name = obs.request.spec->name;
    std::pair<const grin::GrinGraph*, std::string> key(graph, name);
    for (const PropertyValue& p : obs.request.params) {
      key.second += '/';
      key.second += p.ToString();
    }
    auto it = reference.find(key);
    if (it == reference.end()) {
      auto plan = query::ParseQuery(Language::kCypher, obs.request.spec->cypher,
                                    graph->schema());
      if (!plan.ok()) {
        report->Fail(name + " reference parse: " + plan.status().ToString());
        continue;
      }
      query::NaiveGraphDB naive(graph);
      auto rows = naive.RunPlan(plan.value(), obs.request.params);
      if (!rows.ok()) {
        report->Fail(name + " reference run: " + rows.status().ToString());
        continue;
      }
      std::vector<std::string> expected = query::RowsToStrings(rows.value());
      std::sort(expected.begin(), expected.end());
      it = reference.emplace(key, std::move(expected)).first;
    }
    std::vector<std::string> got = obs.rows;
    std::sort(got.begin(), got.end());
    const bool match = CountOnly(name) ? got.size() == it->second.size()
                                       : got == it->second;
    if (!match) {
      report->Fail(name + " answer differs from the reference (" +
                   std::to_string(got.size()) + " vs " +
                   std::to_string(it->second.size()) + " rows)");
    }
  }
}

/// Runs one request through QueryService::Run, timed (and traced when
/// asked), and books it in `log`.
void RunRequest(query::QueryService& service, query::RunOptions run,
                const Request& req, bool traced, bool keep, ClientLog* log) {
  TracedOp op;
  if (traced) {
    op = BeginTracedOp(req.spec->name, "bench.request");
    run.trace = op.trace.get();
  }
  Timer timer;
  Rows rows =
      service.Run(Language::kCypher, req.spec->cypher, run, req.params);
  const double ms = timer.ElapsedMillis();
  if (traced) {
    op.trace->EndSpan(op.root);
    log->traced.push_back(std::move(op));
  }
  log->Record(req.spec->name, ms, rows, req, keep);
}

// ------------------------------------------------------------ interactive

struct ServiceState {
  snb::SnbStats stats;
  // Declared in dependency order: members are destroyed bottom-up, so the
  // service goes before the graph view it reads and the view before its
  // store.
  std::unique_ptr<storage::GartStore> gart;
  std::unique_ptr<storage::VineyardStore> vineyard;
  std::unique_ptr<grin::GrinGraph> graph;
  std::unique_ptr<query::QueryService> service;
};

}  // namespace

void RunInteractive(const Config& config, Report* report) {
  const size_t persons = config.smoke ? 300 : 4000;
  constexpr size_t kClients = 2;  // Plus 2 HiActor shards: 4 threads busy.
  const InteractiveMix mix;

  auto state = MedianSetup<ServiceState>(
      config, report, [&](SetupPhases* phases) {
        auto s = std::make_unique<ServiceState>();
        Timer timer;
        PropertyGraphData data = GenerateSnb(config, persons, &s->stats);
        phases->generate_s = timer.ElapsedSeconds();
        timer.Restart();
        auto gart = storage::GartStore::Build(data);
        FLEX_CHECK(gart.ok());
        s->gart = std::move(gart).value();
        s->graph = s->gart->GetSnapshot();
        s->service =
            std::make_unique<query::QueryService>(s->graph.get(), kClients);
        phases->load_s = timer.ElapsedSeconds();
        CompileTemplates(mix.templates(), *s->service, *s->graph, phases);
        return s;
      });
  query::QueryService& service = *state->service;

  std::vector<query::RunOptions> options(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    options[c].engine = query::EngineKind::kHiActor;
    options[c].tenant = "client-" + std::to_string(c);
  }
  auto step = [&](std::vector<ClientLog>& logs, size_t c, bool traced) {
    const Request req = mix.Draw(logs[c].rng, state->stats);
    RunRequest(service, options[c], req, traced, c == 0, &logs[c]);
  };

  {
    auto warm = MakeClients(kClients, config.seed, 200);
    RunClosedLoop(kClients, config.warmup_seconds(),
                  [&](size_t c) { step(warm, c, false); });
  }

  auto logs = MakeClients(kClients, config.seed, 100);
  const CounterSnapshot before = CounterSnapshot::Take();
  const double window_s = RunClosedLoop(
      kClients, config.seconds, [&](size_t c) { step(logs, c, false); });
  const CounterSnapshot delta = CounterSnapshot::Take().Since(before);
  LatencyBook book;
  Collect(logs, &book, report);
  ReportLatency(book, 99, book.count(), window_s, report);
  ReportCounters(delta, book.count(), report);

  if (config.trace) {
    auto traced = MakeClients(kClients, config.seed, 300);
    RunFixed(kClients, config.smoke ? 50 : 1000,
             [&](size_t c, size_t) { step(traced, c, true); });
    LatencyBook traced_book;
    Collect(traced, &traced_book, report);
    ReportTracedPass(config, TakeTraced(&traced), traced_book, book, report);
  }
  CheckAgainstNaive(logs[0].observed, state->graph.get(), report);
}

// --------------------------------------------------------------------- bi

void RunBi(const Config& config, Report* report) {
  const size_t persons = config.smoke ? 300 : 10000;
  // Two Gaia workers, not four: with four on four cores every query waits
  // for its slowest core, and under the host's contention the run-to-run
  // spread of latency_p50_ms tripled (IQR 10% vs 3% in interleaved runs)
  // and the median was no lower (8.7 vs 8.2 ms).
  constexpr size_t kWorkers = 2;
  const std::vector<snb::QuerySpec> queries = snb::BiQueries();
  std::vector<const snb::QuerySpec*> templates;
  for (const auto& q : queries) templates.push_back(&q);

  auto state = MedianSetup<ServiceState>(
      config, report, [&](SetupPhases* phases) {
        auto s = std::make_unique<ServiceState>();
        Timer timer;
        PropertyGraphData data = GenerateSnb(config, persons, &s->stats);
        phases->generate_s = timer.ElapsedSeconds();
        timer.Restart();
        auto vineyard = storage::VineyardStore::Build(data);
        FLEX_CHECK(vineyard.ok());
        s->vineyard = std::move(vineyard).value();
        s->graph = s->vineyard->GetGrinHandle();
        s->service =
            std::make_unique<query::QueryService>(s->graph.get(), kWorkers);
        phases->load_s = timer.ElapsedSeconds();
        CompileTemplates(templates, *s->service, *s->graph, phases);
        return s;
      });
  query::QueryService& service = *state->service;

  // One client runs BI1..BI20 round-robin; the queries take no parameters,
  // so the inputs vary with the seed through the generated graph.
  size_t next = 0;
  auto step = [&](ClientLog& log, bool traced) {
    const Request req{&queries[next++ % queries.size()], {}};
    RunRequest(service, {}, req, traced, true, &log);
  };

  {
    // Warm-up: one full suite pass fills the plan cache for every query.
    ClientLog warm(0);
    for (size_t i = 0; i < queries.size(); ++i) step(warm, false);
  }

  next = 0;
  std::vector<ClientLog> logs = MakeClients(1, config.seed, 100);
  const CounterSnapshot before = CounterSnapshot::Take();
  const double window_s = RunClosedLoop(
      1, config.seconds, [&](size_t) { step(logs[0], false); });
  const CounterSnapshot delta = CounterSnapshot::Take().Since(before);
  LatencyBook book;
  Collect(logs, &book, report);
  ReportLatency(book, 90, book.count(), window_s, report);
  ReportCounters(delta, book.count(), report);

  if (config.trace) {
    next = 0;
    std::vector<ClientLog> traced = MakeClients(1, config.seed, 300);
    for (size_t i = 0; i < 2 * queries.size(); ++i) step(traced[0], true);
    LatencyBook traced_book;
    Collect(traced, &traced_book, report);
    ReportTracedPass(config, TakeTraced(&traced), traced_book, book, report);
  }
  CheckAgainstNaive(logs[0].observed, state->graph.get(), report);
}

// ------------------------------------------------------------------- htap

namespace {

struct HtapState {
  PropertyGraphData data;  ///< Base graph, kept for the recovery rebuild.
  snb::SnbStats stats;
  std::unique_ptr<storage::DurableStore> store;
  std::unique_ptr<grin::GrinGraph> initial;  ///< The service's default view.
  std::unique_ptr<query::QueryService> service;
  std::map<std::string, std::shared_ptr<const ir::Plan>> plans;
};

/// Stages update batch `k`: one new person who knows an existing one,
/// three new comments (each with its creator and the post it replies to),
/// four likes and one property update - 16 well-formed records.
Status StageBatch(storage::DurableStore* store, const snb::SnbSchema& s,
                  const snb::SnbStats& stats, uint64_t k, Rng& rng) {
  const auto date = [&] { return static_cast<int64_t>(rng.Uniform(1000)); };
  const auto person = [&] {
    return static_cast<oid_t>(rng.Uniform(stats.num_persons));
  };
  const auto post = [&] {
    return snb::kPostBase + static_cast<oid_t>(rng.Uniform(stats.num_posts));
  };
  const oid_t fresh = static_cast<oid_t>(stats.num_persons + k);
  FLEX_RETURN_NOT_OK(store->AppendVertex(
      s.person, fresh,
      {PropertyValue("New"), PropertyValue("Person"),
       PropertyValue(static_cast<int64_t>(rng.Uniform(365 * 40))),
       PropertyValue(static_cast<int64_t>(rng.Uniform(200)))}));
  FLEX_RETURN_NOT_OK(store->AppendEdge(s.knows, fresh, person(), 1.0, date()));
  for (uint64_t j = 0; j < 3; ++j) {
    const oid_t comment = snb::kCommentBase +
                          static_cast<oid_t>(stats.num_comments + 3 * k + j);
    FLEX_RETURN_NOT_OK(store->AppendVertex(
        s.comment, comment,
        {PropertyValue(date()),
         PropertyValue(static_cast<int64_t>(5 + rng.Uniform(200)))}));
    FLEX_RETURN_NOT_OK(
        store->AppendEdge(s.comment_has_creator, comment, person()));
    FLEX_RETURN_NOT_OK(store->AppendEdge(s.reply_of_post, comment, post()));
  }
  for (int j = 0; j < 4; ++j) {
    FLEX_RETURN_NOT_OK(store->AppendEdge(s.likes, person(), post(), 1.0, date()));
  }
  return store->UpdateProperty(
      s.person, person(), 3,  // city
      PropertyValue(static_cast<int64_t>(rng.Uniform(200))));
}

/// The open-loop writer: commit k is due at k / rate seconds after the
/// start, and its latency runs from that due instant, so a stall also
/// delays every commit queued behind it.
struct Writer {
  Writer(storage::DurableStore* store, const snb::SnbStats* stats,
         double rate, uint64_t seed)
      : store(store), stats(stats), rate(rate), rng(seed) {}

  storage::DurableStore* store;
  const snb::SnbSchema schema = snb::SnbSchema::Build();
  const snb::SnbStats* stats;
  const double rate;  ///< Commits per second.
  Rng rng;
  uint64_t next_batch = 0;  ///< Batch numbers stay unique across runs.

  LatencyBook book;
  std::vector<double> late_ms;  ///< How late each commit started.
  uint64_t errors = 0;
  std::string first_error;
  std::vector<TracedOp> traced;

  /// Commits until `stop` is set or `max_commits` have been made.
  void Run(const std::atomic<bool>& stop, size_t max_commits, bool trace) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / rate);
    for (size_t i = 0; i < max_commits; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(period * i);
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) break;
      const auto since_due = [&] {
        return std::chrono::duration<double, std::milli>(Clock::now() - due)
            .count();
      };
      late_ms.push_back(since_due());
      TracedOp op;
      storage::CommitOptions options;
      if (trace) {
        op = BeginTracedOp("commit", "bench.commit");
        options.trace = op.trace.get();
      }
      Status st = StageBatch(store, schema, *stats, next_batch++, rng);
      if (st.ok()) st = store->CommitBatch(options).status();
      const double ms = since_due();
      if (trace) {
        op.trace->EndSpan(op.root);
        traced.push_back(std::move(op));
      }
      if (!st.ok()) {
        if (errors++ == 0) first_error = "commit: " + st.ToString();
        break;  // The store fail-stops after a failed commit.
      }
      book.Add("commit", ms);
    }
  }
};

}  // namespace

void RunHtap(const Config& config, Report* report) {
  const size_t persons = config.smoke ? 300 : 4000;
  constexpr size_t kReaders = 2;  // Plus the writer and 2 HiActor shards.
  constexpr double kCommitsPerSecond = 500.0;
  const InteractiveMix mix;
  const std::string wal_path = config.out_dir + "/htap.wal";

  auto state = MedianSetup<HtapState>(config, report, [&](SetupPhases* phases) {
    auto s = std::make_unique<HtapState>();
    std::filesystem::remove(wal_path);
    Timer timer;
    s->data = GenerateSnb(config, persons, &s->stats);
    phases->generate_s = timer.ElapsedSeconds();
    timer.Restart();
    auto gart = storage::GartStore::Build(s->data);
    FLEX_CHECK(gart.ok());
    auto store = storage::DurableStore::Open(std::move(gart).value(), wal_path);
    FLEX_CHECK(store.ok());
    s->store = std::move(store).value();
    s->initial = s->store->PinSnapshot();
    s->service =
        std::make_unique<query::QueryService>(s->initial.get(), kReaders);
    phases->load_s = timer.ElapsedSeconds();
    s->plans = CompileTemplates(mix.templates(), *s->service, *s->initial,
                                phases);
    for (const auto& [name, plan] : s->plans) {
      s->service->hiactor().RegisterProcedure(name, plan->Clone());
    }
    return s;
  });
  storage::DurableStore& store = *state->store;
  runtime::HiActorEngine& hiactor = state->service->hiactor();

  // A read pins the newest epoch, then runs a registered procedure on it.
  auto read = [&](std::vector<ClientLog>& logs, size_t c, bool traced) {
    ClientLog& log = logs[c];
    const Request req = mix.Draw(log.rng, state->stats);
    TracedOp op;
    if (traced) op = BeginTracedOp(req.spec->name, "bench.request");
    Timer timer;
    std::shared_ptr<const grin::GrinGraph> snapshot = store.PinSnapshot();
    Rows rows = Status::Internal("not run");
    if (traced) {
      runtime::QueryTask task;
      task.plan = state->plans.at(req.spec->name);
      task.params = req.params;
      task.graph = snapshot;
      task.trace = op.trace.get();
      task.trace_parent = op.root;
      rows = hiactor.Submit(std::move(task)).get();
    } else {
      auto future = hiactor.SubmitProcedure(req.spec->name, req.params,
                                            snapshot);
      rows = future.ok() ? future.value().get() : Rows(future.status());
    }
    const double ms = timer.ElapsedMillis();
    if (traced) {
      op.trace->EndSpan(op.root);
      log.traced.push_back(std::move(op));
    }
    log.Record("read", ms, rows, req, c == 0, std::move(snapshot));
  };

  Writer writer(&store, &state->stats,
                config.smoke ? 100.0 : kCommitsPerSecond,
                StreamSeed(config.seed, 400));
  // Runs the writer on its own thread beside `readers`. An unbounded writer
  // stops with the readers; a bounded one finishes its commits.
  auto with_writer = [&](size_t max_commits, bool trace,
                         const std::function<void()>& readers) {
    std::atomic<bool> stop{false};
    std::jthread thread([&] { writer.Run(stop, max_commits, trace); });
    readers();
    if (max_commits == SIZE_MAX) stop.store(true, std::memory_order_release);
  };

  {
    auto warm = MakeClients(kReaders, config.seed, 200);
    RunClosedLoop(kReaders, config.warmup_seconds(),
                  [&](size_t c) { read(warm, c, false); });
  }

  auto logs = MakeClients(kReaders, config.seed, 100);
  const CounterSnapshot before = CounterSnapshot::Take();
  double window_s = 0.0;
  with_writer(SIZE_MAX, false, [&] {
    window_s = RunClosedLoop(kReaders, config.seconds,
                             [&](size_t c) { read(logs, c, false); });
  });
  const CounterSnapshot delta = CounterSnapshot::Take().Since(before);

  // Throughput counts reads only: the commit rate is fixed by the schedule.
  LatencyBook reads;
  Collect(logs, &reads, report);
  LatencyBook book = reads;
  book.Merge(writer.book);
  report->Attempt(writer.book.count() + writer.errors);
  for (uint64_t i = 0; i < writer.errors; ++i) report->Fail(writer.first_error);
  ReportLatency(book, 99, reads.count(), window_s, report);
  ReportCounters(delta, reads.count(), report);
  const double period_ms = 1000.0 / writer.rate;
  const double late_p99 = Percentile(writer.late_ms, 99);
  report->PerLayer("gen.late_p99_ratio", late_p99 / period_ms, "ratio",
                   writer.late_ms.size());
  // A writer that fell this far behind its schedule was not running open
  // loop at the stated rate: the run measured something else.
  if (late_p99 > 50 * period_ms) {
    report->Fail("writer fell behind schedule: late p99 " +
                 std::to_string(late_p99) + " ms");
  }

  if (config.trace) {
    auto traced = MakeClients(kReaders, config.seed, 300);
    writer.book = LatencyBook();
    writer.errors = 0;
    with_writer(config.smoke ? 50 : 500, true, [&] {
      RunFixed(kReaders, config.smoke ? 50 : 1000,
               [&](size_t c, size_t) { read(traced, c, true); });
    });
    LatencyBook traced_book;
    Collect(traced, &traced_book, report);
    traced_book.Merge(writer.book);
    report->Attempt(writer.book.count() + writer.errors);
    for (uint64_t i = 0; i < writer.errors; ++i) {
      report->Fail(writer.first_error);
    }
    std::vector<TracedOp> ops = TakeTraced(&traced);
    for (TracedOp& op : writer.traced) ops.push_back(std::move(op));
    ReportTracedPass(config, ops, traced_book, book, report);
  }

  // Oracle 1: every kept read, re-run by the reference on the very
  // snapshot (epoch) the engine answered on.
  CheckAgainstNaive(logs[0].observed, nullptr, report);
  logs.clear();  // Drops the pinned snapshots before the store goes.

  // Oracle 2: recovery. Replaying the WAL onto a fresh build of the base
  // graph must reproduce the live store bit for bit at the final epoch.
  report->Attempt();
  const uint32_t live_fp = storage::SnapshotFingerprint(*store.PinSnapshot());
  const version_t live_version = store.read_version();
  state->service.reset();
  state->initial.reset();
  state->store.reset();
  auto gart = storage::GartStore::Build(state->data);
  FLEX_CHECK(gart.ok());
  Timer recovery;
  auto recovered = storage::DurableStore::Open(std::move(gart).value(),
                                               wal_path);
  const double recovery_s = recovery.ElapsedSeconds();
  if (!recovered.ok()) {
    report->Fail("recovery: " + recovered.status().ToString());
    return;
  }
  const storage::DurableStore& again = *recovered.value();
  if (again.read_version() != live_version ||
      storage::SnapshotFingerprint(*again.PinSnapshot()) != live_fp) {
    report->Fail("recovered store differs from the live store at epoch " +
                 std::to_string(live_version));
  }
  const double records =
      static_cast<double>(again.recovery_stats().applied_records);
  report->PerLayer("recover.records_per_s", records / recovery_s, "1/s",
                   again.recovery_stats().applied_records);
  report->PerLayer(
      "wal.bytes_per_record",
      static_cast<double>(std::filesystem::file_size(wal_path)) / records,
      "bytes", again.recovery_stats().applied_records);
}

}  // namespace flex::flexbench
