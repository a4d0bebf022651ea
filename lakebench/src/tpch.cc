// The two TPC-H workloads. Both run the 22 TPC-H queries as SQL text over
// Delta tables on an ObjectStore behind an io::BlockCache:
//
//   tpch_power       one client, one exec::Driver with nproc workers, a
//                    cache holding every table byte, warmed before timing;
//   tpch_throughput  nproc clients through one service::QueryService
//                    (nproc workers, admission cap nproc), a cache of a
//                    quarter of the table bytes over a store with 2 ms GETs.
//
// Every result is checked against the src/baseline row engine running the
// hand-built tpch::TpchQuery plan on the same generated tables.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "baseline/row_operator.h"
#include "common.h"
#include "exec/driver.h"
#include "io/block_cache.h"
#include "io/caching_store.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "service/query_service.h"
#include "sql/analyzer.h"
#include "sql/catalog.h"
#include "storage/delta.h"
#include "storage/object_store.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"
#include "tpch/tpch_sql.h"

namespace lakebench {
namespace {

using namespace photon;

constexpr int kQueries = 22;
constexpr double kScaleFactor = 0.1;
/// Set-ups per run, half before the timed phase and half after it.
constexpr int kSetups = 4;
/// Data files of 8 batches (about 16K rows) in 8K-row row groups, so
/// lineitem spans ~37 files: enough two-file morsels for every worker, and
/// row groups small enough for zone maps to skip.
constexpr int kBatchesPerFile = 8;
constexpr int64_t kRowGroupRows = 8192;
constexpr int64_t kThroughputGetLatencyUs = 2000;

/// "Q<q>" for the 1-based query number q.
std::string QueryName(int q) {
  std::string name = "Q";
  name += std::to_string(q);
  return name;
}

struct Expected {
  int64_t rows = 0;
  uint64_t checksum = 0;
};

/// One set-up of the lakehouse: Delta tables, cache, catalog, engine.
/// Members are declared so that the engine dies before what it reads.
struct TpchEnv {
  std::unique_ptr<ObjectStore> store;
  std::vector<std::unique_ptr<DeltaTable>> tables;
  std::unique_ptr<io::BlockCache> cache;
  /// Any non-null pool turns scan read-ahead on; exec::Driver substitutes
  /// its own IO pool.
  std::unique_ptr<ThreadPool> prefetch_marker;
  sql::Catalog catalog;
  std::unique_ptr<MemoryManager> memory;
  std::unique_ptr<exec::Driver> driver;
  std::unique_ptr<service::QueryService> service;
  int64_t data_bytes = 0;
  int64_t files = 0;
};

std::vector<std::pair<const char*, const Table*>> TablesOf(
    const tpch::TpchData& d) {
  return {{"region", &d.region},     {"nation", &d.nation},
          {"supplier", &d.supplier}, {"customer", &d.customer},
          {"part", &d.part},         {"partsupp", &d.partsupp},
          {"orders", &d.orders},     {"lineitem", &d.lineitem}};
}

Result<std::unique_ptr<DeltaTable>> WriteDelta(ObjectStore* store,
                                               const std::string& path,
                                               const Table& data) {
  PHOTON_ASSIGN_OR_RETURN(std::unique_ptr<DeltaTable> table,
                          DeltaTable::Create(store, path, data.schema()));
  FormatWriteOptions options;
  options.row_group_rows = kRowGroupRows;
  for (int b = 0; b < data.num_batches(); b += kBatchesPerFile) {
    Table chunk(data.schema());
    for (int i = b; i < std::min(b + kBatchesPerFile, data.num_batches());
         i++) {
      chunk.AppendBatch(CompactBatch(data.batch(i)));
    }
    PHOTON_RETURN_NOT_OK(table->Append(chunk, options).status());
  }
  return table;
}

/// Generates the data, writes it as Delta tables, wires cache and catalog,
/// starts the engine and warms the cache: everything before the first
/// timed statement.
Result<std::unique_ptr<TpchEnv>> Setup(const RunConfig& cfg, bool throughput,
                                       std::unique_ptr<tpch::TpchData>* data) {
  auto env = std::make_unique<TpchEnv>();
  *data = std::make_unique<tpch::TpchData>(tpch::GenerateTpch(kScaleFactor, cfg.seed));
  ObjectStore::Options store_options;
  if (throughput) store_options.get_latency_us = kThroughputGetLatencyUs;
  env->store = std::make_unique<ObjectStore>(store_options);
  for (const auto& [name, table] : TablesOf(**data)) {
    PHOTON_ASSIGN_OR_RETURN(
        std::unique_ptr<DeltaTable> delta,
        WriteDelta(env->store.get(), std::string("tpch/") + name, *table));
    env->tables.push_back(std::move(delta));
  }
  env->data_bytes = env->store->bytes_written();

  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes =
      throughput ? env->data_bytes / 4 : 2 * env->data_bytes + (16LL << 20);
  env->cache = std::make_unique<io::BlockCache>(cache_options);
  env->prefetch_marker = std::make_unique<ThreadPool>(1);
  io::IoOptions io;
  io.cache = env->cache.get();
  io.prefetch_pool = env->prefetch_marker.get();
  // Warm the cache: scans read whole data files through it, so fetching
  // every file once leaves it as warm as a full scan would, without the
  // decode and materialization that made set-up time swing between runs.
  io::CachingStore warm(env->store.get(), io);
  auto names = TablesOf(**data);
  for (size_t i = 0; i < names.size(); i++) {
    PHOTON_RETURN_NOT_OK(
        env->catalog.RegisterDeltaTable(names[i].first, env->tables[i].get(), io));
    PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snap, env->tables[i]->Snapshot());
    env->files += static_cast<int64_t>(snap.files.size());
    for (const DeltaFileEntry& f : snap.files) {
      PHOTON_RETURN_NOT_OK(warm.Get(f.key).status());
    }
  }

  if (throughput) {
    service::ServiceOptions options;
    options.worker_threads = cfg.nproc;
    options.max_concurrent_queries = cfg.nproc;
    options.memory_limit_bytes = 1LL << 30;
    env->service = std::make_unique<service::QueryService>(options);
  } else {
    env->memory = std::make_unique<MemoryManager>(1LL << 30);
    env->driver = std::make_unique<exec::Driver>(cfg.nproc);
  }
  return env;
}

std::string OraclePath(const RunConfig& cfg) {
  if (cfg.oracle_dir.empty()) return "";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "/tpch-%s-sf%g-seed%llu.txt",
                cfg.oracle_key.c_str(), kScaleFactor,
                static_cast<unsigned long long>(cfg.seed));
  return cfg.oracle_dir + buf;
}

/// The baseline row engine's results for the 22 hand-built plans, run on
/// nproc threads, one query per thread at a time. Cached per engine
/// source, scale and seed when a cache directory is given.
Result<std::vector<Expected>> Oracle(const RunConfig& cfg,
                                     const tpch::TpchData& data) {
  std::vector<Expected> out(kQueries);
  const std::string path = OraclePath(cfg);
  if (!path.empty()) {
    std::ifstream f(path);
    int n = 0;
    while (n < kQueries && f >> out[n].rows >> out[n].checksum) n++;
    if (n == kQueries) return out;
  }
  std::atomic<int> next{0};
  std::mutex mu;
  Status first_error;
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.nproc; t++) {
    threads.emplace_back([&] {
      for (int q = next.fetch_add(1); q < kQueries; q = next.fetch_add(1)) {
        Result<Table> rows = [&]() -> Result<Table> {
          PHOTON_ASSIGN_OR_RETURN(plan::PlanPtr p,
                                  tpch::TpchQuery(q + 1, data, kScaleFactor));
          PHOTON_ASSIGN_OR_RETURN(baseline::RowOperatorPtr op,
                                  plan::CompileBaseline(p));
          return baseline::CollectAllRows(op.get());
        }();
        std::lock_guard<std::mutex> lock(mu);
        if (!rows.ok()) {
          first_error = rows.status();
          continue;
        }
        out[q] = {rows->num_rows(), TableChecksum(*rows)};
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!first_error.ok()) return first_error;
  if (!path.empty()) {
    mkdir(cfg.oracle_dir.c_str(), 0755);
    std::ofstream f(path);
    for (const Expected& e : out) f << e.rows << " " << e.checksum << "\n";
  }
  return out;
}

/// One statement's outcome, kept until the timed phase has ended so that
/// checking results stays out of every timed interval.
struct QueryRun {
  int q = 0;
  int64_t latency_ns = 0;
  int64_t exec_ns = 0;
  Status status;
  Table result{Schema()};
  std::shared_ptr<service::QuerySession> session;  // throughput only

  const Table& table() const { return session ? session->table() : result; }
};

struct Phase {
  std::vector<QueryRun> runs;
  PhaseTotals totals;
  int64_t run_cpu_ns = 0;  // CPU inside Driver::Run (power)
  int64_t peak_reserved_bytes = 0;
  io::BlockCache::Stats cache0, cache1;
  int64_t gets = 0;
  int64_t read_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t tasks = 0;
  int64_t admission_waits = 0;
  ProfileFold fold;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

std::vector<int> StreamOrder(uint64_t seed, uint64_t stream) {
  std::vector<int> order(kQueries);
  std::iota(order.begin(), order.end(), 0);
  Rng rng = MakeRng(seed, stream);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Compiles and optimizes one query, inside its spans.
Result<plan::PlanPtr> Prepare(const std::string& text,
                              const sql::Catalog& catalog, SpanLog* log,
                              int64_t root, int64_t sid) {
  Result<plan::PlanPtr> compiled = [&] {
    Span s(log, "sql.compile", root, sid);
    return sql::CompileSql(text, catalog);
  }();
  if (!compiled.ok()) return compiled.status();
  Span s(log, "opt.optimize", root, sid);
  return opt::Optimize(*compiled);
}

/// tpch_power: whole seed-shuffled streams of 22 queries through one
/// Driver until `seconds` have passed. `stream` numbers streams across
/// phases so every phase runs fresh orders.
void RunPowerPhase(TpchEnv* env, const std::vector<std::string>& texts,
                   const RunConfig& cfg, double seconds, bool traced,
                   int64_t* stream, Phase* ph) {
  ph->logs.push_back(std::make_unique<SpanLog>(0));
  SpanLog* log = traced ? ph->logs[0].get() : nullptr;
  ExecContext ctx;
  ctx.memory_manager = env->memory.get();
  ctx.expr_policy = cfg.expr_policy;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  do {
    for (int q : StreamOrder(cfg.seed, static_cast<uint64_t>((*stream)))) {
      QueryRun run;
      run.q = q;
      const int64_t sid = NextStatementId();
      const int64_t t0 = NowNs();
      obs::QueryProfile profile;
      {
        Span root(log, "statement", -1, sid);
        Result<plan::PlanPtr> p =
            Prepare(texts[q], env->catalog, log, root.id(), sid);
        if (p.ok()) {
          const int64_t c0 = ProcessCpuNs();
          const int64_t e0 = NowNs();
          Span s(log, "exec.run", root.id(), sid);
          Result<Table> out =
              env->driver->Run(*p, ctx, nullptr, traced ? &profile : nullptr);
          run.exec_ns = NowNs() - e0;
          ph->run_cpu_ns += ProcessCpuNs() - c0;
          if (out.ok()) {
            run.result = std::move(*out);
          } else {
            run.status = out.status();
          }
        } else {
          run.status = p.status();
        }
      }
      run.latency_ns = NowNs() - t0;
      if (traced) ph->fold.Add(profile);
      ph->runs.push_back(std::move(run));
    }
    if (traced) ph->fold.AddJoinBuildFromTracer();
    (*stream)++;
  } while (NowNs() < deadline);
}

/// tpch_throughput: nproc closed-loop clients, each submitting its own
/// seed-shuffled, staggered orders to the shared QueryService until
/// `seconds` have passed.
void RunThroughputPhase(TpchEnv* env, const std::vector<std::string>& texts,
                        const RunConfig& cfg, double seconds, bool traced,
                        int64_t* stream, Phase* ph) {
  const int clients = cfg.nproc;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<QueryRun>> per_client(clients);
  std::vector<ProfileFold> folds(clients);
  for (int c = 0; c < clients; c++) {
    ph->logs.push_back(std::make_unique<SpanLog>(c));
  }
  const int64_t first_stream = *stream;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([&, c] {
      SpanLog* log = traced ? ph->logs[c].get() : nullptr;
      service::SessionOptions options;
      options.memory_bytes =
          env->service->options().memory_limit_bytes / clients;
      for (int64_t round = 0; NowNs() < deadline; round++) {
        std::vector<int> order = StreamOrder(
            cfg.seed, static_cast<uint64_t>((first_stream + round) * clients + c));
        // Stagger: client c starts its order c/clients of the way in.
        std::rotate(order.begin(), order.begin() + c * kQueries / clients,
                    order.end());
        for (int q : order) {
          if (NowNs() >= deadline) break;
          QueryRun run;
          run.q = q;
          const int64_t sid = NextStatementId();
          Span root(log, "statement", -1, sid);
          Result<plan::PlanPtr> p =
              Prepare(texts[q], env->catalog, log, root.id(), sid);
          const int64_t t0 = NowNs();
          if (p.ok()) {
            Span s(log, "service.wait", root.id(), sid);
            run.session = env->service->Submit(*p, options);
            run.status = run.session->Wait();
            run.exec_ns = run.session->profile().wall_ns;
          } else {
            run.status = p.status();
          }
          run.latency_ns = NowNs() - t0;
          if (traced && run.session) folds[c].Add(run.session->profile());
          per_client[c].push_back(std::move(run));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t rounds = 0;
  for (int c = 0; c < clients; c++) {
    rounds = std::max<int64_t>(
        rounds, (static_cast<int64_t>(per_client[c].size()) + kQueries - 1) /
                    kQueries);
    for (QueryRun& r : per_client[c]) ph->runs.push_back(std::move(r));
    ph->fold.Merge(folds[c]);
  }
  if (traced) ph->fold.AddJoinBuildFromTracer();
  *stream += rounds;
}

/// Runs one timed phase and snapshots the layer counters around it.
Phase TimedPhase(TpchEnv* env, const std::vector<std::string>& texts,
                 const RunConfig& cfg, bool throughput, double seconds,
                 bool traced, int64_t* stream) {
  Phase ph;
  // Hand freed set-up and oracle memory back, so RSS reflects live data.
  malloc_trim(0);
  MemoryManager* mm =
      throughput ? env->service->memory_manager() : env->memory.get();
  obs::Tracer::Reset();
  obs::Tracer::SetEnabled(traced);
  ph.cache0 = env->cache->stats();
  const int64_t gets0 = env->store->num_gets();
  const int64_t read0 = env->store->bytes_read();
  const int64_t spill0 = mm->spilled_bytes();
  const int64_t tasks0 =
      throughput ? env->service->stats().tasks_executed : 0;
  const int64_t waits0 =
      throughput ? env->service->admission().waited_total() : 0;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = NowNs();
  {
    PeakSampler sampler(mm);
    if (throughput) {
      RunThroughputPhase(env, texts, cfg, seconds, traced, stream, &ph);
    } else {
      RunPowerPhase(env, texts, cfg, seconds, traced, stream, &ph);
    }
    ph.totals.peak_rss_bytes = sampler.peak_rss_bytes();
    ph.peak_reserved_bytes = sampler.peak_reserved_bytes();
  }
  ph.totals.wall_ns = NowNs() - wall0;
  ph.totals.cpu_ns = ProcessCpuNs() - cpu0;
  obs::Tracer::SetEnabled(false);
  ph.cache1 = env->cache->stats();
  ph.gets = env->store->num_gets() - gets0;
  ph.read_bytes = env->store->bytes_read() - read0;
  ph.spill_bytes = mm->spilled_bytes() - spill0;
  ph.tasks = throughput ? env->service->stats().tasks_executed - tasks0
                        : ph.fold.tasks;
  ph.admission_waits =
      throughput ? env->service->admission().waited_total() - waits0 : 0;
  ph.totals.num_kinds = kQueries;
  ph.totals.num_read_kinds = kQueries;
  for (int q = 1; q <= kQueries; q++) {
    ph.totals.kind_names.push_back(QueryName(q));
  }
  for (const QueryRun& r : ph.runs) {
    ph.totals.stmts.push_back({r.q, true, r.status.ok(), r.latency_ns});
  }
  return ph;
}

/// Checks every result of `ph` against the oracle.
void Check(const Phase& ph, const std::vector<Expected>& expected,
           RunResult* r) {
  std::vector<int> seen(kQueries, 0);
  for (const QueryRun& run : ph.runs) {
    if (!run.status.ok()) continue;  // counted in `failed`
    seen[run.q]++;
    const Table& t = run.table();
    const Expected& e = expected[run.q];
    if (t.num_rows() != e.rows || TableChecksum(t) != e.checksum) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "Q%d: %lld rows, checksum %llu; baseline %lld rows, "
                    "checksum %llu",
                    run.q + 1, static_cast<long long>(t.num_rows()),
                    static_cast<unsigned long long>(TableChecksum(t)),
                    static_cast<long long>(e.rows),
                    static_cast<unsigned long long>(e.checksum));
      r->Fail(buf);
    }
  }
  for (int q = 0; q < kQueries; q++) {
    if (seen[q] == 0) r->Fail(QueryName(q + 1) + " never completed");
  }
}

}  // namespace

RunResult RunTpch(const RunConfig& cfg) {
  RunResult r;
  const bool throughput = cfg.workload == "tpch_throughput";
  std::vector<std::string> texts;
  for (int q = 1; q <= kQueries; q++) {
    Result<std::string> text = tpch::TpchSqlText(q, kScaleFactor);
    if (!text.ok()) {
      r.Fail(QueryName(q) + " text: " + text.status().ToString());
      return r;
    }
    texts.push_back(*text);
  }

  // Set up several times, half before the timed phase and half after it,
  // so that setup_s, their median, samples the machine at both ends of the
  // run rather than in the few seconds before it. Each phase runs on the
  // last set-up before it.
  std::vector<double> setup_s;
  std::unique_ptr<TpchEnv> env;
  std::unique_ptr<tpch::TpchData> data;
  auto set_up = [&](int reps) {
    for (int i = 0; i < reps; i++) {
      env.reset();
      data.reset();
      const int64_t t0 = NowNs();
      Result<std::unique_ptr<TpchEnv>> e = Setup(cfg, throughput, &data);
      if (!e.ok()) {
        r.Fail("setup: " + e.status().ToString());
        return false;
      }
      env = std::move(*e);
      setup_s.push_back((NowNs() - t0) / 1e9);
    }
    return true;
  };
  if (!set_up(kSetups / 2)) return r;
  Result<std::vector<Expected>> expected = Oracle(cfg, *data);
  if (!expected.ok()) {
    r.Fail("baseline oracle: " + expected.status().ToString());
    return r;
  }
  data.reset();

  int64_t stream = 0;
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase plain = TimedPhase(env.get(), texts, cfg, throughput, untraced_s,
                           /*traced=*/false, &stream);
  Check(plain, *expected, &r);
  if (!set_up(kSetups - kSetups / 2)) return r;
  data.reset();
  AddEndToEnd(setup_s, plain.totals, &r);

  if (cfg.trace) {
    Phase traced = TimedPhase(env.get(), texts, cfg, throughput,
                              cfg.seconds / 2, /*traced=*/true, &stream);
    Check(traced, *expected, &r);
    r.attempted += static_cast<int64_t>(traced.totals.stmts.size());
    for (const StmtRecord& s : traced.totals.stmts) r.failed += s.ok ? 0 : 1;
    LayerStats l;
    l.compile_us = SpanDurationsUs(traced.logs, "sql.compile");
    l.optimize_us = SpanDurationsUs(traced.logs, "opt.optimize");
    l.statements = static_cast<int64_t>(traced.runs.size());
    l.streams = static_cast<double>(l.statements) / kQueries;
    std::vector<double> queue_ms;
    for (const QueryRun& run : traced.runs) {
      l.exec_wall_ns += run.exec_ns;
      if (run.session) queue_ms.push_back((run.latency_ns - run.exec_ns) / 1e6);
    }
    l.queue_ms = queue_ms;
    l.cpu_utilization =
        throughput
            ? static_cast<double>(traced.totals.cpu_ns) /
                  (static_cast<double>(traced.totals.wall_ns) * cfg.nproc)
            : static_cast<double>(traced.run_cpu_ns) /
                  (static_cast<double>(l.exec_wall_ns) * cfg.nproc);
    l.morsel_tasks = traced.tasks;
    l.fold = traced.fold;
    l.peak_reserved_bytes = traced.peak_reserved_bytes;
    l.spill_bytes = traced.spill_bytes;
    l.cache_hits = traced.cache1.hits - traced.cache0.hits;
    l.cache_misses = traced.cache1.misses - traced.cache0.misses;
    l.cache_evictions = traced.cache1.evictions - traced.cache0.evictions;
    l.store_gets = traced.gets;
    l.store_read_bytes = traced.read_bytes;
    l.live_files = env->files;
    l.phase_s = traced.totals.wall_ns / 1e9;
    l.admission_waits = traced.admission_waits;
    int64_t n = 0;
    const double plain_g = plain.totals.KindGeomeanMs(0, kQueries, &n);
    const double traced_g = traced.totals.KindGeomeanMs(0, kQueries, &n);
    l.trace_overhead_pct = plain_g > 0 ? (traced_g / plain_g - 1) * 100 : 0;
    AddLayerMetrics(l, &r);
    if (!cfg.out_dir.empty()) {
      WriteSpans(traced.logs, cfg.out_dir + "/spans-" + cfg.workload + "-seed" +
                                  std::to_string(cfg.seed) + ".json");
    }
  }

  r.Config("scale_factor", kScaleFactor);
  r.Config("clients", static_cast<double>(throughput ? cfg.nproc : 1));
  r.Config("workers", static_cast<double>(cfg.nproc));
  r.Config("data_mb", env->data_bytes / 1e6);
  r.Config("data_files", static_cast<double>(env->files));
  r.Config("cache_mb", env->cache->capacity_bytes() / 1e6);
  r.Config("store_get_latency_us",
           static_cast<double>(throughput ? kThroughputGetLatencyUs : 0));
  return r;
}

}  // namespace lakebench
