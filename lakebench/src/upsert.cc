// lakehouse_upsert: writes beside reads on one Delta table.
//
// Two writer clients submit SQL MERGE upserts (2000-row batches, half
// matching keys clustered in a key window, half new keys) and, every fifth
// statement, a key-range DELETE, through QueryService::SubmitWrite. One
// reader client runs SQL aggregates over the latest snapshot, and an
// exec::Compactor coalesces small files in the background on the service's
// scheduler. All clients run closed loops.
//
// Correctness gate: no log version is claimed twice and every version is
// claimed by a known transaction; replaying the committed statements in
// version order on an in-memory model reproduces each statement's matched,
// inserted and deleted counts and the final snapshot row for row (which
// also proves row conservation); each reader's count equals the row count
// of the snapshot it read.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "exec/compactor.h"
#include "exec/dml.h"
#include "io/block_cache.h"
#include "io/caching_store.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "service/query_service.h"
#include "sql/analyzer.h"
#include "sql/catalog.h"
#include "storage/delta.h"
#include "storage/object_store.h"

namespace lakebench {
namespace {

using namespace photon;

constexpr char kPath[] = "lake/kv";
/// Set-ups per run, half before the timed phase and half after it.
constexpr int kSetups = 20;
constexpr int64_t kSeedRows = 200000;
constexpr int64_t kSeedFileRows = 16384;
constexpr int64_t kMatchedPerBatch = 1000;
constexpr int64_t kNewPerBatch = 1000;
/// Matched keys are every 4th key of a window, so a MERGE touches one or
/// two seed files rather than all of them.
constexpr int64_t kMatchStride = 4;
constexpr int64_t kDeleteRange = 500;
constexpr int kDeleteEvery = 5;
constexpr int kWriters = 2;
constexpr int64_t kCategories = 16;
constexpr int64_t kRowBytes = 3 * sizeof(int64_t);

enum Kind { kReadTotal, kReadByCategory, kMerge, kDelete, kNumKinds };
constexpr int kNumReadKinds = 2;

const char* const kReadSql[kNumReadKinds] = {
    "SELECT count(*) AS n, sum(val) AS s FROM kv",
    "SELECT cat, count(*) AS n, sum(val) AS s FROM kv GROUP BY cat"};
constexpr char kMergeSql[] =
    "MERGE INTO kv USING src AS s ON kv.id = s.id "
    "WHEN MATCHED THEN UPDATE SET val = s.val "
    "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.cat, s.val)";

Schema KvSchema() {
  return Schema({Field("id", DataType::Int64()), Field("cat", DataType::Int64()),
                 Field("val", DataType::Int64())});
}

int64_t SeedVal(uint64_t seed, int64_t id) {
  return static_cast<int64_t>((seed * 0x9E3779B97F4A7C15ULL) ^
                              static_cast<uint64_t>(id * 2654435761LL)) %
         1000000;
}

struct UpsertEnv {
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<io::BlockCache> cache;
  std::unique_ptr<ThreadPool> prefetch_marker;
  io::IoOptions io;
  /// The compactor's handle; clients open their own.
  std::unique_ptr<DeltaTable> table;
  std::unique_ptr<service::QueryService> service;
  int64_t seed_version = 0;
};

Result<std::unique_ptr<UpsertEnv>> Setup(const RunConfig& cfg) {
  auto env = std::make_unique<UpsertEnv>();
  env->store = std::make_unique<ObjectStore>();
  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes = 64LL << 20;
  env->cache = std::make_unique<io::BlockCache>(cache_options);
  env->prefetch_marker = std::make_unique<ThreadPool>(1);
  env->io.cache = env->cache.get();
  env->io.prefetch_pool = env->prefetch_marker.get();
  PHOTON_ASSIGN_OR_RETURN(env->table,
                          DeltaTable::Create(env->store.get(), kPath, KvSchema()));
  env->table->SetIoCache(env->cache.get());
  for (int64_t lo = 0; lo < kSeedRows; lo += kSeedFileRows) {
    TableBuilder b(KvSchema());
    for (int64_t id = lo; id < std::min(lo + kSeedFileRows, kSeedRows); id++) {
      b.AppendRow({Value::Int64(id), Value::Int64(id % kCategories),
                   Value::Int64(SeedVal(cfg.seed, id))});
    }
    PHOTON_ASSIGN_OR_RETURN(env->seed_version, env->table->Append(b.Finish()));
  }
  service::ServiceOptions options;
  options.worker_threads = cfg.nproc;
  options.max_concurrent_queries = cfg.nproc;
  options.memory_limit_bytes = 1LL << 30;
  env->service = std::make_unique<service::QueryService>(options);
  // Warm the cache by fetching every data file once (scans read whole
  // files through it).
  PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snap, env->table->Snapshot());
  io::CachingStore warm(env->store.get(), env->io);
  for (const DeltaFileEntry& f : snap.files) {
    PHOTON_RETURN_NOT_OK(warm.Get(f.key).status());
  }
  return env;
}

/// A committed (or attempted) write statement, kept for the replay.
struct WriteRun {
  Kind kind = kMerge;
  int64_t latency_ns = 0;
  Status status;
  dml::DmlResult result;
  std::vector<std::pair<int64_t, int64_t>> rows;  // MERGE source (id, val)
  int64_t lo = 0, hi = 0;                         // DELETE range
};

struct ReadRun {
  Kind kind = kReadTotal;
  int64_t latency_ns = 0;
  int64_t wait_ns = 0;
  int64_t snapshot_rows = 0;
  Status status;
  std::shared_ptr<service::QuerySession> session;
};

struct Phase {
  std::vector<WriteRun> writes;
  std::vector<ReadRun> reads;
  std::vector<int64_t> compactor_versions;
  exec::Compactor::Stats compactor;
  PhaseTotals totals;
  ProfileFold fold;
  std::vector<std::unique_ptr<SpanLog>> logs;
  int64_t peak_reserved_bytes = 0;
  int64_t spill_bytes = 0;
  io::BlockCache::Stats cache0, cache1;
  int64_t gets = 0, read_bytes = 0, written_bytes = 0;
  int64_t tasks = 0, admission_waits = 0;
};

/// One writer's statement schedule, drawn from the seed.
class WriterSchedule {
 public:
  WriterSchedule(uint64_t seed, int writer)
      : rng_(MakeRng(seed, 100 + writer)),
        next_new_(1000000000LL + writer * 100000000LL) {}

  /// Fills `w` with the next statement and returns its SQL text;
  /// `batch` receives a MERGE's source rows.
  std::string Next(WriteRun* w, Table* batch) {
    if (++count_ % kDeleteEvery == 0) {
      w->kind = kDelete;
      w->lo = Uniform(0, kSeedRows - kDeleteRange);
      w->hi = w->lo + kDeleteRange;
      return "DELETE FROM kv WHERE id >= " + std::to_string(w->lo) +
             " AND id < " + std::to_string(w->hi);
    }
    w->kind = kMerge;
    const int64_t start =
        Uniform(0, kSeedRows - kMatchedPerBatch * kMatchStride);
    for (int64_t i = 0; i < kMatchedPerBatch; i++) {
      w->rows.emplace_back(start + i * kMatchStride, Uniform(0, 1000000));
    }
    for (int64_t i = 0; i < kNewPerBatch; i++) {
      w->rows.emplace_back(next_new_++, Uniform(0, 1000000));
    }
    TableBuilder b(KvSchema());
    for (const auto& [id, val] : w->rows) {
      b.AppendRow({Value::Int64(id), Value::Int64(id % kCategories),
                   Value::Int64(val)});
    }
    *batch = b.Finish();
    return kMergeSql;
  }

 private:
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng_() % static_cast<uint64_t>(hi - lo));
  }

  Rng rng_;
  int64_t next_new_;
  int64_t count_ = 0;
};

void WriterLoop(UpsertEnv* env, WriterSchedule* schedule, int64_t deadline,
                SpanLog* log, std::vector<WriteRun>* out) {
  Result<std::unique_ptr<DeltaTable>> handle =
      DeltaTable::Open(env->store.get(), kPath);
  PHOTON_CHECK(handle.ok());
  (*handle)->SetIoCache(env->cache.get());
  sql::Catalog catalog;
  PHOTON_CHECK(catalog.RegisterDeltaTable("kv", handle->get(), env->io).ok());
  while (NowNs() < deadline) {
    WriteRun w;
    Table batch{Schema()};
    const std::string text = schedule->Next(&w, &batch);
    catalog.RegisterTable("src", &batch);
    const int64_t sid = NextStatementId();
    const int64_t t0 = NowNs();
    {
      Span root(log, "statement", -1, sid);
      Result<sql::CompiledStatement> stmt = [&] {
        Span s(log, "sql.compile", root.id(), sid);
        return sql::CompileStatement(text, catalog);
      }();
      if (!stmt.ok()) {
        w.status = stmt.status();
      } else {
        if (stmt->kind == sql::StatementKind::kMerge) {
          Span s(log, "opt.optimize", root.id(), sid);
          stmt->merge.source = opt::Optimize(stmt->merge.source);
        }
        Span wait(log, "service.wait", root.id(), sid);
        const int64_t wait_id = wait.id();
        dml::DmlResult* result = &w.result;
        const sql::CompiledStatement& st = *stmt;
        auto session = env->service->SubmitWrite(
            [&st, result, log, wait_id, sid](
                exec::Driver* driver, const ExecContext& ctx) -> Result<Table> {
              Span s(log, "exec.dml", wait_id, sid);
              dml::DmlOptions options;
              options.io = st.io;
              options.max_retries = 1000;
              Result<dml::DmlResult> r =
                  st.kind == sql::StatementKind::kDelete
                      ? dml::ExecuteDelete(st.table, st.predicate, driver, ctx,
                                           options)
                      : dml::ExecuteMerge(st.table, st.merge, driver, ctx,
                                          options);
              if (!r.ok()) return r.status();
              *result = *r;
              return Table(Schema());
            });
        w.status = session->Wait();
      }
    }
    w.latency_ns = NowNs() - t0;
    out->push_back(std::move(w));
  }
}

void ReaderLoop(UpsertEnv* env, int64_t deadline, SpanLog* log,
                std::vector<ReadRun>* out) {
  Result<std::unique_ptr<DeltaTable>> handle =
      DeltaTable::Open(env->store.get(), kPath);
  PHOTON_CHECK(handle.ok());
  (*handle)->SetIoCache(env->cache.get());
  sql::Catalog catalog;
  for (int64_t i = 0; NowNs() < deadline; i++) {
    ReadRun r;
    r.kind = static_cast<Kind>(i % kNumReadKinds);
    const int64_t sid = NextStatementId();
    const int64_t t0 = NowNs();
    {
      Span root(log, "statement", -1, sid);
      Status st = [&] {
        Span s(log, "storage.snapshot", root.id(), sid);
        return catalog.RegisterDeltaTable("kv", handle->get(), env->io);
      }();
      Result<plan::PlanPtr> p = [&]() -> Result<plan::PlanPtr> {
        if (!st.ok()) return st;
        r.snapshot_rows = (*catalog.Lookup("kv"))->snapshot.num_rows();
        Span s(log, "sql.compile", root.id(), sid);
        return sql::CompileSql(kReadSql[r.kind], catalog);
      }();
      if (p.ok()) {
        {
          Span s(log, "opt.optimize", root.id(), sid);
          p = opt::Optimize(*p);
        }
        Span s(log, "service.wait", root.id(), sid);
        const int64_t w0 = NowNs();
        r.session = env->service->Submit(*p);
        r.status = r.session->Wait();
        r.wait_ns = NowNs() - w0;
      } else {
        r.status = p.status();
      }
    }
    r.latency_ns = NowNs() - t0;
    out->push_back(std::move(r));
  }
}

Phase TimedPhase(UpsertEnv* env,
                 std::vector<WriterSchedule>* schedules, double seconds,
                 bool traced) {
  Phase ph;
  // Hand freed set-up memory back, so RSS reflects live data.
  malloc_trim(0);
  for (int c = 0; c <= kWriters; c++) {
    ph.logs.push_back(std::make_unique<SpanLog>(c));
  }
  MemoryManager* mm = env->service->memory_manager();
  obs::Tracer::Reset();
  obs::Tracer::SetEnabled(traced);
  ph.cache0 = env->cache->stats();
  const int64_t gets0 = env->store->num_gets();
  const int64_t read0 = env->store->bytes_read();
  const int64_t written0 = env->store->bytes_written();
  const int64_t spill0 = mm->spilled_bytes();
  const int64_t tasks0 = env->service->stats().tasks_executed;
  const int64_t waits0 = env->service->admission().waited_total();

  exec::Compactor::Options copts;
  copts.small_file_rows = 4096;
  copts.target_file_rows = 65536;
  copts.interval_ms = 50;
  copts.io = env->io;
  exec::Compactor compactor(env->table.get(), copts,
                            &env->service->scheduler());
  std::mutex mu;
  compactor.set_commit_listener([&](int64_t v) {
    std::lock_guard<std::mutex> lock(mu);
    ph.compactor_versions.push_back(v);
  });

  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = NowNs();
  const int64_t deadline = wall0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<WriteRun>> writes(kWriters);
  {
    PeakSampler sampler(mm);
    compactor.Start();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; w++) {
      threads.emplace_back([&, w] {
        WriterLoop(env, &(*schedules)[w], deadline,
                   traced ? ph.logs[w].get() : nullptr, &writes[w]);
      });
    }
    threads.emplace_back([&] {
      ReaderLoop(env, deadline, traced ? ph.logs[kWriters].get() : nullptr,
                 &ph.reads);
    });
    for (auto& t : threads) t.join();
    compactor.Stop();
    ph.totals.peak_rss_bytes = sampler.peak_rss_bytes();
    ph.peak_reserved_bytes = sampler.peak_reserved_bytes();
  }
  ph.totals.wall_ns = NowNs() - wall0;
  ph.totals.cpu_ns = ProcessCpuNs() - cpu0;
  obs::Tracer::SetEnabled(false);
  ph.compactor = compactor.stats();
  ph.cache1 = env->cache->stats();
  ph.gets = env->store->num_gets() - gets0;
  ph.read_bytes = env->store->bytes_read() - read0;
  ph.written_bytes = env->store->bytes_written() - written0;
  ph.spill_bytes = mm->spilled_bytes() - spill0;
  ph.tasks = env->service->stats().tasks_executed - tasks0;
  ph.admission_waits = env->service->admission().waited_total() - waits0;
  for (auto& per : writes) {
    for (WriteRun& w : per) ph.writes.push_back(std::move(w));
  }

  ph.totals.num_kinds = kNumKinds;
  ph.totals.num_read_kinds = kNumReadKinds;
  ph.totals.kind_names = {"read_total", "read_by_category", "merge", "delete"};
  for (const ReadRun& r : ph.reads) {
    ph.totals.stmts.push_back({r.kind, true, r.status.ok(), r.latency_ns});
    if (traced && r.session) ph.fold.Add(r.session->profile());
  }
  for (const WriteRun& w : ph.writes) {
    ph.totals.stmts.push_back({w.kind, false, w.status.ok(), w.latency_ns});
  }
  if (traced) ph.fold.AddJoinBuildFromTracer();
  return ph;
}

/// A statement commits a version unless it changed nothing.
bool Committed(const WriteRun& w) {
  return w.status.ok() &&
         (w.result.rows_affected > 0 || w.result.rows_inserted > 0);
}

void CheckReads(const Phase& ph, RunResult* r) {
  for (const ReadRun& read : ph.reads) {
    if (!read.status.ok()) continue;
    const Table& t = read.session->table();
    int64_t count = 0;
    for (int64_t row = 0; row < t.num_rows(); row++) {
      count += t.GetRow(row)[read.kind == kReadTotal ? 0 : 1].i64();
    }
    if (count != read.snapshot_rows) {
      r->Fail("reader counted " + std::to_string(count) +
              " rows in a snapshot of " + std::to_string(read.snapshot_rows));
    }
  }
}

/// Version uniqueness and completeness, the serial replay, and the final
/// snapshot against the replayed model.
void CheckWrites(UpsertEnv* env, const RunConfig& cfg, const Phase& ph,
                 RunResult* r) {
  std::map<int64_t, const WriteRun*> by_version;
  std::set<int64_t> versions;
  auto claim = [&](int64_t v) {
    if (!versions.insert(v).second) {
      r->Fail("version " + std::to_string(v) + " claimed twice");
    }
  };
  for (const WriteRun& w : ph.writes) {
    if (!Committed(w)) continue;
    claim(w.result.version);
    by_version[w.result.version] = &w;
  }
  for (int64_t v : ph.compactor_versions) claim(v);
  Result<DeltaSnapshot> snap = env->table->Snapshot();
  if (!snap.ok()) {
    r->Fail("final snapshot: " + snap.status().ToString());
    return;
  }
  const int64_t expected_claims = snap->version - env->seed_version;
  if (static_cast<int64_t>(versions.size()) != expected_claims ||
      (!versions.empty() && (*versions.begin() != env->seed_version + 1 ||
                             *versions.rbegin() != snap->version))) {
    r->Fail("versions " + std::to_string(env->seed_version + 1) + ".." +
            std::to_string(snap->version) + " not each claimed once (" +
            std::to_string(versions.size()) + " claims)");
  }

  std::unordered_map<int64_t, int64_t> model;
  model.reserve(kSeedRows * 2);
  for (int64_t id = 0; id < kSeedRows; id++) model[id] = SeedVal(cfg.seed, id);
  int64_t inserted = 0;
  int64_t deleted = 0;
  for (const auto& [version, w] : by_version) {
    int64_t matched = 0;
    int64_t added = 0;
    if (w->kind == kMerge) {
      for (const auto& [id, val] : w->rows) {
        auto [it, fresh] = model.insert_or_assign(id, val);
        (fresh ? added : matched)++;
      }
    } else {
      for (int64_t id = w->lo; id < w->hi; id++) matched += model.erase(id);
    }
    if (matched != w->result.rows_affected || added != w->result.rows_inserted) {
      r->Fail("replay of version " + std::to_string(version) + ": " +
              std::to_string(matched) + " matched/" + std::to_string(added) +
              " inserted, engine reported " +
              std::to_string(w->result.rows_affected) + "/" +
              std::to_string(w->result.rows_inserted));
    }
    inserted += w->result.rows_inserted;
    if (w->kind == kDelete) deleted += w->result.rows_affected;
  }

  exec::Driver driver(1, 1);
  Result<Table> final_rows =
      driver.RunSingleTask(plan::DeltaScan(env->store.get(), *snap));
  if (!final_rows.ok()) {
    r->Fail("final scan: " + final_rows.status().ToString());
    return;
  }
  if (final_rows->num_rows() != kSeedRows + inserted - deleted) {
    r->Fail("row conservation: " + std::to_string(final_rows->num_rows()) +
            " rows != " + std::to_string(kSeedRows) + " + " +
            std::to_string(inserted) + " inserted - " +
            std::to_string(deleted) + " deleted");
  }
  int64_t mismatched = 0;
  for (const std::vector<Value>& row : final_rows->ToRows()) {
    auto it = model.find(row[0].i64());
    if (it == model.end() || it->second != row[2].i64() ||
        row[1].i64() != row[0].i64() % kCategories) {
      mismatched++;
    }
  }
  if (mismatched > 0 ||
      final_rows->num_rows() != static_cast<int64_t>(model.size())) {
    r->Fail("final snapshot differs from the serial replay: " +
            std::to_string(mismatched) + " rows differ, " +
            std::to_string(final_rows->num_rows()) + " rows vs " +
            std::to_string(model.size()));
  }
}

/// Sets up `reps` times, keeping the last set-up; appends each
/// set-up's duration to `setup_s`.
std::unique_ptr<UpsertEnv> SetupRepeated(const RunConfig& cfg, int reps,
                                         std::vector<double>* setup_s,
                                         RunResult* r) {
  std::unique_ptr<UpsertEnv> env;
  for (int i = 0; i < reps; i++) {
    env.reset();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<UpsertEnv>> e = Setup(cfg);
    if (!e.ok()) {
      r->Fail("setup: " + e.status().ToString());
      return nullptr;
    }
    env = std::move(*e);
    setup_s->push_back((NowNs() - t0) / 1e9);
  }
  return env;
}

}  // namespace

RunResult RunUpsert(const RunConfig& cfg) {
  RunResult r;
  // Set up several times, half before the timed phase and half after it,
  // so that setup_s, their median, samples the machine at both ends of the
  // run rather than in the moment before it. The traced phase runs on the
  // last set-up, with the same schedule, so both phases see the same table
  // and log length.
  std::vector<double> setup_s;
  std::unique_ptr<UpsertEnv> env =
      SetupRepeated(cfg, kSetups / 2, &setup_s, &r);
  if (env == nullptr) return r;
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<WriterSchedule> schedules;
  for (int w = 0; w < kWriters; w++) schedules.emplace_back(cfg.seed, w);
  Phase plain = TimedPhase(env.get(), &schedules, untraced_s, false);
  CheckReads(plain, &r);
  CheckWrites(env.get(), cfg, plain, &r);
  env.reset();
  env = SetupRepeated(cfg, kSetups - kSetups / 2, &setup_s, &r);
  if (env == nullptr) return r;
  AddEndToEnd(setup_s, plain.totals, &r);

  if (cfg.trace) {
    schedules.clear();
    for (int w = 0; w < kWriters; w++) schedules.emplace_back(cfg.seed, w);
    Phase traced = TimedPhase(env.get(), &schedules, cfg.seconds / 2, true);
    CheckReads(traced, &r);
    CheckWrites(env.get(), cfg, traced, &r);
    r.attempted += static_cast<int64_t>(traced.totals.stmts.size());
    for (const StmtRecord& s : traced.totals.stmts) r.failed += s.ok ? 0 : 1;
    LayerStats l;
    l.compile_us = SpanDurationsUs(traced.logs, "sql.compile");
    l.optimize_us = SpanDurationsUs(traced.logs, "opt.optimize");
    l.statements = static_cast<int64_t>(traced.totals.stmts.size());
    l.streams = static_cast<double>(traced.reads.size()) / kNumReadKinds;
    for (const ReadRun& read : traced.reads) {
      if (!read.session) continue;
      l.exec_wall_ns += read.session->profile().wall_ns;
      l.queue_ms.push_back(
          (read.wait_ns - read.session->profile().wall_ns) / 1e6);
    }
    l.cpu_utilization = static_cast<double>(traced.totals.cpu_ns) /
                        (static_cast<double>(traced.totals.wall_ns) * cfg.nproc);
    l.morsel_tasks = traced.tasks;
    l.fold = traced.fold;
    l.peak_reserved_bytes = traced.peak_reserved_bytes;
    l.spill_bytes = traced.spill_bytes;
    l.cache_hits = traced.cache1.hits - traced.cache0.hits;
    l.cache_misses = traced.cache1.misses - traced.cache0.misses;
    l.cache_evictions = traced.cache1.evictions - traced.cache0.evictions;
    l.store_gets = traced.gets;
    l.store_read_bytes = traced.read_bytes;
    l.store_written_bytes = traced.written_bytes;
    l.phase_s = traced.totals.wall_ns / 1e9;
    for (const WriteRun& w : traced.writes) {
      if (!w.status.ok()) continue;
      l.commit_ms.push_back(w.latency_ns / 1e6);
      l.user_written_bytes += static_cast<int64_t>(w.rows.size()) * kRowBytes;
      l.commits += Committed(w) ? 1 : 0;
      l.commit_conflicts += w.result.conflicts_retried;
      l.dml_files_rewritten += w.result.files_rewritten;
      l.dml_files_pruned += w.result.files_pruned;
    }
    l.commits += traced.compactor.commits;
    l.commit_conflicts += traced.compactor.conflicts;
    l.compactor_files = traced.compactor.files_compacted;
    Result<DeltaSnapshot> snap = env->table->Snapshot();
    l.live_files = snap.ok() ? static_cast<int64_t>(snap->files.size()) : 0;
    l.admission_waits = traced.admission_waits;
    int64_t n = 0;
    const double plain_g = plain.totals.KindGeomeanMs(0, kNumReadKinds, &n);
    const double traced_g = traced.totals.KindGeomeanMs(0, kNumReadKinds, &n);
    l.trace_overhead_pct = plain_g > 0 ? (traced_g / plain_g - 1) * 100 : 0;
    AddLayerMetrics(l, &r);
    if (!cfg.out_dir.empty()) {
      WriteSpans(traced.logs, cfg.out_dir + "/spans-" + cfg.workload +
                                  "-seed" + std::to_string(cfg.seed) + ".json");
    }
  }

  r.Config("seed_rows", static_cast<double>(kSeedRows));
  r.Config("writers", static_cast<double>(kWriters));
  r.Config("readers", 1.0);
  r.Config("workers", static_cast<double>(cfg.nproc));
  r.Config("merge_batch_rows",
           static_cast<double>(kMatchedPerBatch + kNewPerBatch));
  r.Config("delete_every", static_cast<double>(kDeleteEvery));
  return r;
}

}  // namespace lakebench
