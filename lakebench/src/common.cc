#include "common.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "obs/trace.h"

namespace lakebench {

using photon::obs::Metric;
using photon::obs::ProfileNode;

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

namespace {

/// The kernel's resident-set high-water mark of this process, in bytes.
int64_t RssHighWaterBytes() {
  std::ifstream f("/proc/self/status");
  std::string key;
  int64_t kb = 0;
  while (f >> key) {
    if (key == "VmHWM:") {
      f >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

}  // namespace

PeakSampler::PeakSampler(const photon::MemoryManager* mm) : mm_(mm) {
  // Restart the kernel's high-water mark at the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
  Sample();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Sample();
    }
  });
}

PeakSampler::~PeakSampler() {
  stop_.store(true);
  thread_.join();
}

int64_t PeakSampler::peak_rss_bytes() const { return RssHighWaterBytes(); }

void PeakSampler::Sample() {
  if (mm_ != nullptr) {
    peak_reserved_.store(std::max(peak_reserved_.load(), mm_->reserved()));
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / v.size());
}

Rng MakeRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream),
                    static_cast<uint32_t>(stream >> 32)};
  return Rng(seq);
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t stmt) {
  SpanRec s;
  s.name = name;
  s.id = base_ + static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.stmt = stmt;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return s.id;
}

void SpanLog::End(int64_t id) { spans_[id - base_].end_ns = NowNs(); }

std::vector<double> SpanDurationsUs(
    const std::vector<std::unique_ptr<SpanLog>>& logs, const char* name) {
  std::vector<double> out;
  for (const auto& log : logs) {
    for (const SpanRec& s : log->spans()) {
      if (std::string(s.name) == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool WriteSpans(const std::vector<std::unique_ptr<SpanLog>>& logs,
                const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  bool first = true;
  for (const auto& log : logs) {
    for (const SpanRec& s : log->spans()) {
      f << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"stmt\":" << s.stmt << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
      first = false;
    }
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

int64_t NextStatementId() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1);
}

const char* OpClassName(int c) {
  static const char* kNames[kNumOpClasses] = {
      "scan",      "expr",       "agg_partial", "agg_final",
      "join_build", "join_probe", "sort",        "other"};
  return kNames[c];
}

namespace {

OpClass ClassOf(const std::string& name) {
  if (name == "DeltaScan" || name == "TableScan" || name == "StageScan") {
    return kScan;
  }
  if (name == "Filter" || name == "Project" || name == "FusedFilterProject") {
    return kExpr;
  }
  if (name == "HashAggregatePartial" || name == "HashAggregate") {
    return kAggPartial;
  }
  if (name == "HashAggregateFinal") return kAggFinal;
  if (name == "HashJoin") return kJoinProbe;
  if (name == "Sort" || name == "SortMerge") return kSort;
  return kOther;
}

void FoldNode(const ProfileNode& n, bool stage_top, ProfileFold* f) {
  int64_t wall = n.Sum(Metric::kWallNs);
  int64_t children_wall = 0;
  for (const ProfileNode& c : n.children) {
    if (c.stage_id == n.stage_id) children_wall += c.Sum(Metric::kWallNs);
  }
  OpClass cls = ClassOf(n.name);
  f->self_ns[cls] += std::max<int64_t>(0, wall - children_wall);
  if (n.name == "DeltaScan" || n.name == "TableScan") {
    f->rows_scanned += n.Sum(Metric::kRowsOut);
  }
  if (stage_top) {
    f->tasks += n.num_tasks;
    if (n.num_tasks == 1) f->single_task_stage_ns += wall;
  }
  f->fused_batches += n.Sum(Metric::kExprFusedBatches);
  f->compiled_batches += n.Sum(Metric::kExprCompiledBatches);
  f->tier_switches += n.Sum(Metric::kExprTierSwitches);
  f->scratch_misses += n.Sum(Metric::kScratchPoolMisses);
  f->reserve_wait_ns += n.Sum(Metric::kReserveWaitNs);
  f->reserve_waits += n.Sum(Metric::kReserveWaits);
  f->prefetch_wait_ns += n.Sum(Metric::kPrefetchWaitNs);
  f->files_pruned += n.Sum(Metric::kFilesPruned);
  f->row_groups_skipped += n.Sum(Metric::kRowGroupsSkipped);
  for (const ProfileNode& c : n.children) {
    FoldNode(c, c.stage_id != n.stage_id, f);
  }
}

}  // namespace

void ProfileFold::Add(const photon::obs::QueryProfile& p) {
  profiles++;
  FoldNode(p.root, /*stage_top=*/true, this);
}

void ProfileFold::Merge(const ProfileFold& o) {
  for (int c = 0; c < kNumOpClasses; c++) self_ns[c] += o.self_ns[c];
  rows_scanned += o.rows_scanned;
  single_task_stage_ns += o.single_task_stage_ns;
  tasks += o.tasks;
  fused_batches += o.fused_batches;
  compiled_batches += o.compiled_batches;
  tier_switches += o.tier_switches;
  scratch_misses += o.scratch_misses;
  reserve_wait_ns += o.reserve_wait_ns;
  reserve_waits += o.reserve_waits;
  prefetch_wait_ns += o.prefetch_wait_ns;
  files_pruned += o.files_pruned;
  row_groups_skipped += o.row_groups_skipped;
  profiles += o.profiles;
}

void ProfileFold::AddJoinBuildFromTracer() {
  for (const photon::obs::TraceEvent& e : photon::obs::Tracer::Snapshot()) {
    if (std::string(e.name) == "join_build") self_ns[kJoinBuild] += e.dur_ns;
  }
  photon::obs::Tracer::Reset();
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() >= 20) return;
  // One line each: the result file's JSON writer escapes only quotes and
  // backslashes.
  std::string line = why;
  for (char& c : line) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  errors.push_back(line);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void RunResult::Config(const std::string& key, double value) {
  config.emplace_back(key, value);
}

double PhaseTotals::KindGeomeanMs(int first, int last,
                                  int64_t* samples) const {
  std::vector<std::vector<double>> by_kind(num_kinds);
  for (const StmtRecord& s : stmts) {
    if (s.ok) by_kind[s.kind].push_back(s.latency_ns / 1e6);
  }
  std::vector<double> medians;
  *samples = 0;
  for (int k = first; k < last; k++) {
    if (by_kind[k].empty()) continue;
    *samples += static_cast<int64_t>(by_kind[k].size());
    medians.push_back(Median(by_kind[k]));
  }
  return Geomean(medians);
}

void AddEndToEnd(const std::vector<double>& setup_s, const PhaseTotals& p,
                 RunResult* r) {
  const double wall_s = p.wall_ns / 1e9;
  std::vector<double> reads;
  std::vector<double> writes;
  int64_t done = 0;
  int64_t failed = 0;
  for (const StmtRecord& s : p.stmts) {
    if (!s.ok) {
      failed++;
      continue;
    }
    done++;
    (s.is_read ? reads : writes).push_back(s.latency_ns / 1e6);
  }
  r->Add("setup_s", Median(setup_s), "s",
         static_cast<int64_t>(setup_s.size()));
  r->setup_reps_s = setup_s;
  int64_t n = 0;
  double g = p.KindGeomeanMs(0, p.num_read_kinds, &n);
  r->Add("query_geomean_ms", g, "ms", n);
  g = p.KindGeomeanMs(0, p.num_kinds, &n);
  r->Add("stmt_geomean_ms", g, "ms", n);
  const int64_t nr = static_cast<int64_t>(reads.size());
  r->Add("query_p50_ms", Percentile(reads, 0.50), "ms", nr);
  r->Add("query_p95_ms", Percentile(reads, 0.95), "ms", nr);
  r->Add("qps", nr / wall_s, "1/s", nr);
  r->Add("cpu_ms_per_op", done > 0 ? p.cpu_ns / 1e6 / done : 0, "ms", done);
  r->Add("peak_rss_mb", p.peak_rss_bytes / 1e6, "MB", 1);
  const int64_t attempted = static_cast<int64_t>(p.stmts.size());
  r->Add("failed_frac",
         attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio",
         attempted);
  if (p.num_kinds > p.num_read_kinds) {
    const int64_t nw = static_cast<int64_t>(writes.size());
    r->Add("commits_per_s", nw / wall_s, "1/s", nw);
    r->Add("commit_p50_ms", Percentile(writes, 0.50), "ms", nw);
    r->Add("commit_p95_ms", Percentile(writes, 0.95), "ms", nw);
  }
  r->attempted += attempted;
  r->failed += failed;
  std::vector<std::vector<double>> by_kind(p.num_kinds);
  for (const StmtRecord& s : p.stmts) {
    if (s.ok) by_kind[s.kind].push_back(s.latency_ns / 1e6);
  }
  for (int k = 0; k < p.num_kinds; k++) {
    RunResult::KindSummary ks;
    ks.name = k < static_cast<int>(p.kind_names.size()) ? p.kind_names[k]
                                                        : std::to_string(k);
    ks.samples = static_cast<int64_t>(by_kind[k].size());
    ks.median_ms = Median(by_kind[k]);
    ks.min_ms = by_kind[k].empty()
                    ? 0
                    : *std::min_element(by_kind[k].begin(), by_kind[k].end());
    r->kinds.push_back(ks);
  }
}

void AddLayerMetrics(const LayerStats& l, RunResult* r) {
  const ProfileFold& f = l.fold;
  const double per = l.streams > 0 ? 1.0 / l.streams : 0;
  const int64_t n = l.statements;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  r->Add("sql.compile_us", Median(l.compile_us), "us",
         static_cast<int64_t>(l.compile_us.size()));
  r->Add("opt.optimize_us", Median(l.optimize_us), "us",
         static_cast<int64_t>(l.optimize_us.size()));
  r->Add("exec.run_ms", l.exec_wall_ns / 1e6 * per, "ms", n);
  r->Add("exec.cpu_utilization", l.cpu_utilization, "ratio", n);
  r->Add("exec.single_task_stage_ms", f.single_task_stage_ns / 1e6 * per,
         "ms", f.profiles);
  r->Add("exec.morsel_tasks", ratio(l.morsel_tasks, n), "count", n);
  for (int c = 0; c < kNumOpClasses; c++) {
    double ms = f.self_ns[c] / 1e6 * per;
    r->where_time_ms.emplace_back(OpClassName(c), ms);
    if (c != kOther) {
      r->Add(std::string("ops.") + OpClassName(c) + "_self_ms", ms, "ms",
             f.profiles);
    }
  }
  r->Add("ops.rows_scanned", f.rows_scanned * per, "count", f.profiles);
  r->Add("expr.compiled_batch_frac",
         ratio(f.compiled_batches, f.fused_batches + f.compiled_batches),
         "ratio", f.fused_batches + f.compiled_batches);
  r->Add("expr.tier_switches", f.tier_switches * per, "count", f.profiles);
  r->Add("expr.scratch_pool_misses", f.scratch_misses * per, "count",
         f.profiles);
  r->Add("memory.reserve_wait_ms", f.reserve_wait_ns / 1e6 * per, "ms",
         f.profiles);
  r->Add("memory.reserve_waits", f.reserve_waits * per, "count", f.profiles);
  r->Add("memory.peak_reserved_mb", l.peak_reserved_bytes / 1e6, "MB", 1);
  r->Add("memory.spill_bytes", static_cast<double>(l.spill_bytes), "bytes",
         1);
  const int64_t lookups = l.cache_hits + l.cache_misses;
  r->Add("io.cache_hit_ratio", ratio(l.cache_hits, lookups), "ratio",
         lookups);
  r->Add("io.cache_hits", static_cast<double>(l.cache_hits), "count", 1);
  r->Add("io.cache_lookups", static_cast<double>(lookups), "count", 1);
  r->Add("io.cache_evictions", static_cast<double>(l.cache_evictions),
         "count", 1);
  r->Add("io.store_gets", static_cast<double>(l.store_gets), "count", 1);
  r->Add("io.store_read_mb", l.store_read_bytes / 1e6, "MB", 1);
  r->Add("io.prefetch_wait_ms", f.prefetch_wait_ns / 1e6 * per, "ms",
         f.profiles);
  r->Add("storage.files_pruned", f.files_pruned * per, "count", f.profiles);
  r->Add("storage.row_groups_skipped", f.row_groups_skipped * per, "count",
         f.profiles);
  r->Add("storage.write_amp",
         ratio(l.store_written_bytes, l.user_written_bytes), "ratio",
         l.commits);
  r->Add("storage.live_files", static_cast<double>(l.live_files), "count",
         1);
  const int64_t attempts = l.commits + l.commit_conflicts;
  r->Add("storage.commit_attempts", static_cast<double>(attempts), "count",
         1);
  r->Add("storage.commit_conflicts", static_cast<double>(l.commit_conflicts),
         "count", 1);
  r->Add("storage.commit_success_ratio", ratio(l.commits, attempts), "ratio",
         attempts);
  const int64_t nc = static_cast<int64_t>(l.commit_ms.size());
  r->Add("storage.commits_per_s", ratio(nc, l.phase_s), "1/s", nc);
  r->Add("storage.commit_p50_ms", Percentile(l.commit_ms, 0.50), "ms", nc);
  r->Add("storage.commit_p95_ms", Percentile(l.commit_ms, 0.95), "ms", nc);
  r->Add("exec.dml_files_rewritten", ratio(l.dml_files_rewritten, nc),
         "count", nc);
  r->Add("exec.dml_files_pruned", ratio(l.dml_files_pruned, nc), "count", nc);
  r->Add("exec.compactor_files_compacted",
         static_cast<double>(l.compactor_files), "count", 1);
  r->Add("service.queue_ms", Median(l.queue_ms), "ms",
         static_cast<int64_t>(l.queue_ms.size()));
  r->Add("service.admission_waits", static_cast<double>(l.admission_waits),
         "count", 1);
  r->Add("obs.trace_overhead_pct", l.trace_overhead_pct, "%", n);
}

}  // namespace lakebench
