// Shared pieces of the lakehouse benchmark: clocks, sample statistics,
// the result checksum, the in-memory span log of a traced run, the fold of
// engine QueryProfiles into operator classes, and the run's result record.
//
// Everything here measures the engine from outside: it times calls into
// public functions and reads the stats and profiles the engine exposes.

#ifndef LAKEBENCH_COMMON_H_
#define LAKEBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "expr/eval_context.h"
#include "memory/memory_manager.h"
#include "obs/profile.h"
#include "vector/table.h"

namespace lakebench {

// ---- clocks ---------------------------------------------------------------

using photon::bench::NowNs;
/// CPU time of the whole process (all threads).
int64_t ProcessCpuNs();
/// Peaks of one timed phase rather than of the whole process: resident
/// memory from the kernel's high-water mark, restarted on construction,
/// and a MemoryManager's reserved bytes, sampled every few milliseconds on
/// a thread of its own while alive.
class PeakSampler {
 public:
  explicit PeakSampler(const photon::MemoryManager* mm);
  ~PeakSampler();
  int64_t peak_rss_bytes() const;
  int64_t peak_reserved_bytes() const { return peak_reserved_.load(); }

 private:
  void Sample();

  const photon::MemoryManager* mm_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> peak_reserved_{0};
  std::thread thread_;
};

// ---- statistics -------------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p);
double Geomean(const std::vector<double>& v);

/// Order-insensitive content checksum of a result table.
using photon::bench::TableChecksum;

/// Seeded random source for one client or one schedule.
using Rng = std::mt19937_64;
Rng MakeRng(uint64_t seed, uint64_t stream);

// ---- tracing ----------------------------------------------------------------

/// One span of the traced run: a call into one engine layer.
struct SpanRec {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = -1;
  int64_t parent = -1;  // -1 = statement root
  int64_t stmt = -1;
};

/// Spans of one client, kept in memory until the run ends. A client's
/// spans are only touched by the thread running that client's statement at
/// the time, so the log takes no lock.
class SpanLog {
 public:
  explicit SpanLog(int client) : base_(static_cast<int64_t>(client) << 32) {}
  int64_t Begin(const char* name, int64_t parent, int64_t stmt);
  void End(int64_t id);
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  int64_t base_;
  std::vector<SpanRec> spans_;
};

/// RAII span; a no-op when `log` is null (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name, int64_t parent, int64_t stmt)
      : log_(log), id_(log ? log->Begin(name, parent, stmt) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Durations (us) of every span named `name` across `logs`.
std::vector<double> SpanDurationsUs(
    const std::vector<std::unique_ptr<SpanLog>>& logs, const char* name);

/// Writes the spans of `logs` as a JSON array to `path`.
bool WriteSpans(const std::vector<std::unique_ptr<SpanLog>>& logs,
                const std::string& path);

/// Next process-unique statement id.
int64_t NextStatementId();

// ---- profile fold ---------------------------------------------------------------

enum OpClass {
  kScan,
  kExpr,
  kAggPartial,
  kAggFinal,
  kJoinBuild,
  kJoinProbe,
  kSort,
  kOther,
  kNumOpClasses
};
const char* OpClassName(int c);

/// Sums of engine QueryProfiles over the statements of a traced phase.
/// Self time of a node = its wall time minus that of its children in the
/// same stage (a child in another stage ran before it, not inside it).
struct ProfileFold {
  int64_t self_ns[kNumOpClasses] = {};
  int64_t rows_scanned = 0;
  int64_t single_task_stage_ns = 0;
  int64_t tasks = 0;
  int64_t fused_batches = 0;
  int64_t compiled_batches = 0;
  int64_t tier_switches = 0;
  int64_t scratch_misses = 0;
  int64_t reserve_wait_ns = 0;
  int64_t reserve_waits = 0;
  int64_t prefetch_wait_ns = 0;
  int64_t files_pruned = 0;
  int64_t row_groups_skipped = 0;
  int64_t profiles = 0;

  void Add(const photon::obs::QueryProfile& p);
  void Merge(const ProfileFold& other);
  /// Hash-table build time, which the profile does not attribute to a
  /// node, comes from the engine tracer's "join_build" spans.
  void AddJoinBuildFromTracer();
};

// ---- result ----------------------------------------------------------------------

struct MetricOut {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// What one benchmark invocation found. Written as the result file; the
/// runner script turns it into the one-line summary.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<MetricOut> metrics;
  /// Operator-class self time per stream, the "where the time goes" table.
  std::vector<std::pair<std::string, double>> where_time_ms;
  /// Per statement kind of the untraced phase: name, samples, median and
  /// minimum latency (ms) — the per-query grid.
  struct KindSummary {
    std::string name;
    int64_t samples = 0;
    double median_ms = 0;
    double min_ms = 0;
  };
  std::vector<KindSummary> kinds;
  /// Every set-up's duration (s); setup_s is their median.
  std::vector<double> setup_reps_s;
  /// Workload shape, echoed into the result file.
  std::vector<std::pair<std::string, double>> config;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  void Config(const std::string& key, double value);
};

/// Settings shared by all workloads.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 4;
  photon::ExprPolicy expr_policy = photon::ExprPolicy::kAdaptive;
  std::string out_dir;     // spans file goes here (traced run)
  std::string oracle_dir;  // TPC-H oracle cache; empty = no cache
  std::string oracle_key;  // identifies the engine source in cache names
};

// ---- metric emission ---------------------------------------------------------

/// One completed (or failed) statement of a timed phase.
struct StmtRecord {
  int kind = 0;  // index into the workload's statement kinds
  bool is_read = true;
  bool ok = true;
  int64_t latency_ns = 0;
};

/// What a timed phase measured from outside the engine.
struct PhaseTotals {
  std::vector<StmtRecord> stmts;
  int num_kinds = 0;  // read kinds come first: [0, num_read_kinds)
  int num_read_kinds = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t peak_rss_bytes = 0;
  std::vector<std::string> kind_names;

  /// Geometric mean over statement kinds in [first, last) of each kind's
  /// median latency, in ms; *samples receives the statements counted.
  double KindGeomeanMs(int first, int last, int64_t* samples) const;
};

/// Adds the end-to-end metrics (the BENCHMARK.json end_to_end list plus
/// the write-side figures of workloads that commit).
void AddEndToEnd(const std::vector<double>& setup_s, const PhaseTotals& p,
                 RunResult* r);

/// Per-layer figures of the traced phase. Layers a workload does not use
/// keep their zero defaults; every workload reports the full set.
struct LayerStats {
  std::vector<double> compile_us;
  std::vector<double> optimize_us;
  double streams = 0;  // passes over the workload's read statement kinds
  int64_t statements = 0;
  int64_t exec_wall_ns = 0;
  double cpu_utilization = 0;
  int64_t morsel_tasks = 0;
  ProfileFold fold;
  int64_t peak_reserved_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t store_gets = 0;
  int64_t store_read_bytes = 0;
  int64_t store_written_bytes = 0;
  int64_t user_written_bytes = 0;
  int64_t live_files = 0;
  int64_t commits = 0;
  int64_t commit_conflicts = 0;
  std::vector<double> commit_ms;
  double phase_s = 0;
  int64_t dml_files_rewritten = 0;
  int64_t dml_files_pruned = 0;
  int64_t compactor_files = 0;
  std::vector<double> queue_ms;
  int64_t admission_waits = 0;
  double trace_overhead_pct = 0;
};

/// Adds every per-layer metric, and the operator-class table.
void AddLayerMetrics(const LayerStats& l, RunResult* r);

RunResult RunTpch(const RunConfig& cfg);
RunResult RunUpsert(const RunConfig& cfg);

}  // namespace lakebench

#endif  // LAKEBENCH_COMMON_H_
