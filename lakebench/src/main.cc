// lakebench: one lakehouse benchmark over the Photon reproduction.
//
//   lakebench --workload tpch_power|tpch_throughput|lakehouse_upsert
//             --seed N --seconds S --trace 0|1 --result-file PATH
//             [--out-dir DIR]
//             [--expr-policy adaptive|tree|fused|compiled]
//             [--oracle-dir DIR --oracle-key KEY]
//
// Prints a human-readable report and writes every metric, with its unit
// and sample count, to --result-file as JSON. Exits 1 when a result fails
// its correctness check, 2 on bad arguments. See lakebench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common.h"

namespace {

using lakebench::RunConfig;
using lakebench::RunResult;
using photon::bench::FlagValue;

bool ParsePolicy(const std::string& s, photon::ExprPolicy* out) {
  if (s == "adaptive") *out = photon::ExprPolicy::kAdaptive;
  else if (s == "tree") *out = photon::ExprPolicy::kTreeOnly;
  else if (s == "fused") *out = photon::ExprPolicy::kFusedOnly;
  else if (s == "compiled") *out = photon::ExprPolicy::kCompiledOnly;
  else return false;
  return true;
}

/// Full precision: JsonWriter's own double fields round to four decimals.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool WriteResult(const RunConfig& cfg, const RunResult& r,
                 const std::string& path) {
  photon::JsonWriter w;
  w.BeginObject();
  w.Field("workload", cfg.workload);
  w.Field("seed", static_cast<int64_t>(cfg.seed));
  w.Raw("seconds", Num(cfg.seconds));
  w.Field("trace", cfg.trace ? 1 : 0);
  w.Field("nproc", cfg.nproc);
  w.Raw("correct", r.correct ? "true" : "false");
  w.Field("attempted", r.attempted);
  w.Field("failed", r.failed);
  w.BeginArray("errors");
  for (const std::string& e : r.errors) {
    w.BeginObject();
    w.Field("error", e);
    w.EndObject();
  }
  w.EndArray();
  w.BeginObject("config");
  for (const auto& [key, value] : r.config) w.Raw(key, Num(value));
  w.EndObject();
  w.BeginObject("metrics");
  for (const auto& m : r.metrics) {
    w.BeginObject(m.name);
    w.Raw("value", Num(m.value));
    w.Field("unit", m.unit);
    w.Field("samples", m.samples);
    w.EndObject();
  }
  w.EndObject();
  std::string reps = "[";
  for (double s : r.setup_reps_s) {
    if (reps.size() > 1) reps += ',';
    reps += Num(s);
  }
  w.Raw("setup_reps_s", reps + "]");
  w.BeginObject("kinds");
  for (const auto& k : r.kinds) {
    w.BeginObject(k.name);
    w.Field("samples", k.samples);
    w.Raw("median_ms", Num(k.median_ms));
    w.Raw("min_ms", Num(k.min_ms));
    w.EndObject();
  }
  w.EndObject();
  w.BeginObject("where_time_ms");
  for (const auto& [cls, ms] : r.where_time_ms) w.Raw(cls, Num(ms));
  w.EndObject();
  w.EndObject();
  return w.WriteTo(path);
}

void Report(const RunConfig& cfg, const RunResult& r) {
  std::printf("lakebench %s seed=%llu seconds=%g trace=%d nproc=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc);
  for (const auto& m : r.metrics) {
    std::printf("  %-32s %14.4f %-6s (n=%lld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  if (!r.where_time_ms.empty()) {
    double total = 0;
    for (const auto& [cls, ms] : r.where_time_ms) total += ms;
    std::printf("  where the time goes (operator self time per stream):\n");
    for (const auto& [cls, ms] : r.where_time_ms) {
      std::printf("    %-12s %10.2f ms %6.1f%%\n", cls.c_str(), ms,
                  total > 0 ? 100 * ms / total : 0.0);
    }
  }
  std::printf("  statements: %lld attempted, %lld failed; correct: %s\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.correct ? "yes" : "NO");
  for (const std::string& e : r.errors) std::printf("  MISMATCH: %s\n", e.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* result_file = FlagValue(argc, argv, "--result-file");
  if (workload == nullptr || result_file == nullptr) {
    std::fprintf(stderr, "usage: lakebench --workload W --result-file PATH "
                         "[--seed N] [--seconds S] [--trace 0|1] ...\n");
    return 2;
  }
  cfg.workload = workload;
  if (const char* v = FlagValue(argc, argv, "--seed")) cfg.seed = std::strtoull(v, nullptr, 10);
  if (const char* v = FlagValue(argc, argv, "--seconds")) cfg.seconds = std::atof(v);
  if (const char* v = FlagValue(argc, argv, "--trace")) cfg.trace = std::atoi(v) != 0;
  if (const char* v = FlagValue(argc, argv, "--out-dir")) cfg.out_dir = v;
  if (const char* v = FlagValue(argc, argv, "--oracle-dir")) cfg.oracle_dir = v;
  if (const char* v = FlagValue(argc, argv, "--oracle-key")) cfg.oracle_key = v;
  if (const char* v = FlagValue(argc, argv, "--expr-policy")) {
    if (!ParsePolicy(v, &cfg.expr_policy)) {
      std::fprintf(stderr, "unknown --expr-policy %s\n", v);
      return 2;
    }
  }
  cfg.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (cfg.nproc < 1) cfg.nproc = 1;
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "bad --seconds\n");
    return 2;
  }

  RunResult r;
  if (cfg.workload == "tpch_power" || cfg.workload == "tpch_throughput") {
    r = lakebench::RunTpch(cfg);
  } else if (cfg.workload == "lakehouse_upsert") {
    r = lakebench::RunUpsert(cfg);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }
  Report(cfg, r);
  if (!WriteResult(cfg, r, result_file)) {
    std::fprintf(stderr, "cannot write %s\n", result_file);
    return 2;
  }
  return r.correct ? 0 : 1;
}
