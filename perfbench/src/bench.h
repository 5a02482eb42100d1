// Shared machinery of the perfbench program: run options, the result
// report (metrics with unit and source, failure accounting, correctness
// checks, provenance), latency samples, in-memory spans, and telemetry
// deltas. Workloads live in their own files and fill one Report each.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"

namespace pb {

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny data sizes: the smoke test runs every workload in seconds.
  bool tiny = false;
  /// Working directory inside the checkout (WAL data dirs, span files).
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// ------------------------------------------------------------------ clocks

double NowMs();        // steady clock, ms since process start
double ThreadCpuMs();   // CLOCK_THREAD_CPUTIME_ID of the calling thread
double ProcessCpuMs();  // CLOCK_PROCESS_CPUTIME_ID: CPU of all threads
double PeakRssMb();    // getrusage max resident set, MiB
int HostCores();

/// FNV-1a over a string: the repeatable design hash.
uint64_t Fnv1a(const std::string& s);
std::string Hex16(uint64_t v);

// ----------------------------------------------------------------- samples

/// Latency sample of one operation class. Failed operations stay in it.
struct Sample {
  std::vector<double> ms;
  void Add(double v) { ms.push_back(v); }
  void Append(const Sample& o) { ms.insert(ms.end(), o.ms.begin(), o.ms.end()); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Pct(double p) const;
  double Median() const { return Pct(50); }
  double Mean() const;
  /// Geometric mean (values floored at 1 us); 0 when empty.
  double GeoMean() const;
  size_t n() const { return ms.size(); }
};

/// Median of a small vector of values (set-up repetitions, per-query reps).
double MedianOf(std::vector<double> v);

/// A measured window cut into equal time slices. Operations are recorded
/// with their completion time, process CPU is sampled at the slice
/// boundaries, and the bounded end-to-end figures are medians over the
/// slices, so one slow slice (a lock-timeout stall, a burst of host noise)
/// does not move them. Whole-window figures are reported alongside.
class Slices {
 public:
  struct OpRec {
    double end_ms;
    double lat_ms;
    bool ok;
  };
  /// `n` slices from `start_ms` over `seconds`.
  Slices(double start_ms, double seconds, int n);
  /// The time at which the next CPU sample is due; +inf once all are taken.
  double next_due_ms() const;
  /// Record process CPU now if a boundary has passed (one caller thread).
  void MaybeSampleCpu();
  void Add(const std::vector<OpRec>& ops);

  /// Median over slices of the geometric-mean operation latency.
  double MedianGeoMeanMs() const;
  /// Median over slices of process CPU per completed operation.
  double MedianCpuPerOpMs() const;
  int count() const { return static_cast<int>(cpu_.size()) - 1; }

 private:
  double start_ms_, slice_ms_;
  int n_;
  std::vector<std::pair<double, double>> cpu_;  // (time, process CPU) samples
  std::vector<OpRec> ops_;
};

// --------------------------------------------------------- failure ledger

/// Attempted / failed operations per class and per typed Status code.
class Ledger {
 public:
  void Attempt(const std::string& cls);
  void Fail(const std::string& cls, const hd::Status& st);
  void Retry(const std::string& cls);
  void Merge(const Ledger& o);

  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t retries() const;
  uint64_t attempted(const std::string& cls) const;
  uint64_t failed(const std::string& cls) const;
  std::string ToJson() const;

 private:
  struct Cls {
    uint64_t attempted = 0, failed = 0, retries = 0;
    std::map<std::string, uint64_t> by_code;
  };
  std::map<std::string, Cls> cls_;
};

const char* CodeName(hd::Code c);

// ------------------------------------------------------------------ report

/// Where a number comes from: measured wall clock, measured thread CPU,
/// a simulated charge (the disk model), an OS figure, or a count/ratio.
enum class Source { kWall, kThreadCpu, kSimulated, kOs, kCount };
const char* SourceName(Source s);

class Report {
 public:
  /// `samples` is the sample count behind a percentile (0 = not one).
  void Metric(const std::string& name, double value, const std::string& unit,
              Source src, uint64_t samples = 0);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// A correctness check: every check runs; any failure fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  bool all_ok() const;

  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  Ledger ledger;

  /// Full result object: provenance, every metric with unit, source and
  /// sample count, failure ledger, checks.
  std::string ToJson(const Options& o) const;
  /// The result line: correct/attempted/failed plus the named metrics.
  std::string ResultLine(const std::vector<std::string>& names) const;

 private:
  struct M {
    double value;
    std::string unit;
    Source src;
    uint64_t samples;
  };
  struct C {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, M> metrics_;
  std::vector<C> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// -------------------------------------------------------------------- spans

/// In-memory span recorder for the traced run. Spans are recorded from
/// the benchmark's own calls into each layer; each has a name, start,
/// end, parent span and the id of the operation it belongs to. Nothing
/// is recorded unless Enable() was called, and nothing is written until
/// WriteChromeJson() at the end of the run.
class Spans {
 public:
  static void Enable(bool on);
  static bool enabled() { return on_.load(std::memory_order_relaxed); }

  /// Operation id stamped on spans opened by this thread from now on.
  static void SetOp(uint64_t op);

  struct Stat {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the time covered by child spans
  };
  /// Per span name, over every span recorded so far.
  static std::map<std::string, Stat> Summarize();
  static size_t Count();
  static void Clear();
  static hd::Status WriteChromeJson(const std::string& path);

 private:
  friend class Span;
  static std::atomic<bool> on_;
};

/// RAII span; a no-op when spans are disabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------- telemetry

/// Before/after view of the process-wide Telemetry registry.
class TeleDelta {
 public:
  void Begin() { a_ = hd::Telemetry::Instance().Snapshot(); }
  void End() { b_ = hd::Telemetry::Instance().Snapshot(); }
  uint64_t Counter(const std::string& name) const;
  int64_t GaugeEnd(const std::string& name) const;
  /// Histogram of the values recorded between Begin() and End().
  hd::HistSnapshot Hist(const std::string& name) const;

 private:
  hd::TelemetrySnapshot a_, b_;
};

/// Samples a telemetry gauge on a background thread (pool.queue_depth).
class GaugeSampler {
 public:
  GaugeSampler(const std::string& gauge, int period_us);
  ~GaugeSampler();
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;
  /// Stops sampling; returns the mean of the samples taken.
  double Stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------- advisor-internal call hooks

/// Calls Advisor::Recommend makes into the optimizer, candidate and size
/// estimation layers, counted and timed at the public entry points (see
/// hooks.cc: the link step routes those calls through the benchmark).
struct HookTotals {
  uint64_t whatif_calls = 0;
  double whatif_ms = 0;
  double candidates_ms = 0;
  double size_est_ms = 0;
};
HookTotals ReadHooks();
void ResetHooks();
/// False when the link step did not route the calls (symbols changed).
bool HooksLinked();

// ----------------------------------------------------------------- workloads

/// End-to-end metric names every workload reports with --trace 0.
const std::vector<std::string>& EndToEndNames();
/// Per-layer metric names every workload reports with --trace 1.
const std::vector<std::string>& PerLayerNames();

/// Fill in every name of `names` the workload did not measure with 0 of
/// the given unit table (a structurally absent layer reads 0).
void ZeroFill(Report* r, const std::vector<std::string>& names);

hd::Status RunHtapWire(const Options& o, Report* r);
hd::Status RunChAnalytics(const Options& o, Report* r);
hd::Status RunAdvisorTune(const Options& o, Report* r);

/// Reports set-up time as the median over `reps` set-ups.
void ReportSetup(Report* r, const std::vector<double>& setup_s);

/// Common per-layer metrics read from a telemetry window.
void ReportTelemetry(Report* r, const TeleDelta& d, double pool_queue_mean);
/// The traced run's span figures: self time per span name (ms per span),
/// the mean durations `sql.parse_us`, `optimizer.plan_us` and
/// `txn.commit_ms` where those spans exist, and the span count. Writes the
/// spans as Chrome trace JSON into the work dir.
void ReportSpans(Report* r, const Options& o);

}  // namespace pb
