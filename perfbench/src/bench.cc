#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace pb {

// ------------------------------------------------------------------ clocks

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

std::string JsonStr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    switch (c) {
      case '"': o += "\\\""; break;
      case '\\': o += "\\\\"; break;
      case '\n': o += "\\n"; break;
      case '\t': o += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char b[8];
          std::snprintf(b, sizeof(b), "\\u%04x", c);
          o += b;
        } else {
          o += c;
        }
    }
  }
  return o + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char b[64];
  std::snprintf(b, sizeof(b), "%.10g", v);
  return b;
}
}  // namespace

double NowMs() { return SteadyNs() / 1e6; }

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

int HostCores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex16(uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof(b), "%016llx", static_cast<unsigned long long>(v));
  return b;
}

// ----------------------------------------------------------------- samples

double Sample::Pct(double p) const {
  if (ms.empty()) return 0;
  std::vector<double> s = ms;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p / 100.0 * s.size());
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return s[std::min(i, s.size() - 1)];
}

double Sample::Mean() const {
  if (ms.empty()) return 0;
  double t = 0;
  for (double v : ms) t += v;
  return t / ms.size();
}

double Sample::GeoMean() const {
  if (ms.empty()) return 0;
  double t = 0;
  for (double v : ms) t += std::log(std::max(v, 1e-3));
  return std::exp(t / ms.size());
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Slices::Slices(double start_ms, double seconds, int n)
    : start_ms_(start_ms), slice_ms_(seconds * 1000 / n), n_(n) {
  cpu_.emplace_back(NowMs(), ProcessCpuMs());
}

double Slices::next_due_ms() const {
  const int k = static_cast<int>(cpu_.size());
  return k > n_ ? std::numeric_limits<double>::infinity()
                : start_ms_ + k * slice_ms_;
}

void Slices::MaybeSampleCpu() {
  if (NowMs() >= next_due_ms()) cpu_.emplace_back(NowMs(), ProcessCpuMs());
}

void Slices::Add(const std::vector<OpRec>& ops) {
  ops_.insert(ops_.end(), ops.begin(), ops.end());
}

double Slices::MedianGeoMeanMs() const {
  std::vector<double> per;
  for (size_t k = 0; k + 1 < cpu_.size(); ++k) {
    Sample s;
    for (const OpRec& op : ops_) {
      if (op.end_ms >= cpu_[k].first && op.end_ms < cpu_[k + 1].first) {
        s.Add(op.lat_ms);
      }
    }
    if (s.n()) per.push_back(s.GeoMean());
  }
  return MedianOf(per);
}

double Slices::MedianCpuPerOpMs() const {
  std::vector<double> per;
  for (size_t k = 0; k + 1 < cpu_.size(); ++k) {
    uint64_t done = 0;
    for (const OpRec& op : ops_) {
      done += op.ok && op.end_ms >= cpu_[k].first &&
              op.end_ms < cpu_[k + 1].first;
    }
    if (done) per.push_back((cpu_[k + 1].second - cpu_[k].second) / done);
  }
  return MedianOf(per);
}

// ------------------------------------------------------------------ ledger

const char* CodeName(hd::Code c) {
  switch (c) {
    case hd::Code::kOk: return "Ok";
    case hd::Code::kNotFound: return "NotFound";
    case hd::Code::kInvalidArgument: return "InvalidArgument";
    case hd::Code::kCorruption: return "Corruption";
    case hd::Code::kNotSupported: return "NotSupported";
    case hd::Code::kResourceExhausted: return "ResourceExhausted";
    case hd::Code::kAborted: return "Aborted";
    case hd::Code::kIoError: return "IoError";
    case hd::Code::kInternal: return "Internal";
  }
  return "Unknown";
}

void Ledger::Attempt(const std::string& cls) { cls_[cls].attempted++; }
void Ledger::Retry(const std::string& cls) { cls_[cls].retries++; }
void Ledger::Fail(const std::string& cls, const hd::Status& st) {
  Cls& c = cls_[cls];
  c.failed++;
  c.by_code[CodeName(st.code())]++;
}

void Ledger::Merge(const Ledger& o) {
  for (const auto& [name, c] : o.cls_) {
    Cls& m = cls_[name];
    m.attempted += c.attempted;
    m.failed += c.failed;
    m.retries += c.retries;
    for (const auto& [code, n] : c.by_code) m.by_code[code] += n;
  }
}

uint64_t Ledger::attempted() const {
  uint64_t n = 0;
  for (const auto& [_, c] : cls_) n += c.attempted;
  return n;
}
uint64_t Ledger::failed() const {
  uint64_t n = 0;
  for (const auto& [_, c] : cls_) n += c.failed;
  return n;
}
uint64_t Ledger::retries() const {
  uint64_t n = 0;
  for (const auto& [_, c] : cls_) n += c.retries;
  return n;
}
uint64_t Ledger::attempted(const std::string& cls) const {
  auto it = cls_.find(cls);
  return it == cls_.end() ? 0 : it->second.attempted;
}
uint64_t Ledger::failed(const std::string& cls) const {
  auto it = cls_.find(cls);
  return it == cls_.end() ? 0 : it->second.failed;
}

std::string Ledger::ToJson() const {
  std::string o = "{";
  bool first = true;
  for (const auto& [name, c] : cls_) {
    if (!first) o += ",";
    first = false;
    o += JsonStr(name) + ":{\"attempted\":" + std::to_string(c.attempted) +
         ",\"failed\":" + std::to_string(c.failed) +
         ",\"retries\":" + std::to_string(c.retries) + ",\"by_code\":{";
    bool f2 = true;
    for (const auto& [code, n] : c.by_code) {
      if (!f2) o += ",";
      f2 = false;
      o += JsonStr(code) + ":" + std::to_string(n);
    }
    o += "}}";
  }
  return o + "}";
}

// ------------------------------------------------------------------ report

const char* SourceName(Source s) {
  switch (s) {
    case Source::kWall: return "wall";
    case Source::kThreadCpu: return "thread_cpu";
    case Source::kSimulated: return "simulated";
    case Source::kOs: return "os";
    case Source::kCount: return "count";
  }
  return "?";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, Source src, uint64_t samples) {
  metrics_[name] = M{std::isfinite(value) ? value : 0.0, unit, src, samples};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(C{name, ok, detail});
  std::fprintf(stderr, "check %-36s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

bool Report::all_ok() const {
  if (checks_.empty()) return false;
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, JsonStr(value));
}
void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNum(value));
}

std::string Report::ToJson(const Options& o) const {
  std::string s = "{\"schema\":\"hd-perfbench/1\",\"workload\":" +
                  JsonStr(o.workload) + ",\"seed\":" + std::to_string(o.seed) +
                  ",\"seconds\":" + JsonNum(o.seconds) +
                  ",\"trace\":" + (o.trace ? "true" : "false") +
                  ",\"tiny\":" + (o.tiny ? "true" : "false");
  s += ",\"provenance\":{\"git_sha\":" + JsonStr(o.git_sha) +
       ",\"source_digest\":" + JsonStr(o.source_digest) +
       ",\"build_type\":" + JsonStr(PB_BUILD_TYPE) +
       ",\"cxx_flags\":" + JsonStr(PB_CXX_FLAGS) +
       ",\"compiler\":" + JsonStr(PB_COMPILER) +
       ",\"nproc\":" + std::to_string(HostCores());
  for (const auto& [k, v] : info_) {
    s += ',';
    s += JsonStr(k);
    s += ':';
    s += v;
  }
  s += "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) s += ",";
    first = false;
    s += JsonStr(name) + ":{\"value\":" + JsonNum(m.value) +
         ",\"unit\":" + JsonStr(m.unit) + ",\"source\":\"" +
         SourceName(m.src) + "\"";
    if (m.samples) s += ",\"samples\":" + std::to_string(m.samples);
    s += "}";
  }
  s += "},\"operations\":" + ledger.ToJson() + ",\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i) s += ",";
    s += "{\"name\":" + JsonStr(checks_[i].name) +
         ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
         ",\"detail\":" + JsonStr(checks_[i].detail) + "}";
  }
  return s + "]}";
}

std::string Report::ResultLine(const std::vector<std::string>& names) const {
  std::string s = std::string("{\"correct\": ") +
                  (all_ok() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(ledger.attempted()) +
                  ", \"failed\": " + std::to_string(ledger.failed()) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics_.find(names[i]);
    const double v = it == metrics_.end() ? 0 : it->second.value;
    const std::string unit = it == metrics_.end() ? "" : it->second.unit;
    if (i) s += ", ";
    s += JsonStr(names[i]) + ": {\"value\": " + JsonNum(v) +
         ", \"unit\": " + JsonStr(unit) + "}";
  }
  return s + "}}";
}

// -------------------------------------------------------------------- spans

namespace {

struct SpanRec {
  const char* name;
  int64_t start_ns, end_ns;
  uint64_t id, parent, op;
  uint32_t tid;
};

struct ThreadSpans {
  uint32_t tid = 0;
  uint64_t next = 0;
  uint64_t op = 0;
  std::vector<uint64_t> stack;  // open span ids, innermost last
  std::vector<SpanRec> done;
};

std::mutex g_span_mu;
std::vector<std::unique_ptr<ThreadSpans>>& AllThreads() {
  static auto* v = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *v;
}

ThreadSpans* Mine() {
  thread_local ThreadSpans* t = [] {
    std::lock_guard<std::mutex> g(g_span_mu);
    auto& all = AllThreads();
    all.push_back(std::make_unique<ThreadSpans>());
    all.back()->tid = static_cast<uint32_t>(all.size());
    return all.back().get();
  }();
  return t;
}

}  // namespace

std::atomic<bool> Spans::on_{false};

void Spans::Enable(bool on) { on_.store(on, std::memory_order_relaxed); }
void Spans::SetOp(uint64_t op) { Mine()->op = op; }

Span::Span(const char* name) {
  if (!Spans::enabled()) return;
  ThreadSpans* t = Mine();
  active_ = true;
  name_ = name;
  id_ = (static_cast<uint64_t>(t->tid) << 40) | ++t->next;
  parent_ = t->stack.empty() ? 0 : t->stack.back();
  t->stack.push_back(id_);
  start_ns_ = SteadyNs();
}

Span::~Span() {
  if (!active_) return;
  const int64_t end = SteadyNs();
  ThreadSpans* t = Mine();
  t->stack.pop_back();
  t->done.push_back(SpanRec{name_, start_ns_, end, id_, parent_, t->op, t->tid});
}

std::map<std::string, Spans::Stat> Spans::Summarize() {
  std::lock_guard<std::mutex> g(g_span_mu);
  // Children are nested on their parent's thread and never overlap one
  // another, so the covered part of a parent is the sum of its children.
  std::map<uint64_t, double> child_ms;
  for (const auto& t : AllThreads()) {
    for (const auto& s : t->done) {
      if (s.parent) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, Stat> out;
  for (const auto& t : AllThreads()) {
    for (const auto& s : t->done) {
      Stat& st = out[s.name];
      const double dur = (s.end_ns - s.start_ns) / 1e6;
      auto it = child_ms.find(s.id);
      st.count++;
      st.total_ms += dur;
      st.self_ms += std::max(0.0, dur - (it == child_ms.end() ? 0 : it->second));
    }
  }
  return out;
}

size_t Spans::Count() {
  std::lock_guard<std::mutex> g(g_span_mu);
  size_t n = 0;
  for (const auto& t : AllThreads()) n += t->done.size();
  return n;
}

void Spans::Clear() {
  std::lock_guard<std::mutex> g(g_span_mu);
  for (const auto& t : AllThreads()) t->done.clear();
}

hd::Status Spans::WriteChromeJson(const std::string& path) {
  std::lock_guard<std::mutex> g(g_span_mu);
  std::ofstream f(path);
  if (!f) return hd::Status::IoError("cannot open " + path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& t : AllThreads()) {
    for (const auto& s : t->done) {
      if (!first) f << ",\n";
      first = false;
      f << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << s.tid << ",\"ts\":" << s.start_ns / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":\"" << Hex16(s.id) << "\",\"parent\":\""
        << Hex16(s.parent) << "\",\"op\":\"" << Hex16(s.op) << "\"}}";
    }
  }
  f << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
       "\"hd-perfbench-spans/1\"}}\n";
  return f ? hd::Status::OK() : hd::Status::IoError("write failed: " + path);
}

// ---------------------------------------------------------------- telemetry

uint64_t TeleDelta::Counter(const std::string& name) const {
  auto a = a_.counters.find(name);
  auto b = b_.counters.find(name);
  const uint64_t va = a == a_.counters.end() ? 0 : a->second;
  const uint64_t vb = b == b_.counters.end() ? 0 : b->second;
  return vb > va ? vb - va : 0;
}

int64_t TeleDelta::GaugeEnd(const std::string& name) const {
  auto b = b_.gauges.find(name);
  return b == b_.gauges.end() ? 0 : b->second;
}

hd::HistSnapshot TeleDelta::Hist(const std::string& name) const {
  hd::HistSnapshot out;
  auto b = b_.histograms.find(name);
  if (b == b_.histograms.end()) return out;
  std::map<uint32_t, uint64_t> before;
  auto a = a_.histograms.find(name);
  if (a != a_.histograms.end()) {
    for (const auto& [idx, n] : a->second.buckets) before[idx] = n;
    out.sum = b->second.sum - std::min(b->second.sum, a->second.sum);
  } else {
    out.sum = b->second.sum;
  }
  for (const auto& [idx, n] : b->second.buckets) {
    const uint64_t prev = before.count(idx) ? before[idx] : 0;
    if (n > prev) {
      out.buckets.emplace_back(idx, n - prev);
      out.count += n - prev;
    }
  }
  return out;
}

struct GaugeSampler::Impl {
  hd::TGauge* gauge;
  int period_us;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  double sum = 0;
  uint64_t n = 0;
  std::thread th;
};

GaugeSampler::GaugeSampler(const std::string& gauge, int period_us)
    : impl_(new Impl) {
  impl_->gauge = hd::Telemetry::Instance().Gauge(gauge);
  impl_->period_us = period_us;
  Impl* p = impl_.get();
  p->th = std::thread([p] {
    std::unique_lock<std::mutex> lk(p->mu);
    while (!p->stop) {
      p->sum += static_cast<double>(p->gauge->Value());
      p->n++;
      p->cv.wait_for(lk, std::chrono::microseconds(p->period_us),
                     [p] { return p->stop; });
    }
  });
}

GaugeSampler::~GaugeSampler() { Stop(); }

double GaugeSampler::Stop() {
  {
    std::lock_guard<std::mutex> g(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  if (impl_->th.joinable()) impl_->th.join();
  return impl_->n ? impl_->sum / impl_->n : 0;
}

// ----------------------------------------------------------- shared metrics

void ReportSetup(Report* r, const std::vector<double>& setup_s) {
  r->Metric("setup_s", MedianOf(setup_s), "s", Source::kWall,
            setup_s.size());
}

void ReportTelemetry(Report* r, const TeleDelta& d, double pool_queue_mean) {
  const double hits = d.Counter("bp.hits"), misses = d.Counter("bp.misses");
  r->Metric("bp.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
            "ratio", Source::kCount);
  r->Metric("bp.evictions", d.Counter("bp.evictions"), "count",
            Source::kCount);
  r->Metric("btree.seek_depth_mean", d.Hist("btree.seek_depth").Mean(),
            "levels", Source::kCount);
  r->Metric("btree.splits", d.Counter("btree.splits"), "count",
            Source::kCount);
  const double morsels = d.Counter("pool.morsels");
  r->Metric("pool.steal_rate",
            morsels > 0 ? d.Counter("pool.steals") / morsels : 0, "ratio",
            Source::kCount);
  r->Metric("pool.queue_depth_mean", pool_queue_mean, "tasks",
            Source::kCount);
  const hd::HistSnapshot aq = d.Hist("admission.queue_wait_ns");
  r->Metric("admission.queue_wait_ms", aq.Mean() / 1e6, "ms", Source::kWall,
            aq.count);
  r->Metric("admission.shed",
            d.Counter("admission.shed") + d.Counter("admission.timeouts"),
            "count", Source::kCount);
  r->Metric("scan.decode_bytes_saved_mb",
            d.Counter("scan.decode_bytes_saved") / 1048576.0, "MiB",
            Source::kCount);
  r->Metric("columnstore.delta_rows_end", d.GaugeEnd("csi.delta_rows"),
            "rows", Source::kCount);
  const hd::HistSnapshot lw = d.Hist("lock.wait_ns");
  r->Metric("lock.wait_ms", lw.sum / 1e6, "ms", Source::kWall, lw.count);
  r->Metric("lock.timeouts", d.Counter("lock.timeouts"), "count",
            Source::kCount);
  const hd::HistSnapshot fw = d.Hist("wal.flush_wait_ns");
  r->Metric("wal.flush_wait_ms", fw.Mean() / 1e6, "ms", Source::kWall,
            fw.count);
  r->Metric("qstore.dropped", d.Counter("qstore.dropped"), "count",
            Source::kCount);
}

void ReportSpans(Report* r, const Options& o) {
  const auto stats = Spans::Summarize();
  for (const auto& [name, st] : stats) {
    r->Metric("span." + name + ".self_ms", st.self_ms / st.count, "ms",
              Source::kWall, st.count);
  }
  auto mean = [&](const char* span, const char* metric, const char* unit,
                  double scale) {
    auto it = stats.find(span);
    if (it == stats.end()) return;
    r->Metric(metric, it->second.total_ms / it->second.count * scale, unit,
              Source::kWall, it->second.count);
  };
  mean("sql.parse", "sql.parse_us", "us", 1000);
  mean("optimizer.plan", "optimizer.plan_us", "us", 1000);
  // TransactionManager::Commit itself; the txn.commit_ns histogram
  // measures begin-to-commit lifetime instead.
  mean("txn.commit", "txn.commit_ms", "ms", 1);
  r->Info("spans", static_cast<double>(Spans::Count()));
  (void)Spans::WriteChromeJson(o.work_dir + "/spans-" + o.workload + "-seed" +
                               std::to_string(o.seed) + ".json");
}

}  // namespace pb
