// htap_wire: a closed loop of 4 client sessions with no think time, each
// sending SQL text over hd-proto/1 to an in-process hd_server on an
// ephemeral port (shared scans, 4 admission slots, WAL in group-commit
// mode, checkpoint after the bulk load). The table is lineitem under the
// paper's winning hybrid design (Fig. 6 design B): a B+ tree primary on
// (l_orderkey, l_linenumber), a secondary B+ tree on l_shipdate and a
// secondary columnstore, with the buffer pool sized below the data.
//
// Mix per session: 72% read (point SELECT by l_orderkey), 12% UPDATE by
// key, 11% INSERT, 2% report transaction (BEGIN; INSERT; SELECT SUM over
// a shipdate range; COMMIT at Read Committed), 3% scan (autocommit range
// aggregate on the columnstore). The report transaction takes IX and
// then a table S lock, the shape behind the lock-timeout "deadlock"
// aborts; victims retry with capped, jittered backoff.
//
// The traced run adds a traced wire window (client.query spans) and then
// replays the same seeded statement streams in-process on 4 threads
// through the calls a session makes: sql.parse -> optimizer.plan ->
// txn.begin -> exec.execute -> txn.commit.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/backoff.h"
#include "common/rng.h"
#include "engine_util.h"
#include "exec/admission.h"
#include "exec/scan_scheduler.h"
#include "optimizer/optimizer.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "workload/tpch.h"

namespace pb {

namespace {

constexpr int kSessions = 4;
constexpr int kSlices = 10;

struct HtapEnv {
  std::string dir;
  std::unique_ptr<hd::Database> db;
  std::unique_ptr<hd::Server> server;
  int64_t min_key = 0, max_key = 0;
  uint64_t initial_count = 0;
  double initial_qty = 0;
  uint64_t data_bytes = 0;
};

// ------------------------------------------------------------ statements

enum class Kind { kRead, kUpdate, kInsert, kReport, kScan };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRead: return "read";
    case Kind::kUpdate: return "update";
    case Kind::kInsert: return "insert";
    case Kind::kReport: return "report";
    case Kind::kScan: return "scan";
  }
  return "?";
}

struct Op {
  Kind kind;
  int64_t key = 0;
  std::vector<std::string> stmts;
};

/// Bytes of user data an INSERT carries: 11 numeric columns of 8 bytes
/// plus the three short strings below.
constexpr double kInsertUserBytes = 11 * 8 + 1 + 1 + 4;

/// The seeded statement stream of one session.
class OpStream {
 public:
  OpStream(uint64_t seed, int session, int stream, const HtapEnv& env)
      : rng_(seed * 1000003 + session * 7919 + stream * 104729),
        min_key_(env.min_key),
        max_key_(env.max_key),
        next_insert_(env.max_key + 1 +
                     (static_cast<int64_t>(stream) * kSessions + session) *
                         100'000'000) {}

  Op Next() {
    const int64_t u = rng_.Uniform(0, 99);
    Op op;
    if (u < 72) {
      op.kind = Kind::kRead;
      op.key = Key();
      op.stmts = {"SELECT l_orderkey, l_linenumber, l_quantity, "
                  "l_extendedprice, l_shipdate FROM lineitem WHERE "
                  "l_orderkey = " + std::to_string(op.key)};
    } else if (u < 84) {
      op.kind = Kind::kUpdate;
      op.key = Key();
      op.stmts = {"UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE "
                  "l_orderkey = " + std::to_string(op.key)};
    } else if (u < 95) {
      op.kind = Kind::kInsert;
      op.stmts = {Insert()};
    } else if (u < 97) {
      op.kind = Kind::kReport;
      const int64_t d = Date(60);
      op.stmts = {"BEGIN", Insert(),
                  "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE "
                  "l_shipdate BETWEEN " + std::to_string(d) + " AND " +
                      std::to_string(d + 60),
                  "COMMIT"};
    } else {
      op.kind = Kind::kScan;
      const int64_t d = Date(365);
      op.stmts = {"SELECT SUM(l_quantity), SUM(l_extendedprice), COUNT(*) "
                  "FROM lineitem WHERE l_shipdate BETWEEN " +
                  std::to_string(d) + " AND " + std::to_string(d + 365)};
    }
    return op;
  }

 private:
  int64_t Key() { return rng_.Uniform(min_key_, max_key_); }
  int64_t Date(int width) {
    return rng_.Uniform(hd::kTpchShipDateLo, hd::kTpchShipDateHi - width);
  }
  /// New order line with l_quantity 0, so SUM(l_quantity) moves only by
  /// the updates.
  std::string Insert() {
    const int64_t d = Date(60);
    return "INSERT INTO lineitem VALUES (" + std::to_string(next_insert_++) +
           ", 1, 0.0, " + std::to_string(rng_.Uniform(1000, 90000)) +
           ".5, 0.05, 0.02, " + std::to_string(d) + ", " +
           std::to_string(d + 30) + ", " + std::to_string(d + 40) + ", " +
           std::to_string(rng_.Uniform(1, 10000)) + ", " +
           std::to_string(rng_.Uniform(1, 200000)) + ", 'N', 'O', 'MAIL')";
  }

  hd::Rng rng_;
  int64_t min_key_, max_key_;
  int64_t next_insert_;
};

// ----------------------------------------------------------- connections

struct StmtResult {
  uint64_t row_count = 0;
  uint64_t affected_rows = 0;
  std::vector<hd::Row> rows;
};

/// One session's way of running a statement: over the wire, or
/// in-process through the calls the server's session makes.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual hd::Status Exec(const std::string& sql, StmtResult* out) = 0;
};

class WireConn : public Conn {
 public:
  explicit WireConn(Sample* wire_ms) : wire_ms_(wire_ms) {}
  hd::Status Connect(int port) {
    return client_.Connect("127.0.0.1", port, "perfbench");
  }
  ~WireConn() override { (void)client_.Close(); }

  hd::Status Exec(const std::string& sql, StmtResult* out) override {
    Span s("client.query");
    const double t0 = NowMs();
    hd::Result<hd::RemoteResult> r = client_.Query(sql);
    const double lat = NowMs() - t0;
    if (!r.ok()) return r.status();
    // Wire + session time: client latency minus the server's exec time.
    wire_ms_->Add(lat - r->exec_ms);
    out->row_count = r->row_count;
    out->affected_rows = r->affected_rows;
    out->rows = std::move(r->rows);
    return hd::Status::OK();
  }

 private:
  hd::Client client_;
  Sample* wire_ms_;
};

/// Process-wide engine objects of the in-process replay (the server's
/// TransactionManager, ScanScheduler and AdmissionController stand-ins).
struct LocalEngine {
  explicit LocalEngine(hd::Database* d) : db(d), admission(AdmissionOpts()) {
    txns.BindWal(d->wal());
  }
  static hd::AdmissionOptions AdmissionOpts() {
    hd::AdmissionOptions a;
    a.max_concurrent = 4;
    return a;
  }
  hd::Database* db;
  hd::TransactionManager txns;
  hd::ScanScheduler scans;
  hd::AdmissionController admission;
};

class LocalConn : public Conn {
 public:
  LocalConn(LocalEngine* eng, ExecAcc* acc) : eng_(eng), acc_(acc) {}
  ~LocalConn() override {
    if (txn_) eng_->txns.Abort(txn_.get());
  }

  hd::Status Exec(const std::string& sql, StmtResult* out) override {
    if (sql == "BEGIN") {
      Span s("txn.begin");
      txn_ = eng_->txns.Begin(hd::IsolationLevel::kReadCommitted);
      return hd::Status::OK();
    }
    if (sql == "COMMIT") {
      hd::Status st;
      {
        Span s("txn.commit");
        st = eng_->txns.Commit(txn_.get());
      }
      txn_.reset();
      return st;
    }
    if (sql == "ROLLBACK") {
      if (txn_) eng_->txns.Abort(txn_.get());
      txn_.reset();
      return hd::Status::OK();
    }
    const Cached* c = nullptr;
    HD_RETURN_IF_ERROR(Plan(sql, &c));
    hd::ExecContext ctx;
    ctx.db = eng_->db;
    ctx.scan_scheduler = &eng_->scans;
    ctx.admission = &eng_->admission;
    if (txn_) {
      ctx.txns = &eng_->txns;
      ctx.txn = txn_.get();
    }
    const double t0 = NowMs();
    const double c0 = ThreadCpuMs();
    hd::QueryResult r;
    {
      Span s("exec.execute");
      r = hd::Executor(ctx).Execute(c->query, c->plan);
    }
    acc_->Add(r, NowMs() - t0, ThreadCpuMs() - c0);
    if (!r.ok()) return r.status;
    out->row_count = r.row_count;
    out->affected_rows = r.affected_rows;
    out->rows = std::move(r.rows);
    return hd::Status::OK();
  }

 private:
  struct Cached {
    hd::Query query;
    hd::PhysicalPlan plan;
  };

  /// Parse + plan, behind a FIFO plan cache keyed by the exact statement
  /// text (the session's plan cache, 64 entries).
  hd::Status Plan(const std::string& sql, const Cached** out) {
    auto it = cache_.find(sql);
    if (it != cache_.end()) {
      *out = &it->second;
      return hd::Status::OK();
    }
    hd::Result<hd::Query> q = hd::Status::Internal("unset");
    {
      Span s("sql.parse");
      q = hd::ParseSql(*eng_->db, sql);
    }
    if (!q.ok()) return q.status();
    hd::Result<hd::Optimizer::PlanResult> pr = hd::Status::Internal("unset");
    {
      Span s("optimizer.plan");
      pr = hd::Optimizer(eng_->db).Plan(
          *q, hd::Configuration::FromCatalog(*eng_->db), hd::PlanOptions());
    }
    if (!pr.ok()) return pr.status();
    if (cache_.size() >= 64) {
      cache_.erase(order_.front());
      order_.pop_front();
    }
    order_.push_back(sql);
    *out = &cache_.emplace(sql, Cached{q.take(), pr->plan}).first->second;
    return hd::Status::OK();
  }

  LocalEngine* eng_;
  ExecAcc* acc_;
  std::unique_ptr<hd::Transaction> txn_;
  std::unordered_map<std::string, Cached> cache_;
  std::list<std::string> order_;
};

// --------------------------------------------------------------- sessions

/// What one window of client sessions did.
struct Window {
  Ledger ledger;
  Sample read, write, scan, all, wire;
  uint64_t acked_inserts = 0, acked_update_rows = 0, acked_writes = 0;
  /// Writes whose outcome the client cannot know (commit-time failure).
  uint64_t unknown_inserts = 0, unknown_update_rows_max = 0;
  uint64_t read_key_mismatches = 0;
  double user_bytes = 0;
  ExecAcc exec;
  std::vector<Slices::OpRec> ops;  // every operation, for the slices
  double wall_s = 0;

  void Merge(const Window& o) {
    ops.insert(ops.end(), o.ops.begin(), o.ops.end());
    ledger.Merge(o.ledger);
    read.Append(o.read);
    write.Append(o.write);
    scan.Append(o.scan);
    all.Append(o.all);
    wire.Append(o.wire);
    acked_inserts += o.acked_inserts;
    acked_update_rows += o.acked_update_rows;
    acked_writes += o.acked_writes;
    unknown_inserts += o.unknown_inserts;
    unknown_update_rows_max += o.unknown_update_rows_max;
    read_key_mismatches += o.read_key_mismatches;
    user_bytes += o.user_bytes;
    exec.Merge(o.exec);
  }
};

/// The report transaction, retried from the top when it is a deadlock
/// victim (Status::IsRetryable) with capped, jittered backoff.
hd::Status RunReport(Conn* c, const Op& op, uint64_t seed, Window* w) {
  hd::Backoff bo(/*base_ms=*/2, /*cap_ms=*/128, /*budget=*/30, seed);
  for (;;) {
    StmtResult res;
    hd::Status st = c->Exec(op.stmts[0], &res);  // BEGIN
    bool began = st.ok();
    for (size_t i = 1; st.ok() && i + 1 < op.stmts.size(); ++i) {
      st = c->Exec(op.stmts[i], &res);
    }
    if (st.ok()) {
      st = c->Exec(op.stmts.back(), &res);  // COMMIT
      began = false;  // the transaction is over either way
      if (st.ok()) {
        w->acked_inserts++;
        w->acked_writes++;
        w->user_bytes += kInsertUserBytes;
        return st;
      }
      // Durability unknown: must not retry (TransactionManager::Commit).
      w->unknown_inserts++;
      return st;
    }
    if (began) (void)c->Exec("ROLLBACK", &res);
    if (!st.IsRetryable()) return st;
    if (bo.Exhausted()) {
      return hd::Status::ResourceExhausted("retry budget spent: " +
                                           st.ToString());
    }
    w->ledger.Retry("report");
    bo.SleepNext();
  }
}

hd::Status RunOp(Conn* c, const Op& op, uint64_t seed, Window* w) {
  StmtResult res;
  switch (op.kind) {
    case Kind::kReport:
      return RunReport(c, op, seed, w);
    case Kind::kRead: {
      HD_RETURN_IF_ERROR(c->Exec(op.stmts[0], &res));
      for (const hd::Row& row : res.rows) {
        if (row.empty() || row[0].AsInt64() != op.key) {
          w->read_key_mismatches++;
        }
      }
      return hd::Status::OK();
    }
    case Kind::kUpdate: {
      hd::Status st = c->Exec(op.stmts[0], &res);
      if (!st.ok()) {
        w->unknown_update_rows_max += 8;  // an order has at most 7 lines
        return st;
      }
      w->acked_update_rows += res.affected_rows;
      w->acked_writes++;
      w->user_bytes += 8.0 * res.affected_rows;
      return st;
    }
    case Kind::kInsert: {
      hd::Status st = c->Exec(op.stmts[0], &res);
      if (!st.ok()) {
        w->unknown_inserts++;
        return st;
      }
      w->acked_inserts += res.affected_rows;
      w->acked_writes++;
      w->user_bytes += kInsertUserBytes;
      return st;
    }
    case Kind::kScan:
      return c->Exec(op.stmts[0], &res);
  }
  return hd::Status::Internal("unknown op");
}

/// Runs the sessions for `seconds` over `stream` (the same stream id gives
/// the same statements): over sockets, or through `local` when it is set
/// (the in-process replay). `slices`, when set, gets its CPU samples.
hd::Status RunWindow(HtapEnv* env, const Options& o, int stream,
                     double seconds, LocalEngine* local, Window* out,
                     Slices* slices = nullptr) {
  std::vector<Window> per(kSessions);
  std::vector<hd::Status> errs(kSessions);
  std::vector<std::thread> threads;
  const double start = NowMs();
  const double end = start + seconds * 1000;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Window& w = per[s];
      std::unique_ptr<Conn> conn;
      if (local != nullptr) {
        conn = std::make_unique<LocalConn>(local, &w.exec);
      } else {
        auto wc = std::make_unique<WireConn>(&w.wire);
        errs[s] = wc->Connect(env->server->port());
        if (!errs[s].ok()) return;
        conn = std::move(wc);
      }
      OpStream gen(o.seed, s, stream, *env);
      uint64_t n = 0;
      while (NowMs() < end) {
        const Op op = gen.Next();
        Spans::SetOp((static_cast<uint64_t>(stream * kSessions + s) << 40) |
                     ++n);
        const char* cls = KindName(op.kind);
        w.ledger.Attempt(cls);
        const double t0 = NowMs();
        hd::Status st = RunOp(conn.get(), op, o.seed ^ (n * 2654435761u), &w);
        const double t1 = NowMs();
        const double lat = t1 - t0;
        w.ops.push_back({t1, lat, st.ok()});
        if (!st.ok()) w.ledger.Fail(cls, st);
        // Failed operations stay in the latency sample.
        w.all.Add(lat);
        switch (op.kind) {
          case Kind::kRead: w.read.Add(lat); break;
          case Kind::kScan: w.scan.Add(lat); break;
          default: w.write.Add(lat); break;
        }
      }
    });
  }
  // The launching thread samples process CPU at the slice boundaries.
  while (slices != nullptr && NowMs() < end) {
    const double due = std::min(slices->next_due_ms(), end);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(0.0, due - NowMs())));
    slices->MaybeSampleCpu();
  }
  for (auto& t : threads) t.join();
  if (slices != nullptr) slices->MaybeSampleCpu();
  out->wall_s = (NowMs() - start) / 1000;
  for (int s = 0; s < kSessions; ++s) {
    HD_RETURN_IF_ERROR(errs[s]);
    out->Merge(per[s]);
  }
  return hd::Status::OK();
}

// ------------------------------------------------------------------ set-up

hd::Status CountAndSum(hd::Database* db, uint64_t* count, double* qty,
                       int64_t* min_key, int64_t* max_key) {
  HD_ASSIGN_OR_RETURN(
      hd::Query q,
      hd::ParseSql(*db, "SELECT COUNT(*), SUM(l_quantity), MIN(l_orderkey), "
                        "MAX(l_orderkey) FROM lineitem"));
  HD_ASSIGN_OR_RETURN(hd::Optimizer::PlanResult pr,
                      hd::Optimizer(db).Plan(
                          q, hd::Configuration::FromCatalog(*db)));
  hd::ExecContext ctx;
  ctx.db = db;
  hd::QueryResult r = hd::Executor(ctx).Execute(q, pr.plan);
  if (!r.ok()) return r.status;
  if (r.rows.size() != 1 || r.rows[0].size() != 4) {
    return hd::Status::Internal("unexpected COUNT/SUM result shape");
  }
  *count = static_cast<uint64_t>(r.rows[0][0].AsInt64());
  *qty = r.rows[0][1].AsDouble();
  if (min_key) *min_key = r.rows[0][2].AsInt64();
  if (max_key) *max_key = r.rows[0][3].AsInt64();
  return hd::Status::OK();
}

hd::Status Setup(const Options& o, uint64_t rows, int rep, HtapEnv* env) {
  env->dir = o.work_dir + "/htap-" + std::to_string(getpid()) + "-" +
             std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(env->dir, ec);
  std::filesystem::create_directories(env->dir, ec);
  if (ec) return hd::Status::IoError("cannot create " + env->dir);
  env->db = std::make_unique<hd::Database>();
  HD_RETURN_IF_ERROR(
      env->db->OpenDurability(env->dir, hd::DurabilityMode::kGroup));
  hd::TpchOptions to;
  to.rows = rows;
  to.seed = o.seed;
  hd::Table* li = hd::MakeLineitem(env->db.get(), "lineitem", to);
  if (li == nullptr) return hd::Status::Internal("lineitem load failed");
  using L = hd::LineitemCols;
  HD_RETURN_IF_ERROR(li->SetPrimary(hd::PrimaryKind::kBTree,
                                    {L::kOrderKey, L::kLineNumber}));
  HD_RETURN_IF_ERROR(
      li->CreateSecondaryBTree("ix_l_shipdate", {L::kShipDate}, {}));
  HD_RETURN_IF_ERROR(li->CreateSecondaryColumnStore("csi_lineitem"));
  li->Analyze();
  env->data_bytes = env->db->TotalSizeBytes();
  // Buffer pool below the data: eviction runs on the statement path.
  env->db->buffer_pool()->set_capacity_bytes(env->data_bytes / 2);
  HD_RETURN_IF_ERROR(env->db->Checkpoint());
  hd::ServerOptions so;
  so.port = 0;
  so.workers = kSessions;
  so.shared_scans = true;
  so.admission_slots = 4;
  env->server = std::make_unique<hd::Server>(env->db.get(), so);
  return env->server->Start();
}

void Teardown(HtapEnv* env) {
  if (env->server) env->server->Stop();
  env->server.reset();
  env->db.reset();
  std::error_code ec;
  if (!env->dir.empty()) std::filesystem::remove_all(env->dir, ec);
}

}  // namespace

hd::Status RunHtapWire(const Options& o, Report* r) {
  const uint64_t rows = o.tiny ? 20'000 : 400'000;
  const int setup_reps = o.tiny ? 1 : 3;

  std::vector<double> setup_s;
  HtapEnv env;
  for (int rep = 0; rep < setup_reps; ++rep) {
    Teardown(&env);
    const double t0 = NowMs();
    hd::Status st = Setup(o, rows, rep, &env);
    setup_s.push_back((NowMs() - t0) / 1000);
    if (!st.ok()) {
      Teardown(&env);
      return st;
    }
  }
  ReportSetup(r, setup_s);
  hd::Status st = CountAndSum(env.db.get(), &env.initial_count,
                              &env.initial_qty, &env.min_key, &env.max_key);
  if (!st.ok()) {
    Teardown(&env);
    return st;
  }
  r->Info("lineitem_rows", static_cast<double>(env.initial_count));
  r->Info("data_mb", env.data_bytes / 1048576.0);
  r->Info("buffer_pool_mb", env.data_bytes / 2 / 1048576.0);
  r->Info("sessions", kSessions);

  Window all;  // every window: the durability check needs every ack
  auto run = [&](int stream, double secs, LocalEngine* local, Window* w,
                 Slices* slices = nullptr) -> hd::Status {
    hd::Status s = RunWindow(&env, o, stream, secs, local, w, slices);
    all.Merge(*w);
    return s;
  };

  // Warm-up window (not measured), then the measured window.
  Window warm, main;
  TeleDelta tele;
  std::unique_ptr<Slices> slices;
  double queue_depth = 0, window_cpu_ms = 0;
  st = run(0, o.tiny ? 0.3 : 1.0, nullptr, &warm);
  if (st.ok()) {
    // The queue-depth sampler is a per-layer probe: traced runs only.
    std::unique_ptr<GaugeSampler> depth;
    if (o.trace) depth = std::make_unique<GaugeSampler>("pool.queue_depth", 1000);
    tele.Begin();
    const double c0 = ProcessCpuMs();
    slices = std::make_unique<Slices>(NowMs(), o.seconds, kSlices);
    st = run(1, o.seconds, nullptr, &main, slices.get());
    window_cpu_ms = ProcessCpuMs() - c0;
    tele.End();
    slices->Add(main.ops);
    if (depth) queue_depth = depth->Stop();
  }
  if (!st.ok()) {
    Teardown(&env);
    return st;
  }
  r->ledger.Merge(main.ledger);
  const uint64_t done = main.ledger.attempted() - main.ledger.failed();
  r->Metric("throughput_ops_s", done / main.wall_s, "1/s", Source::kWall,
            done);
  r->Metric("op_p50_ms", main.all.Median(), "ms", Source::kWall,
            main.all.n());
  // Medians over the window's slices; CPU counts every thread of the
  // process (clients, server, WAL writer, pool).
  r->Metric("op_geomean_ms", slices->MedianGeoMeanMs(), "ms", Source::kWall,
            slices->count());
  r->Metric("cpu_per_op_ms", slices->MedianCpuPerOpMs(), "ms",
            Source::kThreadCpu, slices->count());
  r->Info("window_op_geomean_ms", main.all.GeoMean());
  r->Info("window_cpu_per_op_ms", done ? window_cpu_ms / done : 0);
  r->Metric("scan_p50_ms", main.scan.Median(), "ms", Source::kWall,
            main.scan.n());
  r->Metric("scan_p90_ms", main.scan.Pct(90), "ms", Source::kWall,
            main.scan.n());
  r->Metric("read_p50_ms", main.read.Median(), "ms", Source::kWall,
            main.read.n());
  r->Metric("read_p99_ms", main.read.Pct(99), "ms", Source::kWall,
            main.read.n());
  r->Metric("write_p50_ms", main.write.Median(), "ms", Source::kWall,
            main.write.n());
  r->Metric("write_p99_ms", main.write.Pct(99), "ms", Source::kWall,
            main.write.n());
  r->Info("window_s", main.wall_s);
  r->Metric("storage_per_user_byte", StoragePerUserByte(*env.db), "ratio",
            Source::kCount);

  if (o.trace) {
    const double stmts = tele.Counter("server.queries");
    ReportTelemetry(r, tele, queue_depth);
    r->Metric("server.wire_ms", main.wire.Median(), "ms", Source::kWall,
              main.wire.n());
    r->Metric("server.plan_cache_hit_rate",
              stmts ? tele.Counter("server.plan_cache_hits") / stmts : 0,
              "ratio", Source::kCount);
    r->Metric("server.bytes_per_stmt",
              stmts ? (tele.Counter("server.bytes_in") +
                       tele.Counter("server.bytes_out")) / stmts
                    : 0,
              "B", Source::kCount);
    r->Metric("qstore.recorded_per_stmt",
              stmts ? tele.Counter("qstore.recorded") / stmts : 0, "ratio",
              Source::kCount);
    const double scans_done =
        main.ledger.attempted("scan") - main.ledger.failed("scan");
    r->Metric("scan.shared_attach_rate",
              scans_done ? tele.Counter("scan.shared_attaches") / scans_done
                         : 0,
              "ratio", Source::kCount);
    r->Metric("wal.fsyncs_per_commit",
              main.acked_writes
                  ? static_cast<double>(tele.Counter("wal.fsyncs")) /
                        main.acked_writes
                  : 0,
              "ratio", Source::kCount);
    r->Metric("wal.bytes_per_user_byte",
              main.user_bytes > 0 ? tele.Counter("wal.bytes") / main.user_bytes
                                  : 0,
              "ratio", Source::kCount);
    r->Metric("txn.retries", main.ledger.retries(), "count", Source::kCount);
    r->Metric("txn.versions_end",
              static_cast<double>(env.server->txns()->version_count()),
              "count", Source::kCount);

    // Traced wire window over the same statement stream.
    Window traced;
    Spans::Clear();
    Spans::Enable(true);
    st = run(1, o.seconds, nullptr, &traced);
    Spans::Enable(false);
    r->Metric("trace.overhead_pct",
              main.all.Mean() > 0
                  ? 100 * (traced.all.Mean() - main.all.Mean()) /
                        main.all.Mean()
                  : 0,
              "%", Source::kWall);
    // In-process replay of the same streams, one span per stage.
    Window replay;
    if (st.ok()) {
      env.server->Stop();
      LocalEngine local(env.db.get());
      Spans::Enable(true);
      st = run(1, o.seconds, &local, &replay);
      Spans::Enable(false);
    }
    if (!st.ok()) {
      Teardown(&env);
      return st;
    }
    replay.exec.ReportTo(r);
    ReportSpans(r, o);
  }

  r->Check("htap.reads_return_requested_key", all.read_key_mismatches == 0,
           std::to_string(all.read_key_mismatches) + " mismatching rows");

  // Durability: drop the server and the database without a final
  // checkpoint, recover the data dir, and find every acknowledged write.
  if (env.server) env.server->Stop();
  env.server.reset();
  env.db.reset();
  auto recovered = std::make_unique<hd::Database>();
  hd::RecoveryStats rs;
  st = recovered->OpenDurability(env.dir, hd::DurabilityMode::kGroup,
                                 hd::WalOptions(), &rs);
  uint64_t count = 0;
  double qty = 0;
  if (st.ok()) st = CountAndSum(recovered.get(), &count, &qty, nullptr, nullptr);
  recovered.reset();
  const uint64_t want_lo = env.initial_count + all.acked_inserts;
  const uint64_t want_hi = want_lo + all.unknown_inserts;
  const double dq = qty - env.initial_qty;
  const double dq_lo = static_cast<double>(all.acked_update_rows);
  const double dq_hi = dq_lo + all.unknown_update_rows_max;
  const double tol = 1e-9 * std::max(1.0, env.initial_qty) + 1e-6;
  r->Check("htap.recovered_count_matches_acks",
           st.ok() && count >= want_lo && count <= want_hi,
           st.ok() ? "COUNT(*) " + std::to_string(count) + ", expected " +
                         std::to_string(want_lo) +
                         (want_hi > want_lo ? ".." + std::to_string(want_hi)
                                            : "") +
                         " (initial " + std::to_string(env.initial_count) +
                         " + " + std::to_string(all.acked_inserts) +
                         " acked inserts); redo " +
                         std::to_string(rs.redo_records) + " records"
                   : st.ToString());
  r->Check("htap.recovered_sum_matches_acks",
           st.ok() && dq >= dq_lo - tol && dq <= dq_hi + tol,
           "SUM(l_quantity) delta " + std::to_string(dq) + ", expected " +
               std::to_string(dq_lo) + " (acked update rows)");
  r->Info("recovery_ms", rs.restart_ms);
  Teardown(&env);
  return hd::Status::OK();
}

}  // namespace pb
