// ch_analytics: one client thread runs the ten CH analytic templates
// in-process, hot, at max_dop = host cores, over the CH B+ tree baseline
// plus secondary columnstores on order_line, item and orders (the design
// the advisor recommends for CH, applied directly). The buffer pool is
// unbounded, so all data is resident. Time goes to exec (scan kernels,
// join hash + Bloom, agg hash), columnstore decode and the morsel pool;
// the wire, locks and the WAL are bypassed.
#include <memory>

#include "bench.h"
#include "engine_util.h"
#include "optimizer/optimizer.h"
#include "workload/ch.h"

namespace pb {

namespace {

constexpr int kSlices = 10;

void ApplyChDesign(hd::Database* db) {
  using C = hd::ChCols;
  // TPC-C-style B+ tree baseline ...
  (void)db->GetTable("customer")->SetPrimary(hd::PrimaryKind::kBTree,
                                             {C::kCUid});
  (void)db->GetTable("orders")->SetPrimary(hd::PrimaryKind::kBTree,
                                           {C::kOUid});
  (void)db->GetTable("orders")->CreateSecondaryBTree("ix_o_cust",
                                                     {C::kOCUid}, {});
  (void)db->GetTable("order_line")
      ->SetPrimary(hd::PrimaryKind::kBTree, {C::kOlOUid, C::kOlNumber});
  (void)db->GetTable("stock")->SetPrimary(hd::PrimaryKind::kBTree,
                                          {C::kSUid});
  (void)db->GetTable("item")->SetPrimary(hd::PrimaryKind::kBTree, {C::kIId});
  (void)db->GetTable("district")->SetPrimary(hd::PrimaryKind::kBTree, {0});
  // ... plus the recommended secondary columnstores.
  for (const char* t : {"order_line", "item", "orders"}) {
    (void)db->GetTable(t)->CreateSecondaryColumnStore(std::string("csi_") + t);
  }
  for (auto& [n, t] : db->tables()) t->Analyze();
}

struct Planned {
  const hd::Query* q;
  hd::PhysicalPlan plan;
};

/// One timed pass over `qs`: plan + execute each, closed loop, until
/// `end_ms`. Returns the number of queries completed.
void TimedLoop(hd::Database* db, const hd::Configuration& cfg,
               const std::vector<hd::Query>& qs, double end_ms, Sample* lat,
               Ledger* ledger, ExecAcc* acc, size_t* cursor,
               Slices* slices = nullptr) {
  hd::Optimizer opt(db);
  hd::PlanOptions po;
  po.max_dop = HostCores();
  hd::ExecContext ctx;
  ctx.db = db;
  ctx.max_dop = HostCores();
  uint64_t op = 0;
  std::vector<Slices::OpRec> ops;
  while (NowMs() < end_ms) {
    if (slices) slices->MaybeSampleCpu();
    const hd::Query& q = qs[(*cursor)++ % qs.size()];
    Spans::SetOp(++op);
    ledger->Attempt("scan");
    const double t0 = NowMs();
    hd::Result<hd::Optimizer::PlanResult> pr = hd::Status::Internal("unset");
    {
      Span s("optimizer.plan");
      pr = opt.Plan(q, cfg, po);
    }
    if (!pr.ok()) {
      ledger->Fail("scan", pr.status());
      lat->Add(NowMs() - t0);
      ops.push_back({NowMs(), NowMs() - t0, false});
      continue;
    }
    const double t1 = NowMs();
    const double c1 = ProcessCpuMs();
    hd::QueryResult r;
    {
      Span s("exec.execute");
      r = hd::Executor(ctx).Execute(q, pr->plan);
    }
    const double t2 = NowMs();
    lat->Add(t2 - t0);
    ops.push_back({t2, t2 - t0, r.ok()});
    if (!r.ok()) {
      ledger->Fail("scan", r.status);
      continue;
    }
    acc->Add(r, t2 - t1, ProcessCpuMs() - c1);
  }
  if (slices) {
    slices->MaybeSampleCpu();
    slices->Add(ops);
  }
}

}  // namespace

hd::Status RunChAnalytics(const Options& o, Report* r) {
  hd::ChOptions co;
  co.warehouses = o.tiny ? 1 : 16;
  co.seed = o.seed;
  const int setup_reps = o.tiny ? 1 : 3;

  std::vector<double> setup_s;
  std::unique_ptr<hd::Database> db;
  std::unique_ptr<hd::ChBenchmark> ch;
  for (int rep = 0; rep < setup_reps; ++rep) {
    ch.reset();
    db.reset();
    const double t0 = NowMs();
    db = std::make_unique<hd::Database>();
    ch = std::make_unique<hd::ChBenchmark>(db.get(), co);
    ApplyChDesign(db.get());
    setup_s.push_back((NowMs() - t0) / 1000);
  }
  ReportSetup(r, setup_s);
  const uint64_t ol_rows = db->GetTable("order_line")->num_rows();
  r->Info("warehouses", co.warehouses);
  r->Info("order_line_rows", static_cast<double>(ol_rows));
  r->Info("data_mb", db->TotalSizeBytes() / 1048576.0);
  r->Metric("storage_per_user_byte", StoragePerUserByte(*db), "ratio",
            Source::kCount);
  r->Info("max_dop", HostCores());

  // Query instances: the ten templates with many parameter draws, so one
  // run's mix does not hinge on a few draws.
  std::vector<hd::Query> qs;
  for (uint64_t i = 0; i < 32; ++i) {
    for (auto& q : ch->AnalyticQueries(o.seed * 1000 + i)) {
      qs.push_back(std::move(q));
    }
  }
  r->Info("query_instances", static_cast<double>(qs.size()));

  const hd::Configuration cfg = hd::Configuration::FromCatalog(*db);
  const hd::Configuration oracle_cfg = WithoutCsi(cfg);
  hd::Optimizer opt(db.get());
  hd::PlanOptions po;
  po.max_dop = HostCores();

  // Correctness, outside the timed window: each template's result under
  // the design equals the row-mode oracle (the same query planned with
  // the catalog's columnstores removed from the configuration).
  {
    int mismatches = 0, compared = 0, csi_plans = 0, capped_results = 0;
    std::string detail;
    hd::ExecContext ctx;
    ctx.db = db.get();
    ctx.max_dop = HostCores();
    for (size_t i = 0; i < 10 && i < qs.size(); ++i) {
      const hd::Query& q = qs[i];
      auto a = opt.Plan(q, cfg, po);
      auto b = opt.Plan(q, oracle_cfg, po);
      if (!a.ok() || !b.ok()) {
        ++mismatches;
        detail += q.id + ": plan failed; ";
        continue;
      }
      csi_plans += a->plan.leaf_csi_count() > 0;
      const hd::QueryResult ra = hd::Executor(ctx).Execute(q, a->plan);
      const hd::QueryResult rb = hd::Executor(ctx).Execute(q, b->plan);
      std::string why;
      ++compared;
      // A result over the executor's materialization cap keeps a
      // plan-dependent subset of its groups (the cap applies before any
      // ORDER BY): compare the groups both sides kept.
      const bool capped = ra.ok() && rb.ok() && (Truncated(ra) || Truncated(rb));
      size_t overlap = 0;
      const bool same = capped ? SameOnSharedKeys(ra, rb, &overlap, &why)
                               : SameResults(ra, rb, &why);
      if (capped) {
        ++capped_results;
        detail += q.id + " over the row cap, " + std::to_string(overlap) +
                  " shared groups compared; ";
      }
      if (!ra.ok() || !rb.ok() || !same) {
        ++mismatches;
        detail += q.id + ": " +
                  (!ra.ok()   ? ra.status.ToString()
                   : !rb.ok() ? rb.status.ToString()
                              : why) +
                  "; ";
      }
    }
    r->Check("ch.results_match_row_mode_oracle",
             mismatches == 0 && compared == 10,
             std::to_string(compared) + " templates compared, " +
                 std::to_string(csi_plans) + " on columnstore plans, " +
                 std::to_string(capped_results) + " over the row cap. " +
                 detail);
  }

  // Warm-up pass over every instance, untimed.
  {
    Sample lat;
    Ledger ledger;
    ExecAcc acc;
    size_t cursor = 0;
    const double end = NowMs() + (o.tiny ? 200 : 1500);
    TimedLoop(db.get(), cfg, qs, end, &lat, &ledger, &acc, &cursor);
  }

  // Measured window, tracing off.
  Sample lat;
  ExecAcc acc;
  TeleDelta tele;
  size_t cursor = 0;
  double window_s = 0, window_cpu_ms = 0;
  std::unique_ptr<Slices> slices;
  {
    // The queue-depth sampler is a per-layer probe: traced runs only.
    std::unique_ptr<GaugeSampler> depth;
    if (o.trace) depth = std::make_unique<GaugeSampler>("pool.queue_depth", 1000);
    tele.Begin();
    const double t0 = NowMs();
    const double c0 = ProcessCpuMs();
    slices = std::make_unique<Slices>(t0, o.seconds, kSlices);
    TimedLoop(db.get(), cfg, qs, t0 + o.seconds * 1000, &lat, &r->ledger, &acc,
              &cursor, slices.get());
    window_s = (NowMs() - t0) / 1000;
    window_cpu_ms = ProcessCpuMs() - c0;
    tele.End();
    ReportTelemetry(r, tele, depth ? depth->Stop() : 0);
  }
  const uint64_t done = r->ledger.attempted() - r->ledger.failed();
  r->Metric("throughput_ops_s", done / window_s, "1/s", Source::kWall, done);
  r->Metric("op_p50_ms", lat.Median(), "ms", Source::kWall, lat.n());
  // Medians over the window's slices (see Slices).
  r->Metric("op_geomean_ms", slices->MedianGeoMeanMs(), "ms", Source::kWall,
            slices->count());
  r->Metric("cpu_per_op_ms", slices->MedianCpuPerOpMs(), "ms",
            Source::kThreadCpu, slices->count());
  r->Info("window_op_geomean_ms", lat.GeoMean());
  r->Info("window_cpu_per_op_ms", done ? window_cpu_ms / done : 0);
  r->Metric("scan_p50_ms", lat.Median(), "ms", Source::kWall, lat.n());
  r->Metric("scan_p90_ms", lat.Pct(90), "ms", Source::kWall, lat.n());
  r->Info("window_s", window_s);

  if (o.trace) {
    acc.ReportTo(r);
    // Traced window: same loop with spans on.
    Sample tlat;
    Ledger tledger;
    ExecAcc tacc;
    Spans::Clear();
    Spans::Enable(true);
    TimedLoop(db.get(), cfg, qs, NowMs() + o.seconds * 1000, &tlat, &tledger,
              &tacc, &cursor);
    Spans::Enable(false);
    r->Metric("trace.overhead_pct",
              lat.Mean() > 0 ? 100 * (tlat.Mean() - lat.Mean()) / lat.Mean()
                             : 0,
              "%", Source::kWall);
    ReportSpans(r, o);
  }
  return hd::Status::OK();
}

}  // namespace pb
