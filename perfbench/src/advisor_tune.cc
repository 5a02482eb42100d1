// advisor_tune: the advisor path. For each input (TPC-DS and Cust5) the
// advisor recommends a hybrid design, the design is built, and every
// statement of the input executes at DOP 1 under it; the same statements
// then execute under the columnstore-only design. The advisor is judged
// by the measured CPU of the design it recommends, not by its estimate.
//
// The inputs are the calibrated generators at their own seeds (TPC-DS
// seed 2018, the Cust5 profile seed), so the workloads are the named
// ones; --seed drives the size-estimation sample the advisor draws and
// the order statements execute in.
#include <cmath>
#include <map>
#include <memory>

#include "bench.h"
#include "core/advisor.h"
#include "engine_util.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "workload/customer.h"
#include "workload/tpcds.h"

namespace pb {

namespace {

struct Input {
  std::string name;
  std::unique_ptr<hd::Database> db;
  std::vector<hd::Query> queries;
  /// Results with no secondary structures: the correctness reference.
  std::vector<hd::QueryResult> reference;
};

/// Per-query measured CPU (median over reps) and results of one design.
struct DesignRun {
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;  // per statement, median over reps
  std::vector<hd::QueryResult> results;
  double total_cpu_ms = 0;
  /// Sum of QueryMetrics::cpu_ms (median over reps): measured worker time
  /// plus the simulated row-mode overhead.
  double total_engine_cpu_ms = 0;
  /// Measured CPU of each statement's first execution after the design
  /// was built (bench_fig9_speedup times only that one).
  double total_first_cpu_ms = 0;
};

DesignRun ExecuteAll(Input* in, const std::vector<size_t>& order, int reps,
                     Sample* lat, Ledger* ledger, ExecAcc* acc) {
  hd::Optimizer opt(in->db.get());
  const hd::Configuration cfg = hd::Configuration::FromCatalog(*in->db);
  hd::PlanOptions po;
  po.max_dop = 1;
  hd::ExecContext ctx;
  ctx.db = in->db.get();
  ctx.max_dop = 1;
  DesignRun out;
  std::vector<std::vector<double>> cpu(in->queries.size());
  std::vector<std::vector<double>> wall(in->queries.size());
  std::vector<std::vector<double>> engine_cpu(in->queries.size());
  out.results.resize(in->queries.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t qi : order) {
      const hd::Query& q = in->queries[qi];
      if (ledger) ledger->Attempt("statement");
      const double t0 = NowMs();
      hd::Result<hd::Optimizer::PlanResult> pr = hd::Status::Internal("unset");
      {
        Span s("optimizer.plan");
        pr = opt.Plan(q, cfg, po);
      }
      if (!pr.ok()) {
        if (ledger) ledger->Fail("statement", pr.status());
        if (lat) lat->Add(NowMs() - t0);
        out.results[qi].status = pr.status();
        continue;
      }
      const double t1 = NowMs();
      const double c1 = ProcessCpuMs();
      hd::QueryResult r;
      {
        Span s("exec.execute");
        r = hd::Executor(ctx).Execute(q, pr->plan);
      }
      const double c2 = ProcessCpuMs();
      const double t2 = NowMs();
      if (lat) lat->Add(t2 - t0);
      if (!r.ok() && ledger) ledger->Fail("statement", r.status);
      if (acc && r.ok()) acc->Add(r, t2 - t1, c2 - c1);
      cpu[qi].push_back(c2 - c1);
      wall[qi].push_back(t2 - t0);
      engine_cpu[qi].push_back(r.metrics.cpu_ms());
      if (rep == 0) out.results[qi] = std::move(r);
    }
  }
  for (size_t qi = 0; qi < cpu.size(); ++qi) {
    out.cpu_ms.push_back(MedianOf(cpu[qi]));
    out.wall_ms.push_back(MedianOf(wall[qi]));
    out.total_cpu_ms += out.cpu_ms.back();
    out.total_engine_cpu_ms += MedianOf(engine_cpu[qi]);
    if (!cpu[qi].empty()) out.total_first_cpu_ms += cpu[qi].front();
  }
  return out;
}

int CompareResults(const Input& in, const DesignRun& run, std::string* detail) {
  int bad = 0;
  for (size_t qi = 0; qi < in.queries.size(); ++qi) {
    std::string why;
    const hd::QueryResult& a = run.results[qi];
    const hd::QueryResult& b = in.reference[qi];
    if (!a.ok() || !b.ok() || !SameResults(a, b, &why)) {
      if (bad++ < 3) {
        *detail += in.queries[qi].id + ": " +
                   (!a.ok() ? a.status.ToString()
                            : !b.ok() ? b.status.ToString() : why) +
                   "; ";
      }
    }
  }
  return bad;
}

hd::Result<hd::Recommendation> Recommend(Input* in, hd::AdvisorMode mode,
                                         uint64_t seed) {
  hd::AdvisorOptions ao;
  ao.mode = mode;
  ao.size_opts.seed = seed;
  hd::Advisor advisor(in->db.get(), ao);
  return advisor.Recommend(in->queries);
}


/// Aggregates of the tuning rounds of one window.
struct Rounds {
  int rounds = 0;
  Sample lat;  // every statement execution under the recommended designs
  Sample stmt_ms;  // per statement, median over its executions
  ExecAcc acc;
  std::vector<double> tune_s, design_cpu, vs_csi;  // one per round
  std::vector<double> round_cpu_ms;  // process CPU of each round
  std::vector<double> recommend_ms, materialize_ms;  // one per input tuned
  std::vector<double> est_err;  // |log2(estimate / measured CPU)|
  std::map<std::string, std::string> hashes;
  bool hashes_repeat = true;
  int mismatched = 0;
  std::string mismatch_detail;
  /// Last round, per input: (key, value) pairs for the report.
  std::vector<std::pair<std::string, double>> per_input;
  /// Last round: database bytes under the hybrid designs and the
  /// uncompressed row bytes they hold, summed over inputs.
  double design_db_bytes = 0, user_bytes = 0;
  // Last round, summed over inputs.
  HookTotals hooks;
  double candidates = 0, kept = 0, design_mb = 0, est_gain = 0;
};

/// Tuning rounds until `seconds` have passed (at least one round). Each
/// round tunes, builds and executes every input under its hybrid design,
/// then under its columnstore-only design.
hd::Status RunRounds(std::vector<Input>* inputs, const Options& o,
                     int exec_reps, double seconds, hd::Rng* order_rng,
                     Ledger* ledger, Rounds* out) {
  const double end = NowMs() + seconds * 1000;
  uint64_t op = 0;
  do {
    const double round_c0 = ProcessCpuMs();
    double tune_s = 0, design_cpu = 0, log_ratio = 0;
    out->hooks = HookTotals();
    out->per_input.clear();
    out->design_db_bytes = out->user_bytes = 0;
    out->candidates = out->kept = out->design_mb = out->est_gain = 0;
    for (Input& in : *inputs) {
      std::vector<size_t> order(in.queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      order_rng->Shuffle(&order);

      // Hybrid: recommend, build, execute.
      Spans::SetOp(++op);
      ledger->Attempt("tune");
      ResetHooks();
      const double t0 = NowMs();
      hd::Result<hd::Recommendation> rec = hd::Status::Internal("unset");
      {
        Span s("core.recommend");
        rec = Recommend(&in, hd::AdvisorMode::kHybrid, o.seed);
      }
      const double t1 = NowMs();
      if (!rec.ok()) {
        ledger->Fail("tune", rec.status());
        return rec.status();
      }
      hd::Status st;
      {
        Span s("config.materialize");
        st = hd::MaterializeConfiguration(in.db.get(), rec->config);
      }
      const double t2 = NowMs();
      if (!st.ok()) {
        ledger->Fail("tune", st);
        return st;
      }
      const HookTotals h = ReadHooks();
      tune_s += (t2 - t0) / 1000;
      out->recommend_ms.push_back(t1 - t0);
      out->materialize_ms.push_back(t2 - t1);
      out->hooks.whatif_calls += h.whatif_calls;
      out->hooks.whatif_ms += h.whatif_ms;
      out->hooks.candidates_ms += h.candidates_ms;
      out->hooks.size_est_ms += h.size_est_ms;
      out->candidates += rec->candidates_generated;
      out->kept += rec->candidates_after_pruning;
      out->design_mb +=
          hd::Configuration::FromCatalog(*in.db).SecondaryBytes() / 1048576.0;
      out->design_db_bytes += in.db->TotalSizeBytes();
      out->user_bytes += UserBytes(*in.db);
      if (rec->initial_cost_ms > 0) {
        out->est_gain += (1 - rec->final_cost_ms / rec->initial_cost_ms) /
                         inputs->size();
      }
      const std::string hash = Hex16(Fnv1a(rec->config.Describe()));
      auto [it, fresh] = out->hashes.emplace(in.name, hash);
      if (!fresh && it->second != hash) out->hashes_repeat = false;

      DesignRun hy =
          ExecuteAll(&in, order, exec_reps, &out->lat, ledger, &out->acc);
      out->mismatched += CompareResults(in, hy, &out->mismatch_detail);
      for (double ms : hy.wall_ms) out->stmt_ms.Add(ms);
      for (size_t qi = 0; qi < in.queries.size(); ++qi) {
        const double est = rec->per_query_final_ms[qi];
        const double got = hy.cpu_ms[qi];
        if (est > 0 && got > 0) {
          out->est_err.push_back(std::fabs(std::log2(est / got)));
        }
      }

      // Columnstore-only design over the same statements.
      Spans::SetOp(++op);
      auto csi_rec = Recommend(&in, hd::AdvisorMode::kCsiOnly, o.seed);
      if (!csi_rec.ok()) return csi_rec.status();
      HD_RETURN_IF_ERROR(
          hd::MaterializeConfiguration(in.db.get(), csi_rec->config));
      DesignRun csi =
          ExecuteAll(&in, order, exec_reps, nullptr, nullptr, nullptr);
      out->mismatched += CompareResults(in, csi, &out->mismatch_detail);

      design_cpu += hy.total_cpu_ms;
      const double ratio =
          hy.total_cpu_ms / std::max(1e-6, csi.total_cpu_ms);
      log_ratio += std::log(ratio);
      out->per_input.emplace_back(in.name + ".tune_s", (t2 - t0) / 1000);
      out->per_input.emplace_back(in.name + ".hybrid_cpu_ms", hy.total_cpu_ms);
      out->per_input.emplace_back(in.name + ".csi_only_cpu_ms",
                                  csi.total_cpu_ms);
      out->per_input.emplace_back(in.name + ".hybrid_vs_csi", ratio);
      out->per_input.emplace_back(in.name + ".hybrid_engine_cpu_ms",
                                  hy.total_engine_cpu_ms);
      out->per_input.emplace_back(in.name + ".csi_only_engine_cpu_ms",
                                  csi.total_engine_cpu_ms);
      out->per_input.emplace_back(
          in.name + ".hybrid_vs_csi_first_run",
          hy.total_first_cpu_ms / std::max(1e-6, csi.total_first_cpu_ms));
      std::fprintf(stderr,
                   "round %d %s: tune %.2f s, hybrid %.1f ms CPU, "
                   "csi-only %.1f ms CPU\n",
                   out->rounds, in.name.c_str(), (t2 - t0) / 1000,
                   hy.total_cpu_ms, csi.total_cpu_ms);
    }
    out->round_cpu_ms.push_back(ProcessCpuMs() - round_c0);
    out->tune_s.push_back(tune_s);
    out->design_cpu.push_back(design_cpu);
    out->vs_csi.push_back(std::exp(log_ratio / inputs->size()));
    out->rounds++;
  } while (NowMs() < end);
  return hd::Status::OK();
}

}  // namespace

hd::Status RunAdvisorTune(const Options& o, Report* r) {
  const double scale = o.tiny ? 0.01 : 0.05;
  const int setup_reps = o.tiny ? 1 : 3;
  const int exec_reps = o.tiny ? 1 : 3;

  std::vector<double> setup_s;
  std::vector<Input> inputs;
  for (int rep = 0; rep < setup_reps; ++rep) {
    inputs.clear();
    const double t0 = NowMs();
    {
      Input in;
      in.name = "tpcds";
      in.db = std::make_unique<hd::Database>();
      hd::TpcdsOptions to;
      to.fact_rows = static_cast<uint64_t>(400'000 * scale);
      if (o.tiny) to.num_queries = 24;
      in.queries = hd::MakeTpcds(in.db.get(), to).queries;
      inputs.push_back(std::move(in));
    }
    {
      Input in;
      in.name = "cust5";
      in.db = std::make_unique<hd::Database>();
      hd::CustomerProfile p = hd::CustProfile(5);
      if (o.tiny) p.num_queries = 6;
      in.queries = hd::MakeCustomer(in.db.get(), p, scale).queries;
      inputs.push_back(std::move(in));
    }
    setup_s.push_back((NowMs() - t0) / 1000);
  }
  ReportSetup(r, setup_s);
  size_t statements = 0;
  for (const Input& in : inputs) {
    statements += in.queries.size();
    r->Info(in.name + ".statements", static_cast<double>(in.queries.size()));
    r->Info(in.name + ".data_mb", in.db->TotalSizeBytes() / 1048576.0);
  }
  r->Info("scale", scale);

  // Reference results with no secondaries (untimed).
  for (Input& in : inputs) {
    HD_RETURN_IF_ERROR(hd::MaterializeConfiguration(
        in.db.get(),
        WithoutSecondaries(hd::Configuration::FromCatalog(*in.db))));
    std::vector<size_t> order(in.queries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    in.reference =
        ExecuteAll(&in, order, 1, nullptr, nullptr, nullptr).results;
  }

  hd::Rng order_rng(o.seed);
  Rounds main;
  HD_RETURN_IF_ERROR(RunRounds(&inputs, o, exec_reps, o.seconds, &order_rng,
                               &r->ledger, &main));
  Rounds traced;
  if (o.trace) {
    // One more round with spans on: the per-layer self times and the
    // tracing overhead (traced minus untraced tune time).
    Ledger tledger;
    Spans::Clear();
    Spans::Enable(true);
    HD_RETURN_IF_ERROR(RunRounds(&inputs, o, exec_reps, 0, &order_rng,
                                 &tledger, &traced));
    Spans::Enable(false);
  }
  const auto& hashes = main.hashes;
  const int rounds = main.rounds;
  const int mismatched = main.mismatched + traced.mismatched;
  const std::string& mismatch_detail = main.mismatch_detail;
  bool hashes_repeat = main.hashes_repeat && traced.hashes_repeat;
  for (const auto& [name, hash] : traced.hashes) {
    hashes_repeat &= hashes.at(name) == hash;
  }
  const Sample& lat = main.lat;
  const ExecAcc& acc = main.acc;
  for (const auto& [name, hash] : hashes) {
    r->Info(name + ".design_hash", hash);
    std::fprintf(stderr, "design hash %s %s\n", name.c_str(), hash.c_str());
  }
  r->Check("advisor.results_match_no_secondaries", mismatched == 0,
           std::to_string(mismatched) + " mismatching statements over " +
               std::to_string(rounds) + " round(s). " + mismatch_detail);
  r->Check("advisor.design_hash_repeats", hashes_repeat,
           std::to_string(rounds) + " round(s) compared");
  r->Check("advisor.hooks_linked", HooksLinked(),
           "what-if/candidate/size-estimation calls counted at the link seam");

  const double tune = MedianOf(main.tune_s);
  r->Info("rounds", rounds);
  for (const auto& [key, value] : main.per_input) r->Info(key, value);
  r->Metric("throughput_ops_s", tune > 0 ? statements / tune : 0, "1/s",
            Source::kWall, rounds);
  r->Metric("op_p50_ms", lat.Median(), "ms", Source::kWall, lat.n());
  // Each statement's latency is the median of its executions.
  r->Metric("op_geomean_ms", main.stmt_ms.GeoMean(), "ms", Source::kWall,
            main.stmt_ms.n());
  // An operation here is one input statement taken through a round: tuned
  // under both modes, built, and executed under both designs.
  r->Metric("cpu_per_op_ms", MedianOf(main.round_cpu_ms) / statements, "ms",
            Source::kThreadCpu, rounds);
  r->Metric("scan_p50_ms", lat.Median(), "ms", Source::kWall, lat.n());
  r->Metric("scan_p90_ms", lat.Pct(90), "ms", Source::kWall, lat.n());
  r->Metric("tune_s", tune, "s", Source::kWall, rounds);
  r->Metric("storage_per_user_byte",
            main.user_bytes > 0 ? main.design_db_bytes / main.user_bytes : 0,
            "ratio", Source::kCount);
  r->Metric("design_cpu_ms", MedianOf(main.design_cpu), "ms",
            Source::kThreadCpu, rounds);
  r->Metric("design_vs_csi", MedianOf(main.vs_csi), "ratio",
            Source::kThreadCpu, rounds);

  if (o.trace) {
    acc.ReportTo(r);
    const HookTotals& h = main.hooks;
    r->Metric("optimizer.whatif_calls", h.whatif_calls, "count",
              Source::kCount);
    r->Metric("optimizer.whatif_us",
              h.whatif_calls ? h.whatif_ms * 1000 / h.whatif_calls : 0, "us",
              Source::kWall, h.whatif_calls);
    r->Metric("optimizer.est_error_log2", MedianOf(main.est_err), "log2",
              Source::kThreadCpu, main.est_err.size());
    r->Metric("core.recommend_ms",
              MedianOf(main.recommend_ms) * inputs.size(), "ms",
              Source::kWall, main.recommend_ms.size());
    r->Metric("core.candidates", main.candidates, "count", Source::kCount);
    r->Metric("core.candidates_kept", main.kept, "count", Source::kCount);
    r->Metric("core.candidates_ms", h.candidates_ms, "ms", Source::kWall);
    r->Metric("core.size_est_ms", h.size_est_ms, "ms", Source::kWall);
    r->Metric("core.materialize_ms",
              MedianOf(main.materialize_ms) * inputs.size(), "ms",
              Source::kWall, main.materialize_ms.size());
    r->Metric("core.design_mb", main.design_mb, "MiB", Source::kCount);
    r->Metric("core.est_gain_frac", main.est_gain, "ratio", Source::kCount);
    const double traced_tune = MedianOf(traced.tune_s);
    r->Metric("trace.overhead_pct",
              tune > 0 ? 100 * (traced_tune - tune) / tune : 0, "%",
              Source::kWall);
    ReportSpans(r, o);
  }
  return hd::Status::OK();
}

}  // namespace pb
