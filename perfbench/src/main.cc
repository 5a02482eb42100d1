// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload htap_wire|ch_analytics|advisor_tune|all
//             --seed N --seconds S --trace 0|1 [--tiny]
//             [--work-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Prints progress and check lines on stderr, one `report:` line with the
// full result object (provenance, every metric with unit, source and
// sample count, the failure ledger, the checks) and, last, the result
// line: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// a correctness check fails, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace pb {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  Source src;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", Source::kWall},
    {"peak_rss_mb", "MiB", Source::kOs},
    {"storage_per_user_byte", "ratio", Source::kCount},
    {"success_rate", "ratio", Source::kCount},
};

const MetricDef kPerLayer[] = {
    // End-to-end figures that vary across runs on a shared host by more
    // than any allowed bound, or that exist on one workload only.
    {"op_geomean_ms", "ms", Source::kWall},
    {"cpu_per_op_ms", "ms", Source::kThreadCpu},
    {"throughput_ops_s", "1/s", Source::kWall},
    {"op_p50_ms", "ms", Source::kWall},
    {"scan_p50_ms", "ms", Source::kWall},
    {"scan_p90_ms", "ms", Source::kWall},
    {"read_p50_ms", "ms", Source::kWall},
    {"read_p99_ms", "ms", Source::kWall},
    {"write_p50_ms", "ms", Source::kWall},
    {"write_p99_ms", "ms", Source::kWall},
    {"tune_s", "s", Source::kWall},
    {"design_cpu_ms", "ms", Source::kThreadCpu},
    {"design_vs_csi", "ratio", Source::kThreadCpu},
    {"error_rate", "ratio", Source::kCount},
    {"trace.overhead_pct", "%", Source::kWall},
    // server
    {"server.wire_ms", "ms", Source::kWall},
    {"server.plan_cache_hit_rate", "ratio", Source::kCount},
    {"server.bytes_per_stmt", "B", Source::kCount},
    // sql, optimizer
    {"sql.parse_us", "us", Source::kWall},
    {"optimizer.plan_us", "us", Source::kWall},
    {"optimizer.whatif_us", "us", Source::kWall},
    {"optimizer.whatif_calls", "count", Source::kCount},
    {"optimizer.est_error_log2", "log2", Source::kThreadCpu},
    // exec
    {"exec.execute_ms", "ms", Source::kWall},
    {"exec.cpu_ms", "ms", Source::kThreadCpu},
    {"exec.parallel_eff", "ratio", Source::kThreadCpu},
    {"exec.rows_scanned_per_row_out", "ratio", Source::kCount},
    {"exec.hash_probes", "count/op", Source::kCount},
    {"exec.join_batch_probes", "count/op", Source::kCount},
    {"exec.bloom_filter_rate", "ratio", Source::kCount},
    {"exec.spill_bytes", "B/op", Source::kCount},
    {"admission.queue_wait_ms", "ms", Source::kWall},
    {"admission.shed", "count", Source::kCount},
    {"scan.shared_attach_rate", "ratio", Source::kCount},
    {"scan.decode_bytes_saved_mb", "MiB", Source::kCount},
    // columnstore, btree, storage
    {"columnstore.rows_decoded", "rows/op", Source::kCount},
    {"columnstore.segment_skip_rate", "ratio", Source::kCount},
    {"columnstore.delta_rows_end", "rows", Source::kCount},
    {"btree.seek_depth_mean", "levels", Source::kCount},
    {"btree.splits", "count", Source::kCount},
    {"bp.hit_rate", "ratio", Source::kCount},
    {"bp.evictions", "count", Source::kCount},
    {"storage.sim_io_ms", "ms", Source::kSimulated},
    {"wal.fsyncs_per_commit", "ratio", Source::kCount},
    {"wal.flush_wait_ms", "ms", Source::kWall},
    {"wal.bytes_per_user_byte", "ratio", Source::kCount},
    // txn
    {"txn.commit_ms", "ms", Source::kWall},
    {"lock.wait_ms", "ms", Source::kWall},
    {"lock.timeouts", "count", Source::kCount},
    {"txn.retries", "count", Source::kCount},
    {"txn.versions_end", "count", Source::kCount},
    // common (thread pool)
    {"pool.steal_rate", "ratio", Source::kCount},
    {"pool.queue_depth_mean", "tasks", Source::kCount},
    // core (advisor) and catalog
    {"core.recommend_ms", "ms", Source::kWall},
    {"core.candidates", "count", Source::kCount},
    {"core.candidates_kept", "count", Source::kCount},
    {"core.candidates_ms", "ms", Source::kWall},
    {"core.size_est_ms", "ms", Source::kWall},
    {"core.materialize_ms", "ms", Source::kWall},
    {"core.design_mb", "MiB", Source::kCount},
    {"core.est_gain_frac", "ratio", Source::kCount},
    // obs
    {"qstore.recorded_per_stmt", "ratio", Source::kCount},
    {"qstore.dropped", "count", Source::kCount},
    // Self time per span name (traced run), ms per span.
    {"span.client.query.self_ms", "ms", Source::kWall},
    {"span.sql.parse.self_ms", "ms", Source::kWall},
    {"span.optimizer.plan.self_ms", "ms", Source::kWall},
    {"span.txn.begin.self_ms", "ms", Source::kWall},
    {"span.exec.execute.self_ms", "ms", Source::kWall},
    {"span.txn.commit.self_ms", "ms", Source::kWall},
    {"span.core.recommend.self_ms", "ms", Source::kWall},
    {"span.core.candidates.self_ms", "ms", Source::kWall},
    {"span.core.size_estimate.self_ms", "ms", Source::kWall},
    {"span.optimizer.whatif.self_ms", "ms", Source::kWall},
    {"span.config.materialize.self_ms", "ms", Source::kWall},
};

std::vector<std::string> Names(const MetricDef* defs, size_t n) {
  std::vector<std::string> v;
  for (size_t i = 0; i < n; ++i) v.push_back(defs[i].name);
  return v;
}

const MetricDef* FindDef(const std::string& name) {
  for (const auto& d : kEndToEnd) {
    if (name == d.name) return &d;
  }
  for (const auto& d : kPerLayer) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& EndToEndNames() {
  static const auto v = Names(kEndToEnd, std::size(kEndToEnd));
  return v;
}

const std::vector<std::string>& PerLayerNames() {
  static const auto v = Names(kPerLayer, std::size(kPerLayer));
  return v;
}

void ZeroFill(Report* r, const std::vector<std::string>& names) {
  for (const auto& n : names) {
    if (r->Has(n)) continue;
    const MetricDef* d = FindDef(n);
    r->Metric(n, 0, d ? d->unit : "", d ? d->src : Source::kCount);
  }
}

}  // namespace pb

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "htap_wire|ch_analytics|advisor_tune|all --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               msg);
  return 2;
}

/// Runs one workload; returns false when its checks failed.
bool RunOne(pb::Options o, const std::string& workload, bool print_result,
            uint64_t* attempted, uint64_t* failed) {
  o.workload = workload;
  pb::Report r;
  hd::Status st;
  if (workload == "htap_wire") {
    st = pb::RunHtapWire(o, &r);
  } else if (workload == "ch_analytics") {
    st = pb::RunChAnalytics(o, &r);
  } else {
    st = pb::RunAdvisorTune(o, &r);
  }
  r.Check("workload.completed", st.ok(), st.ok() ? "" : st.ToString());
  const uint64_t att = r.ledger.attempted();
  const double err = att ? static_cast<double>(r.ledger.failed()) / att : 0;
  r.Metric("error_rate", err, "ratio", pb::Source::kCount, att);
  r.Metric("success_rate", att ? 1 - err : 0, "ratio", pb::Source::kCount,
           att);
  r.Metric("peak_rss_mb", pb::PeakRssMb(), "MiB", pb::Source::kOs);
  pb::ZeroFill(&r, pb::EndToEndNames());
  pb::ZeroFill(&r, pb::PerLayerNames());

  const std::string full = r.ToJson(o);
  std::printf("report: %s\n", full.c_str());
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir + "/results", ec);
  std::ofstream(o.work_dir + "/results/" + workload + "-seed" +
                std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                ".json")
      << full << "\n";
  if (print_result) {
    std::printf("%s\n", r.ResultLine(o.trace ? pb::PerLayerNames()
                                               : pb::EndToEndNames())
                            .c_str());
  }
  std::fflush(stdout);
  *attempted += att;
  *failed += r.ledger.failed();
  return r.all_ok();
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  bool have_trace = false, have_seed = false, have_secs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if ((v = next()) == nullptr) return Usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
      have_secs = o.seconds > 0;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || o.trace;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_secs || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  std::vector<std::string> workloads;
  if (o.workload == "all") {
    workloads = {"htap_wire", "ch_analytics", "advisor_tune"};
  } else if (o.workload == "htap_wire" || o.workload == "ch_analytics" ||
             o.workload == "advisor_tune") {
    workloads = {o.workload};
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) return Usage(("cannot create " + o.work_dir).c_str());

  bool ok = true;
  uint64_t attempted = 0, failed = 0;
  for (const auto& w : workloads) {
    ok &= RunOne(o, w, workloads.size() == 1, &attempted, &failed);
  }
  if (workloads.size() > 1) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  }
  return ok ? 0 : 1;
}
