#include "engine_util.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace pb {

void ExecAcc::Add(const hd::QueryResult& r, double wall, double cpu) {
  const hd::QueryMetrics& m = r.metrics;
  n++;
  cpu_ms += cpu;
  sim_io_ms += m.sim_io_ms();
  wall_ms += wall;
  wall_x_dop += wall * std::max(1, m.dop);
  rows_scanned += m.rows_scanned.load();
  rows_out += m.rows_output.load();
  rows_decoded += m.rows_decoded.load();
  seg_scanned += m.segments_scanned.load();
  seg_skipped += m.segments_skipped.load();
  hash_probes += m.hash_probes.load();
  join_batch_probes += m.join_batch_probes.load();
  bloom_checks += m.join_bloom_checks.load();
  bloom_filtered += m.join_bloom_filtered.load();
  spill_bytes += m.spill_bytes.load();
}

void ExecAcc::Merge(const ExecAcc& o) {
  n += o.n;
  cpu_ms += o.cpu_ms;
  sim_io_ms += o.sim_io_ms;
  wall_ms += o.wall_ms;
  wall_x_dop += o.wall_x_dop;
  rows_scanned += o.rows_scanned;
  rows_out += o.rows_out;
  rows_decoded += o.rows_decoded;
  seg_scanned += o.seg_scanned;
  seg_skipped += o.seg_skipped;
  hash_probes += o.hash_probes;
  join_batch_probes += o.join_batch_probes;
  bloom_checks += o.bloom_checks;
  bloom_filtered += o.bloom_filtered;
  spill_bytes += o.spill_bytes;
}

void ExecAcc::ReportTo(Report* r) const {
  const double k = n ? 1.0 / n : 0;
  r->Metric("exec.execute_ms", wall_ms * k, "ms", Source::kWall, n);
  r->Metric("exec.cpu_ms", cpu_ms * k, "ms", Source::kThreadCpu, n);
  r->Metric("exec.parallel_eff", wall_x_dop > 0 ? cpu_ms / wall_x_dop : 0,
            "ratio", Source::kThreadCpu, n);
  r->Metric("exec.rows_scanned_per_row_out",
            rows_out ? static_cast<double>(rows_scanned) / rows_out : 0,
            "ratio", Source::kCount);
  r->Metric("exec.hash_probes", hash_probes * k, "count/op", Source::kCount);
  r->Metric("exec.join_batch_probes", join_batch_probes * k, "count/op",
            Source::kCount);
  r->Metric("exec.bloom_filter_rate",
            bloom_checks ? static_cast<double>(bloom_filtered) / bloom_checks
                         : 0,
            "ratio", Source::kCount);
  r->Metric("exec.spill_bytes", spill_bytes * k, "B/op", Source::kCount);
  r->Metric("columnstore.rows_decoded", rows_decoded * k, "rows/op",
            Source::kCount);
  const uint64_t segs = seg_scanned + seg_skipped;
  r->Metric("columnstore.segment_skip_rate",
            segs ? static_cast<double>(seg_skipped) / segs : 0, "ratio",
            Source::kCount);
  r->Metric("storage.sim_io_ms", sim_io_ms * k, "ms", Source::kSimulated, n);
}

namespace {

bool IsDouble(const hd::Value& v) {
  return v.kind() == hd::Value::Kind::kDouble;
}

/// Orders rows by their exact (non-double) columns first, then by the
/// doubles, so rows whose doubles differ only by rounding sort alike.
bool RowLess(const hd::Row& a, const hd::Row& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (IsDouble(a[i]) != (pass == 1)) continue;
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
  }
  return false;
}

bool ValueClose(const hd::Value& a, const hd::Value& b) {
  if (IsDouble(a) || IsDouble(b)) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-6 * std::max(1.0, std::max(std::fabs(x),
                                                               std::fabs(y)));
  }
  return a.Compare(b) == 0;
}

}  // namespace

bool SameResults(const hd::QueryResult& a, const hd::QueryResult& b,
                 std::string* why) {
  if (a.row_count != b.row_count || a.rows.size() != b.rows.size()) {
    *why = "row count " + std::to_string(a.row_count) + " vs " +
           std::to_string(b.row_count);
    return false;
  }
  std::vector<hd::Row> x = a.rows, y = b.rows;
  std::sort(x.begin(), x.end(), RowLess);
  std::sort(y.begin(), y.end(), RowLess);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != y[i].size()) {
      *why = "row width differs at row " + std::to_string(i);
      return false;
    }
    for (size_t c = 0; c < x[i].size(); ++c) {
      if (!ValueClose(x[i][c], y[i][c])) {
        *why = "row " + std::to_string(i) + " col " + std::to_string(c) +
               ": " + x[i][c].ToString() + " vs " + y[i][c].ToString();
        return false;
      }
    }
  }
  return true;
}

bool SameOnSharedKeys(const hd::QueryResult& a, const hd::QueryResult& b,
                      size_t* shared, std::string* why) {
  *shared = 0;
  if (a.row_count != b.row_count) {
    *why = "row count " + std::to_string(a.row_count) + " vs " +
           std::to_string(b.row_count);
    return false;
  }
  auto key = [](const hd::Row& r) {
    std::string k;
    for (const hd::Value& v : r) {
      if (!IsDouble(v)) k += v.ToString() + "\x1f";
    }
    return k;
  };
  std::map<std::string, const hd::Row*> by_key;
  for (const hd::Row& r : b.rows) by_key.emplace(key(r), &r);
  for (const hd::Row& r : a.rows) {
    auto it = by_key.find(key(r));
    if (it == by_key.end()) continue;
    ++*shared;
    const hd::Row& o = *it->second;
    for (size_t c = 0; c < r.size() && c < o.size(); ++c) {
      if (!ValueClose(r[c], o[c])) {
        *why = "group " + key(r) + " col " + std::to_string(c) + ": " +
               r[c].ToString() + " vs " + o[c].ToString();
        return false;
      }
    }
  }
  return true;
}

double UserBytes(const hd::Database& db) {
  double user = 0;
  for (const auto& [name, t] : db.tables()) {
    user += static_cast<double>(t->num_rows()) * t->schema().RowWidth();
  }
  return user;
}

double StoragePerUserByte(const hd::Database& db) {
  const double user = UserBytes(db);
  return user > 0 ? db.TotalSizeBytes() / user : 0;
}

hd::Configuration WithoutCsi(hd::Configuration cfg) {
  for (auto& [name, tc] : cfg.tables) {
    auto& s = tc.secondaries;
    s.erase(std::remove_if(s.begin(), s.end(),
                           [](const hd::ConfigIndex& ci) {
                             return ci.def.is_columnstore();
                           }),
            s.end());
  }
  return cfg;
}

hd::Configuration WithoutSecondaries(hd::Configuration cfg) {
  for (auto& [name, tc] : cfg.tables) tc.secondaries.clear();
  return cfg;
}

}  // namespace pb
