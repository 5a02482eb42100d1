// Helpers the workloads share that need engine types: accumulating
// per-statement QueryMetrics into exec/columnstore/storage metrics, and
// comparing result multisets for the correctness checks.
#pragma once

#include <string>

#include "bench.h"
#include "exec/executor.h"
#include "optimizer/config.h"

namespace pb {

/// Sums of the per-statement execution counters of one measured window.
struct ExecAcc {
  uint64_t n = 0;
  double cpu_ms = 0;
  double sim_io_ms = 0;
  double wall_ms = 0;
  double wall_x_dop = 0;
  uint64_t rows_scanned = 0, rows_out = 0, rows_decoded = 0;
  uint64_t seg_scanned = 0, seg_skipped = 0;
  uint64_t hash_probes = 0, join_batch_probes = 0;
  uint64_t bloom_checks = 0, bloom_filtered = 0, spill_bytes = 0;

  /// `wall_ms` and `cpu_ms` are the measured wall time and CPU time of
  /// the Execute call. (QueryMetrics::cpu_ms is not used: it adds the
  /// simulated row-mode overhead to measured worker time.)
  void Add(const hd::QueryResult& r, double wall_ms, double cpu_ms);
  void Merge(const ExecAcc& o);
  /// exec.*, columnstore.rows_decoded/segment_skip_rate, storage.sim_io_ms.
  void ReportTo(Report* r) const;
};

/// Result multisets equal: same row count, same rows after sorting, with
/// doubles compared to a relative tolerance (summation order differs
/// between plans). On mismatch `why` says where.
bool SameResults(const hd::QueryResult& a, const hd::QueryResult& b,
                 std::string* why);

/// For results over the materialization cap (a subset of the groups
/// kept): equal row counts, and every group present in both results
/// (same exact columns) has the same doubles. `shared` counts them.
bool SameOnSharedKeys(const hd::QueryResult& a, const hd::QueryResult& b,
                      size_t* shared, std::string* why);

/// True when the executor materialized fewer rows than the result has.
inline bool Truncated(const hd::QueryResult& r) {
  return r.row_count > r.rows.size();
}

/// Bytes of the rows the database holds, in uncompressed row format.
double UserBytes(const hd::Database& db);
/// Bytes of the database's structures (primaries and secondaries) per
/// user byte.
double StoragePerUserByte(const hd::Database& db);

/// `cfg` with every columnstore secondary removed: the row-mode oracle.
hd::Configuration WithoutCsi(hd::Configuration cfg);
/// `cfg` with every secondary removed.
hd::Configuration WithoutSecondaries(hd::Configuration cfg);

}  // namespace pb
