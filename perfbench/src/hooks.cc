// Counting and timing the calls Advisor::Recommend makes into the
// optimizer's what-if API, candidate generation/merging and size
// estimation, without changing the engine.
//
// The benchmark's link step passes `-Wl,--wrap=<symbol>` for each entry
// point (CMakeLists.txt). The linker then resolves the advisor's calls to
// the __wrap_ functions below, which time the call, record a span when
// the traced run is on, and forward to the real function (__real_). The
// __real_ references are weak: if an entry point's signature changes and
// the wrap no longer matches, the link still succeeds, the wrappers are
// simply never called, and HooksLinked() reports false.
#include <atomic>
#include <chrono>
#include <vector>

#include "bench.h"
#include "catalog/table.h"
#include "core/candidates.h"
#include "core/size_estimation.h"
#include "optimizer/config.h"
#include "optimizer/optimizer.h"

#define PB_WHATIF _ZNK2hd9Optimizer10WhatIfCostERKNS_5QueryERKNS_13ConfigurationERKNS_11PlanOptionsE
#define PB_GENCAND _ZN2hd18GenerateCandidatesERKNS_5QueryEPNS_8DatabaseENS_11AdvisorModeE
#define PB_MERGE _ZN2hd15MergeCandidatesESt6vectorINS_9CandidateESaIS1_EE
#define PB_CSIGEE _ZN2hd18EstimateCsiSizeGeeERKNS_5TableERKNS_19SizeEstimateOptionsE
#define PB_BTSTATS _ZN2hd18EstimateBTreeStatsERKNS_5TableERKNS_8IndexDefE
#define PB_STR2(x) #x
#define PB_STR(x) PB_STR2(x)
#define PB_REAL(sym) __asm__("__real_" PB_STR(sym))
#define PB_WRAP(sym) __asm__("__wrap_" PB_STR(sym))

using hd::AdvisorMode;
using hd::Candidate;
using hd::Configuration;
using hd::Database;
using hd::IndexDef;
using hd::IndexStatsInfo;
using hd::Optimizer;
using hd::PlanOptions;
using hd::Query;
using hd::SizeEstimateOptions;
using hd::Table;

// A const member function is called with `this` as its first argument,
// so the what-if entry point is declared as a free function taking it.
hd::Result<double> RealWhatIf(const Optimizer* self, const Query& q,
                              const Configuration& cfg,
                              const PlanOptions& opts)
    PB_REAL(PB_WHATIF) __attribute__((weak));
std::vector<Candidate> RealGenerate(const Query& q, Database* db,
                                    AdvisorMode mode)
    PB_REAL(PB_GENCAND) __attribute__((weak));
std::vector<Candidate> RealMerge(std::vector<Candidate> cands)
    PB_REAL(PB_MERGE) __attribute__((weak));
IndexStatsInfo RealCsiGee(const Table& t, const SizeEstimateOptions& opts)
    PB_REAL(PB_CSIGEE) __attribute__((weak));
IndexStatsInfo RealBTreeStats(const Table& t, const IndexDef& def)
    PB_REAL(PB_BTSTATS) __attribute__((weak));

namespace {

struct Counter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
};
Counter g_whatif, g_cand, g_size;

class Timed {
 public:
  Timed(Counter* c, const char* span) : c_(c), span_(span) {}
  ~Timed() {
    c_->calls.fetch_add(1, std::memory_order_relaxed);
    c_->ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0_)
                         .count(),
                     std::memory_order_relaxed);
  }

 private:
  Counter* c_;
  pb::Span span_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace

hd::Result<double> WrapWhatIf(const Optimizer* self, const Query& q,
                              const Configuration& cfg,
                              const PlanOptions& opts) PB_WRAP(PB_WHATIF);
hd::Result<double> WrapWhatIf(const Optimizer* self, const Query& q,
                              const Configuration& cfg,
                              const PlanOptions& opts) {
  Timed t(&g_whatif, "optimizer.whatif");
  return RealWhatIf(self, q, cfg, opts);
}

std::vector<Candidate> WrapGenerate(const Query& q, Database* db,
                                    AdvisorMode mode) PB_WRAP(PB_GENCAND);
std::vector<Candidate> WrapGenerate(const Query& q, Database* db,
                                    AdvisorMode mode) {
  Timed t(&g_cand, "core.candidates");
  return RealGenerate(q, db, mode);
}

std::vector<Candidate> WrapMerge(std::vector<Candidate> cands)
    PB_WRAP(PB_MERGE);
std::vector<Candidate> WrapMerge(std::vector<Candidate> cands) {
  Timed t(&g_cand, "core.candidates");
  return RealMerge(std::move(cands));
}

IndexStatsInfo WrapCsiGee(const Table& t, const SizeEstimateOptions& opts)
    PB_WRAP(PB_CSIGEE);
IndexStatsInfo WrapCsiGee(const Table& t, const SizeEstimateOptions& opts) {
  Timed tm(&g_size, "core.size_estimate");
  return RealCsiGee(t, opts);
}

IndexStatsInfo WrapBTreeStats(const Table& t, const IndexDef& def)
    PB_WRAP(PB_BTSTATS);
IndexStatsInfo WrapBTreeStats(const Table& t, const IndexDef& def) {
  Timed tm(&g_size, "core.size_estimate");
  return RealBTreeStats(t, def);
}

namespace pb {

HookTotals ReadHooks() {
  HookTotals h;
  h.whatif_calls = g_whatif.calls.load();
  h.whatif_ms = g_whatif.ns.load() / 1e6;
  h.candidates_ms = g_cand.ns.load() / 1e6;
  h.size_est_ms = g_size.ns.load() / 1e6;
  return h;
}

void ResetHooks() {
  for (Counter* c : {&g_whatif, &g_cand, &g_size}) {
    c->calls.store(0);
    c->ns.store(0);
  }
}

bool HooksLinked() {
  return RealWhatIf != nullptr && RealGenerate != nullptr &&
         RealMerge != nullptr && RealCsiGee != nullptr &&
         RealBTreeStats != nullptr;
}

}  // namespace pb
