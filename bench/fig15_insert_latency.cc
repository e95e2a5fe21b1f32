// Fig 15 — Insertion latency vs load, and throughput vs record size.
//
// Replays the schemes' per-phase access traces through the analytic
// FPGA + DDR3 latency model (see src/mem/latency_model.h and DESIGN.md §3
// for the documented substitution). (a) average insertion latency while
// filling; (b) insertion throughput at 50% load as the record grows from
// 8 B to 128 B.

#include <cinttypes>
#include <map>

#include "bench/bench_common.h"
#include "src/mem/latency_model.h"
#include "src/obs/metrics.h"

namespace mccuckoo {
namespace {

int Main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchFlags(argc, argv);
  PrintRunHeader("Fig 15: insertion latency and throughput (latency model)",
                 CommonParams(cfg));
  LatencyModel model;

  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9};
  const std::vector<uint32_t> record_sizes = {8, 16, 32, 64, 128};

  std::map<SchemeKind, std::vector<double>> latency;
  std::map<SchemeKind, PhaseStats> trace_at_half;
  for (SchemeKind kind : kAllSchemes) latency[kind].assign(loads.size(), 0.0);

  std::map<SchemeKind, MetricsSnapshot> measured;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    for (SchemeKind kind : kAllSchemes) {
      auto table = MakeScheme(kind, MakeSchemeConfig(cfg, rep));
      const auto keys = MakeInsertKeys(cfg, table->capacity(), rep);
      size_t cursor = 0;
      for (size_t i = 0; i < loads.size(); ++i) {
        const PhaseStats phase = FillToLoad(*table, keys, loads[i], &cursor);
        latency[kind][i] += model.AverageNanos(phase.delta, phase.ops, 8);
        if (loads[i] == 0.5) trace_at_half[kind] += phase;
      }
      measured[kind] += table->SnapshotMetrics();
    }
  }

  TextTable ta;
  ta.Add("load", "Cuckoo", "McCuckoo", "BCHT", "B-McCuckoo");
  for (size_t i = 0; i < loads.size(); ++i) {
    ta.AddRow({FormatPercent(loads[i], 0),
               FormatDouble(latency[SchemeKind::kCuckoo][i] / cfg.reps, 1),
               FormatDouble(latency[SchemeKind::kMcCuckoo][i] / cfg.reps, 1),
               FormatDouble(latency[SchemeKind::kBcht][i] / cfg.reps, 1),
               FormatDouble(latency[SchemeKind::kBMcCuckoo][i] / cfg.reps,
                            1)});
  }
  std::printf("(a) average insertion latency [ns], record = 8 B\n");
  Status s = EmitTable(ta, cfg.flags, "latency");

  TextTable tb;
  tb.Add("record B", "Cuckoo", "McCuckoo", "BCHT", "B-McCuckoo");
  for (uint32_t rs : record_sizes) {
    std::vector<std::string> row = {std::to_string(rs)};
    for (SchemeKind kind : kAllSchemes) {
      const PhaseStats& tr = trace_at_half[kind];
      row.push_back(FormatDouble(model.ThroughputMops(tr.delta, tr.ops, rs), 3));
    }
    tb.AddRow(row);
  }
  std::printf("(b) insertion throughput at 50%% load [Mops]\n");
  Status s2 = EmitTable(tb, cfg.flags, "throughput");
  // Supplementary: measured wall-clock insert latency from the sampled
  // op timer (TableMetrics, src/obs/metrics.h) — this host's actual numbers
  // next to the model's FPGA+DDR3 figures. All-zero under
  // -DMCCUCKOO_NO_METRICS.
  std::printf("measured wall-clock insert latency [ns], sampled 1/32:\n");
  for (SchemeKind kind : kAllSchemes) {
    const HistogramSnapshot& h =
        measured[kind].op_latency_ns[static_cast<size_t>(LatencyOp::kInsert)];
    std::printf("  %-10s samples=%" PRIu64 " p50<=%" PRIu64 " p99<=%" PRIu64
                " p999<=%" PRIu64 "\n",
                SchemeName(kind), h.count, h.PercentileUpperBound(0.50),
                h.PercentileUpperBound(0.99), h.PercentileUpperBound(0.999));
  }
  std::printf(
      "expected shape: multi-copy latency lower at high load; throughput "
      "advantage grows with record size\n");
  return (s.ok() && s2.ok()) ? 0 : 1;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Main(argc, argv); }
