// Eviction-policy ablation (§III.D: "any existing collision resolving
// mechanisms such as random-walk or MinCounter can be used"):
//
//   * kick-outs per insertion, wall-clock insert throughput and the
//     fraction of inserts that spill to the stash while filling through
//     90% / 95% / 98% load, and
//   * load at first insertion failure,
//
// for every scheme x policy combination: all four schemes under
// random-walk / MinCounter / bubbling, and counter-guided BFS everywhere
// except BCHT (BFS needs single-slot buckets on the baseline table). Shows
// (a) how much of McCuckoo's gain comes from the multi-copy counters rather
// than the walk policy, (b) that the policies compose with the counters,
// and (c) that BFS repairs the multi-copy tables' insert collapse past 90%
// load. A spilled insert returns quickly, so read ops/s next to
// spill_fraction.
//
// Results are merged into BENCH_throughput.json under the
// "ablation_eviction." prefix, with the meta.* rows (bench/bench_driver.h).
// Each ops_per_sec row pools every rep's inserts and time, and gains
// .median, .p25, .p75 and .reps siblings over the per-rep (per-seed) rates,
// as the driver's rows do.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_driver.h"
#include "bench/bench_json.h"

namespace mccuckoo {
namespace {

// Each measured band *starts* at the labeled load — the collapse this
// ablation gates on only appears when inserting at or past 90%, so the
// load90 band covers 90->95%, load95 covers 95->98%, load98 covers 98->99%.
constexpr double kBandEnd[] = {0.95, 0.98, 0.99};
constexpr int kLoadPct[] = {90, 95, 98};

struct LoadPoint {
  double kicks_per_insert = 0;
  double reads_per_insert = 0;
  double ops = 0;
  double seconds = 0;
  double stash_growth = 0;  // items the band's inserts left in the stash
  std::vector<double> rep_rates;  // each rep's ops/sec

  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0.0; }
  double SpillFraction() const { return ops > 0 ? stash_growth / ops : 0.0; }
};

int Main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchFlags(argc, argv);
  PrintRunHeader("Ablation: eviction policies", CommonParams(cfg));

  constexpr EvictionPolicy kPolicies[] = {
      EvictionPolicy::kRandomWalk, EvictionPolicy::kMinCounter,
      EvictionPolicy::kBfs, EvictionPolicy::kBubble};

  TextTable out;
  out.Add("config", "kicks@90", "Mops/s@90", "spill@90", "kicks@95",
          "Mops/s@95", "spill@95", "kicks@98", "Mops/s@98", "spill@98",
          "first failure load");
  FlatJson json;
  BenchResults rates;  // ops_per_sec rows, written with their siblings
  for (const SchemeKind kind : kAllSchemes) {
    for (const EvictionPolicy policy : kPolicies) {
      if (kind == SchemeKind::kBcht && policy == EvictionPolicy::kBfs) {
        continue;  // CuckooTable takes BFS only at slots_per_bucket = 1.
      }
      const std::string label =
          std::string(SchemeName(kind)) + "/" + EvictionPolicyToString(policy);
      LoadPoint points[3];
      double fail_load = 0;
      for (int rep = 0; rep < cfg.reps; ++rep) {
        SchemeConfig sc = MakeSchemeConfig(cfg, rep);
        sc.eviction_policy = policy;
        auto table = MakeScheme(kind, sc);
        const auto keys = MakeInsertKeys(cfg, table->capacity(), rep);
        size_t cursor = 0;
        FillToLoad(*table, keys, 0.90, &cursor);
        for (int li = 0; li < 3; ++li) {
          const size_t stash0 = table->stash_size();
          const Stopwatch sw;
          const PhaseStats p = FillToLoad(*table, keys, kBandEnd[li], &cursor);
          const double seconds = sw.ElapsedSeconds();
          points[li].stash_growth += static_cast<double>(table->stash_size()) -
                                     static_cast<double>(stash0);
          points[li].kicks_per_insert += p.KickoutsPerOp();
          points[li].reads_per_insert += p.ReadsPerOp();
          points[li].ops += static_cast<double>(p.ops);
          points[li].seconds += seconds;
          points[li].rep_rates.push_back(static_cast<double>(p.ops) / seconds);
        }
        while (table->first_failure_items() == 0 && cursor < keys.size()) {
          const uint64_t k = keys[cursor++];
          table->Insert(k, ValueFor(k));
        }
        const uint64_t items = table->first_failure_items() != 0
                                   ? table->first_failure_items()
                                   : table->TotalItems();
        fail_load += static_cast<double>(items) /
                     static_cast<double>(table->capacity());
      }
      std::vector<std::string> row = {label};
      for (int li = 0; li < 3; ++li) {
        row.push_back(FormatDouble(points[li].kicks_per_insert / cfg.reps));
        row.push_back(FormatDouble(points[li].OpsPerSec() / 1e6));
        row.push_back(FormatDouble(points[li].SpillFraction()));
        const std::string key_base = "ablation_eviction." +
                                     std::string(SchemeName(kind)) + "." +
                                     EvictionPolicyToString(policy) + ".load" +
                                     std::to_string(kLoadPct[li]);
        json[key_base + ".kicks_per_insert"] =
            points[li].kicks_per_insert / cfg.reps;
        RowStats spread = SummarizeReps(points[li].rep_rates);
        spread.best = points[li].OpsPerSec();  // the pooled rate, not a rep
        rates[key_base + ".ops_per_sec"] = spread;
        json[key_base + ".spill_fraction"] = points[li].SpillFraction();
      }
      row.push_back(FormatPercent(fail_load / cfg.reps));
      json["ablation_eviction." + std::string(SchemeName(kind)) + "." +
           EvictionPolicyToString(policy) + ".first_failure_load"] =
          fail_load / cfg.reps;
      out.AddRow(row);
    }
  }
  Status s = EmitTable(out, cfg.flags);
  if (WriteBenchRows(rates, {"ablation_eviction."}, std::move(json)) != 0) {
    return 1;
  }
  std::printf(
      "expected: BFS fewest kicks everywhere it runs and the only policy "
      "holding insert throughput past 90%% on the multi-copy tables; "
      "bubbling between walk and BFS; MinCounter composes with the "
      "counters\n");
  return s.ok() ? 0 : 1;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Main(argc, argv); }
