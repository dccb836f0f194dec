// Table I ablation: how the query parameters trade recall against cost.
//
// Table I of the paper inventories the query parameters (k, n, i, c, M, S,
// l, E) without evaluating them. This harness sweeps each parameter around
// its default on a fixed workload and reports recall (fraction of planted
// homologs recovered) together with the main cost proxies (turnaround,
// seeds inspected, messages) — the design-choice ablation DESIGN.md §6
// calls for.
#include "bench/bench_common.h"
#include "bench/bench_setup.h"
#include "src/common/stats.h"

namespace {

using namespace mendel;

struct Workload {
  seq::SequenceStore store{seq::Alphabet::kProtein};
  std::vector<seq::Sequence> probes;
  std::vector<seq::SequenceId> origins;
};

Workload make_workload(const bench::BenchArgs& args) {
  Workload w;
  w.store = bench::make_database(args.quick ? 80000 : 200000, args.seed);
  // Probes: mutated regions of known database sequences.
  Rng rng(args.seed ^ 0x7ab1e);
  const std::size_t probes = args.quick ? 6 : 10;
  std::vector<seq::SequenceId> eligible;
  for (const auto& s : w.store) {
    if (s.size() >= 600) eligible.push_back(s.id());
  }
  for (std::size_t i = 0; i < probes; ++i) {
    const auto origin = eligible[rng.below(eligible.size())];
    const auto& donor = w.store.at(origin);
    const auto offset = rng.below(donor.size() - 500);
    const auto region = donor.window(offset, 500);
    seq::Sequence raw(w.store.alphabet(), "probe",
                      {region.begin(), region.end()});
    w.probes.push_back(
        workload::mutate_to_similarity(raw, 0.7, "probe", rng));
    w.origins.push_back(origin);
  }
  return w;
}

struct Outcome {
  double recall = 0;
  double turnaround = 0;
  double seeds = 0;
  double messages = 0;
};

Outcome run(core::Client& client, const Workload& w,
            const core::QueryParams& params) {
  Outcome out;
  RunningStats turnaround, seeds, messages;
  std::size_t found = 0;
  for (std::size_t i = 0; i < w.probes.size(); ++i) {
    const auto before = client.metrics();
    const auto result = client.query(w.probes[i], params);
    const auto after = client.metrics();
    turnaround.add(result.turnaround);
    seeds.add(static_cast<double>(after.counter("node.seeds_emitted") -
                                  before.counter("node.seeds_emitted")));
    messages.add(static_cast<double>(result.traffic.messages));
    for (const auto& hit : result.hits) {
      if (hit.subject_id == w.origins[i]) {
        ++found;
        break;
      }
    }
  }
  out.recall = static_cast<double>(found) /
               static_cast<double>(w.probes.size());
  out.turnaround = turnaround.mean();
  out.seeds = seeds.mean();
  out.messages = messages.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const auto workload = make_workload(args);
  std::printf("database: %zu sequences, %zu residues; %zu probes at 70%% "
              "identity\n\n",
              workload.store.size(), workload.store.total_residues(),
              workload.probes.size());

  core::Client client(bench::cluster_options(6, 5));
  client.index(workload.store);

  TextTable table("Table I ablation: parameter -> recall / cost");
  table.set_header({"parameter", "value", "recall", "mean turnaround (s)",
                    "mean seeds", "mean msgs"});
  auto sweep = [&](const std::string& name, auto setter, auto values) {
    for (const auto value : values) {
      core::QueryParams params = bench::bench_params();
      setter(params, value);
      const auto outcome = run(client, workload, params);
      std::ostringstream value_text;
      value_text << value;
      table.add_row({name, value_text.str(),
                     TextTable::percent(outcome.recall, 0),
                     TextTable::num(outcome.turnaround, 4),
                     TextTable::num(outcome.seeds, 0),
                     TextTable::num(outcome.messages, 0)});
    }
  };

  sweep("k (subquery stride)",
        [](core::QueryParams& p, std::uint32_t v) {
          p.k = v;
          // Strides beyond the block length can't tile adjacent windows
          // into runs, so the span gate must be off for them to work at
          // all — itself a finding of this ablation.
          if (v > 8) p.min_anchor_span = 0;
        },
        std::vector<std::uint32_t>{4, 8, 16, 32});
  sweep("n (nearest neighbors)",
        [](core::QueryParams& p, std::uint32_t v) { p.n = v; },
        std::vector<std::uint32_t>{2, 8, 24});
  sweep("i (identity threshold)",
        [](core::QueryParams& p, double v) { p.identity = v; },
        std::vector<double>{0.2, 0.35, 0.6});
  sweep("c (c-score threshold)",
        [](core::QueryParams& p, double v) { p.c_score = v; },
        std::vector<double>{0.25, 0.5, 0.8});
  sweep("S (gapped trigger)",
        [](core::QueryParams& p, double v) { p.gapped_trigger = v; },
        std::vector<double>{0.5, 1.0, 2.5});
  sweep("l (band width)",
        [](core::QueryParams& p, std::uint32_t v) { p.band = v; },
        std::vector<std::uint32_t>{4, 16, 48});
  sweep("E (e-value cutoff)",
        [](core::QueryParams& p, double v) { p.evalue = v; },
        std::vector<double>{1e-6, 10.0});
  sweep("branch epsilon (routing fan-out)",
        [](core::QueryParams& p, double v) { p.branch_epsilon = v; },
        std::vector<double>{0.0, 8.0, 20.0});
  sweep("M (scoring matrix)",
        [](core::QueryParams& p, const char* v) { p.matrix = v; },
        std::vector<const char*>{"BLOSUM62", "BLOSUM80", "PAM250"});

  bench::emit(table, args);
  bench::paper_shape(
      "Table I in the paper only inventories these parameters; this "
      "ablation quantifies each knob's recall/cost trade-off (larger k -> "
      "cheaper but less sensitive; larger n / epsilon -> more sensitive "
      "but more traffic; stricter i/c -> fewer seeds)");
  return 0;
}
