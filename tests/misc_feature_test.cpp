// Cross-cutting feature tests added after the main suites: subject-segment
// return path, custom-matrix CLI flow, and transport cost-model details.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/cli/cli.h"
#include "src/mendel/client.h"
#include "src/net/sim_transport.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

// ---------- include_subject_segment ----------

TEST(SubjectSegment, MatchesTheSubjectRangeExactly) {
  workload::DatabaseSpec spec;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 6;
  spec.min_length = 150;
  spec.max_length = 300;
  spec.seed = 99;
  const auto store = workload::generate_database(spec);

  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  core::Client client(options);
  client.index(store);

  const auto& donor = store.at(1);
  const auto region = donor.window(5, 120);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});

  core::QueryParams params;
  params.include_subject_segment = true;
  const auto outcome = client.query(query, params);
  ASSERT_FALSE(outcome.hits.empty());
  for (const auto& hit : outcome.hits) {
    // The returned residues must be exactly the subject range the
    // alignment claims.
    const auto& subject = store.at(hit.subject_id);
    ASSERT_EQ(hit.subject_segment.size(), hit.alignment.hsp.s_len());
    const auto expected =
        subject.window(hit.alignment.hsp.s_begin, hit.alignment.hsp.s_len());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           hit.subject_segment.begin()));
  }

  // Off by default: no segment bytes in the reply.
  const auto plain = client.query(query);
  ASSERT_FALSE(plain.hits.empty());
  EXPECT_TRUE(plain.hits.front().subject_segment.empty());
}

// ---------- CLI --matrix-file ----------

TEST(CliMatrixFile, CustomMatrixDrivesScoring) {
  const std::string db = "/tmp/mendel_mf_db.fa";
  const std::string queries = "/tmp/mendel_mf_q.fa";
  const std::string index = "/tmp/mendel_mf.mnd";
  const std::string matrix = "/tmp/mendel_mf_matrix.txt";

  // Write a BLOSUM62 clone so results must match the builtin.
  {
    std::ofstream out(matrix);
    const std::string letters = "ARNDCQEGHILKMFPSTWYVBZX*";
    out << " ";
    for (char c : letters) out << "  " << c;
    out << "\n";
    for (char row : letters) {
      out << row;
      for (char col : letters) {
        out << "  "
            << score::blosum62().score(
                   seq::encode(seq::Alphabet::kProtein, row),
                   seq::encode(seq::Alphabet::kProtein, col));
      }
      out << "\n";
    }
  }

  auto run = [](const std::vector<std::string>& args, std::string* text) {
    std::ostringstream out, err;
    const int code = cli::run_cli(args, out, err);
    if (text != nullptr) *text = out.str() + err.str();
    return code;
  };
  std::string out;
  ASSERT_EQ(run({"generate", "--out", db, "--families", "3", "--members",
                 "2", "--background", "3", "--min-len", "150", "--max-len",
                 "250", "--queries", queries, "--query-count", "1",
                 "--query-length", "100", "--query-noise", "0.0"},
                &out),
            0);
  ASSERT_EQ(run({"index", "--db", db, "--out", index, "--groups", "2",
                 "--nodes-per-group", "2", "--cutoff-depth", "4", "--sample",
                 "256"},
                &out),
            0);
  std::string builtin_out, custom_out;
  ASSERT_EQ(run({"query", "--index", index, "--queries", queries,
                 "--format", "tabular"},
                &builtin_out),
            0);
  ASSERT_EQ(run({"query", "--index", index, "--queries", queries,
                 "--format", "tabular", "--matrix-file", matrix},
                &custom_out),
            0);
  // Alignments (subjects, identities, coordinates) must be identical; the
  // statistical columns may differ slightly because an unrecognized matrix
  // name uses solved Karlin parameters instead of the NCBI-tabulated
  // BLOSUM62 constants. Strip the last two columns (evalue, bits).
  auto strip_stats = [](const std::string& text) {
    std::istringstream in(text);
    std::string line, kept;
    while (std::getline(in, line)) {
      auto cut = line.rfind('\t');
      if (cut != std::string::npos) cut = line.rfind('\t', cut - 1);
      kept += cut == std::string::npos ? line : line.substr(0, cut);
      kept += '\n';
    }
    return kept;
  };
  EXPECT_EQ(strip_stats(builtin_out), strip_stats(custom_out))
      << "a BLOSUM62 clone loaded from file must produce identical "
         "alignments";

  for (const auto& path : {db, queries, index, matrix}) {
    std::remove(path.c_str());
  }
}

// ---------- SimTransport cost model ----------

TEST(SimTransportCost, BandwidthDelaysLargeMessages) {
  net::CostModel cost;
  cost.latency = 1e-3;
  cost.bandwidth = 1e6;  // 1 MB/s: payload size clearly visible
  cost.proc_overhead = 0;
  cost.measured_cpu = false;
  net::SimTransport transport(cost);

  double small_arrival = -1, large_arrival = -1;
  net::FunctionActor sink([&](const net::Message& m, net::Context& ctx) {
    if (m.request_id == 1) small_arrival = ctx.now();
    if (m.request_id == 2) large_arrival = ctx.now();
  });
  transport.register_actor(1, &sink);

  net::Message small;
  small.from = 0xff;
  small.to = 1;
  small.type = 1;
  small.request_id = 1;
  net::Message large = small;
  large.request_id = 2;
  large.payload.assign(100000, 0);  // 100 KB -> +0.1 s at 1 MB/s
  transport.send(std::move(small));
  transport.send(std::move(large));
  transport.run_until_idle();

  ASSERT_GE(small_arrival, 0.0);
  ASSERT_GE(large_arrival, 0.0);
  EXPECT_NEAR(large_arrival - small_arrival, 0.1, 0.01);
}

TEST(SimTransportCost, CpuScaleMultipliesChargedTime) {
  // Two transports, identical handlers; cpu_scale 4 must stretch the
  // node's virtual clock ~4x relative to scale 1.
  auto run_with_scale = [](double scale) {
    net::CostModel cost;
    cost.latency = 0;
    cost.bandwidth = 1e15;
    cost.proc_overhead = 0;
    cost.measured_cpu = true;
    cost.cpu_scale = scale;
    net::SimTransport transport(cost);
    net::FunctionActor burner([](const net::Message&, net::Context&) {
      volatile double x = 0;
      for (int i = 0; i < 1500000; ++i) x = x + i * 0.5;
    });
    transport.register_actor(1, &burner);
    net::Message m;
    m.from = 0xff;
    m.to = 1;
    m.type = 1;
    transport.send(std::move(m));
    transport.run_until_idle();
    return transport.node_clock(1);
  };
  // The minimum of several burns per scale: a burn that was preempted
  // charges more than its CPU work, and one such run as the baseline would
  // shrink the measured ratio below the band.
  auto fastest_with_scale = [&](double scale) {
    double fastest = run_with_scale(scale);
    for (int run = 1; run < 5; ++run) {
      fastest = std::min(fastest, run_with_scale(scale));
    }
    return fastest;
  };
  const double base = fastest_with_scale(1.0);
  const double scaled = fastest_with_scale(4.0);
  ASSERT_GT(base, 0.0);
  EXPECT_GT(scaled, base * 2.0);
  EXPECT_LT(scaled, base * 8.0);
}

}  // namespace
}  // namespace mendel
