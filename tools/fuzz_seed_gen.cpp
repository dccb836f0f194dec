// Generates the fuzz seed corpora under tests/fuzz/corpus/ from the real
// encoders — every seed is a well-formed input produced by the same code
// the harnesses decode with, so libFuzzer starts from deep in the accept
// region instead of rediscovering the container formats byte by byte.
//
//   fuzz_seed_gen <corpus-root>
//
// Layout: <corpus-root>/<harness>/<seed-name>. Idempotent: re-running
// overwrites the generated seeds and leaves crasher regressions (crash-*)
// alone. The checked-in corpus was produced by this tool; regenerate after
// changing any wire or snapshot codec.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/mendel/client.h"
#include "src/mendel/protocol.h"
#include "src/scoring/matrix.h"
#include "src/sequence/fasta.h"
#include "src/workload/generator.h"

namespace {

namespace fs = std::filesystem;
using namespace mendel;

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError("cannot write seed " + (dir / name).string());
}

std::vector<std::uint8_t> tagged(std::uint8_t selector,
                                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(payload.size() + 1);
  bytes.push_back(selector);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

std::vector<std::uint8_t> tagged_text(std::uint8_t selector,
                                      const std::string& text) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(text.size() + 1);
  bytes.push_back(selector);
  bytes.insert(bytes.end(), text.begin(), text.end());
  return bytes;
}

// --- wire_message_fuzz --------------------------------------------------
// Selector byte values match the switch in wire_message_fuzz.cpp.

core::QueryParams sample_params() {
  core::QueryParams params;
  params.k = 4;
  params.n = 3;
  params.identity = 0.5;
  params.c_score = 0.25;
  params.matrix = "BLOSUM80";
  params.gapped_trigger = 1.5;
  params.band = 9;
  params.evalue = 0.01;
  return params;
}

void gen_wire(const fs::path& dir) {
  const obs::TraceContext trace{1, (7ULL << 32) | 3};

  core::StoreSequencePayload store;
  store.sequence = 3;
  store.name = "chr1";
  store.alphabet = 1;
  store.codes = {0, 1, 2, 3, 2, 1, 0};
  write_seed(dir, "store_sequence", tagged(0, core::encode_payload(store)));

  core::InsertBlocksPayload insert;
  core::Block block;
  block.sequence = 1;
  block.start = 8;
  block.window = {1, 2, 3, 4, 5, 6, 7, 8};
  insert.blocks = {block, block};
  write_seed(dir, "insert_blocks", tagged(1, core::encode_payload(insert)));

  core::QueryRequestPayload request;
  request.params = sample_params();
  request.trace = trace;
  request.query = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  write_seed(dir, "query_request", tagged(2, core::encode_payload(request)));

  core::Subquery subquery;
  subquery.query_offset = 24;
  subquery.window = {5, 4, 3, 2, 1, 0, 1, 2};

  core::GroupQueryPayload group_query;
  group_query.params = request.params;
  group_query.trace = trace;
  group_query.query = request.query;
  group_query.subqueries = {subquery};
  write_seed(dir, "group_query", tagged(3, core::encode_payload(group_query)));

  core::NodeSearchPayload node_search;
  node_search.params = request.params;
  node_search.trace = trace;
  node_search.subqueries = {subquery, subquery};
  write_seed(dir, "node_search", tagged(4, core::encode_payload(node_search)));

  core::Seed seed;
  seed.sequence = 7;
  seed.subject_start = 120;
  seed.query_offset = 16;
  seed.length = 8;
  seed.identity = 0.75;
  seed.c_score = 0.5;
  core::NodeSearchResultPayload search_result;
  search_result.seeds = {seed, seed};
  write_seed(dir, "node_search_result",
             tagged(5, core::encode_payload(search_result)));

  core::Anchor anchor;
  anchor.sequence = 9;
  anchor.q_begin = 4;
  anchor.q_end = 36;
  anchor.s_begin = 100;
  anchor.s_end = 132;
  anchor.score = 57;
  anchor.cert = 51;
  anchor.subject_len = 480;
  core::GroupResultPayload group_result;
  group_result.anchors = {anchor};
  write_seed(dir, "group_result",
             tagged(6, core::encode_payload(group_result)));

  core::FetchRangePayload fetch;
  fetch.purpose = 1;
  fetch.token = 42;
  fetch.sequence = 7;
  fetch.start = 96;
  fetch.length = 160;
  fetch.trace = trace;
  write_seed(dir, "fetch_range", tagged(7, core::encode_payload(fetch)));

  core::FetchRangeResultPayload fetched;
  fetched.purpose = 1;
  fetched.token = 42;
  fetched.sequence = 7;
  fetched.start = 96;
  fetched.sequence_length = 4096;
  fetched.sequence_name = "chr7";
  fetched.codes = {1, 1, 2, 3, 5, 8};
  write_seed(dir, "fetch_range_result",
             tagged(8, core::encode_payload(fetched)));

  align::AlignmentHit hit;
  hit.subject_id = 11;
  hit.subject_name = "sp|TEST|SAMPLE";
  hit.alignment.hsp = {3, 40, 100, 139, 88};
  hit.alignment.columns = 39;
  hit.alignment.identities = 30;
  hit.alignment.gap_columns = 2;
  hit.alignment.cigar = "20M2D17M";
  hit.bit_score = 41.5;
  hit.evalue = 1e-6;
  hit.subject_segment = {9, 8, 7, 6};
  core::QueryResultPayload result;
  result.hits = {hit};
  write_seed(dir, "query_result", tagged(9, core::encode_payload(result)));

  core::TraceReportPayload report;
  obs::SpanRecord span;
  span.name = "node.search";
  span.node = 7;
  span.query_id = 99;
  span.span_id = (7ULL << 32) | 3;
  span.parent_span = (2ULL << 32) | 1;
  span.start = 0.015625;
  span.duration_ns = 123456;
  span.value = 12;
  report.spans = {span, span};
  write_seed(dir, "trace_report", tagged(10, core::encode_payload(report)));

  core::NodeInitPayload init;
  init.generation = 2;
  init.alphabet = 0;
  init.num_groups = 2;
  init.nodes_per_group = 3;
  init.ring_virtual_nodes = 16;
  init.replication = 2;
  init.sequence_replication = 1;
  init.extra_node_groups = {1, 0};
  init.bucket_capacity = 256;
  init.database_residues = 12345;
  init.down_nodes = {4};
  init.prefix_tree = {1, 2, 3, 4};
  write_seed(dir, "node_init", tagged(11, core::encode_payload(init)));

  core::SetNodeDownPayload node_down;
  node_down.node = 5;
  node_down.down = true;
  write_seed(dir, "set_node_down", tagged(12, core::encode_payload(node_down)));

  core::SetResiduesPayload residues;
  residues.residues = 987654321;
  write_seed(dir, "set_residues", tagged(13, core::encode_payload(residues)));
}

// --- snapshot_fuzz / json_fuzz ------------------------------------------

workload::DatabaseSpec tiny_spec(seq::Alphabet alphabet) {
  workload::DatabaseSpec spec;
  spec.alphabet = alphabet;
  spec.families = 2;
  spec.members_per_family = 2;
  spec.background_sequences = 2;
  spec.min_length = 60;
  spec.max_length = 120;
  spec.seed = 41;
  return spec;
}

core::ClientOptions tiny_options() {
  core::ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 64;
  options.prefix_tree.cutoff_depth = 3;
  options.cost.measured_cpu = false;
  return options;
}

void gen_snapshot(const fs::path& dir) {
  fs::create_directories(dir);
  // Real mendel-index-v3 containers: protein (byte-per-code rows) and DNA
  // (2-bit packed arena rows) exercise both shard row formats.
  for (const auto alphabet :
       {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    core::Client client(tiny_options());
    client.index(workload::generate_database(tiny_spec(alphabet)));
    const bool dna = alphabet == seq::Alphabet::kDna;
    client.save_index(
        (dir / (dna ? "index_dna_v3" : "index_protein_v3")).string());
  }
}

void gen_json(const fs::path& dir) {
  fs::create_directories(dir);
  // A real metrics export: the largest JSON document the repo emits.
  core::Client client(tiny_options());
  client.index(workload::generate_database(tiny_spec(seq::Alphabet::kProtein)));
  const std::string metrics = client.metrics().to_json();
  std::ofstream(dir / "metrics_export") << metrics;

  std::ofstream(dir / "escapes")
      << R"({"s":"a\"b\\c\/d\b\f\n\r\tAé","empty":""})";
  std::ofstream(dir / "nested")
      << R"({"a":[1,2.5,-3e2,0.125,[true,false,null],{"k":[{}]}]})";
  std::ofstream(dir / "numbers")
      << R"([0,-0,1e-10,1.7976931348623157e308,123456789.0])";
}

// --- matrix_fasta_fuzz --------------------------------------------------

void gen_matrix_fasta(const fs::path& dir) {
  // FASTA seeds written by the real writer (selector 0 = protein, 1 = DNA).
  for (const auto alphabet :
       {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    const auto store = workload::generate_database(tiny_spec(alphabet));
    std::vector<seq::Sequence> sequences(store.begin(), store.end());
    sequences.resize(3, seq::Sequence(alphabet, "pad",
                                      std::vector<seq::Code>{0, 1, 2}));
    std::ostringstream text;
    seq::write_fasta(text, sequences, 60);
    const bool dna = alphabet == seq::Alphabet::kDna;
    write_seed(dir, dna ? "fasta_dna" : "fasta_protein",
               tagged_text(dna ? 1 : 0, text.str()));
  }

  // NCBI matrix seeds rendered from the built-in tables (selector 2 =
  // protein, 3 = DNA).
  for (const auto alphabet :
       {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    const bool dna = alphabet == seq::Alphabet::kDna;
    const auto& matrix =
        score::matrix_by_name(dna ? "DNA" : "BLOSUM62");
    std::ostringstream text;
    text << "# rendered from the built-in " << matrix.name() << " table\n ";
    const std::size_t n = seq::cardinality(alphabet);
    for (std::size_t c = 0; c < n; ++c) {
      text << "  " << seq::decode(alphabet, static_cast<seq::Code>(c));
    }
    text << '\n';
    for (std::size_t r = 0; r < n; ++r) {
      text << seq::decode(alphabet, static_cast<seq::Code>(r));
      for (std::size_t c = 0; c < n; ++c) {
        text << ' '
             << matrix.score(static_cast<seq::Code>(r),
                             static_cast<seq::Code>(c));
      }
      text << '\n';
    }
    write_seed(dir, dna ? "matrix_dna" : "matrix_blosum62",
               tagged_text(dna ? 3 : 2, text.str()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_seed_gen <corpus-root>\n";
    return 2;
  }
  try {
    const fs::path root(argv[1]);
    gen_wire(root / "wire_message_fuzz");
    gen_snapshot(root / "snapshot_fuzz");
    gen_json(root / "json_fuzz");
    gen_matrix_fasta(root / "matrix_fasta_fuzz");
  } catch (const std::exception& e) {
    std::cerr << "fuzz_seed_gen: " << e.what() << "\n";
    return 1;
  }
  std::cout << "fuzz corpora written under " << argv[1] << "\n";
  return 0;
}
