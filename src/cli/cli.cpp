#include "src/cli/cli.h"

#include <fstream>
#include <string_view>

#include "src/align/render.h"
#include "src/cli/flags.h"
#include "src/cluster/telemetry.h"
#include "src/common/error.h"
#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/mendel/client.h"
#include "src/net/socket_transport.h"
#include "src/scoring/matrix_io.h"
#include "src/sequence/fasta.h"
#include "src/workload/generator.h"

namespace mendel::cli {

namespace {

seq::Alphabet alphabet_from(const Flags& flags) {
  const std::string name = flags.str("alphabet", "protein");
  if (name == "protein") return seq::Alphabet::kProtein;
  if (name == "dna") return seq::Alphabet::kDna;
  throw InvalidArgument("--alphabet must be 'protein' or 'dna', got '" +
                        name + "'");
}

core::TransportMode transport_from(const Flags& flags) {
  const std::string name = flags.str("transport", "sim");
  if (name == "sim") return core::TransportMode::kSim;
  if (name == "threaded") return core::TransportMode::kThreaded;
  if (name == "socket") return core::TransportMode::kSocket;
  throw InvalidArgument(
      "--transport must be 'sim', 'threaded', or 'socket', got '" + name +
      "'");
}

// Transport selection shared by every command that builds a Client.
// --endpoints (or MENDEL_ENDPOINTS, read at Client construction) names the
// daemon listen addresses in node-id order for --transport=socket.
void apply_runtime_flags(const Flags& flags, core::ClientOptions& options) {
  options.runtime.transport_mode = transport_from(flags);
  const std::string endpoints = flags.str("endpoints", "");
  if (!endpoints.empty()) {
    options.runtime.socket.endpoints = net::parse_endpoint_list(endpoints);
  }
  options.runtime.socket.heartbeat_interval = flags.real(
      "heartbeat-interval", options.runtime.socket.heartbeat_interval);
  options.runtime.socket.heartbeat_timeout = flags.real(
      "heartbeat-timeout", options.runtime.socket.heartbeat_timeout);
}

core::ClientOptions client_options_from(const Flags& flags) {
  core::ClientOptions options;
  apply_runtime_flags(flags, options);
  options.topology.num_groups = flags.integer_as<std::uint32_t>("groups", 10);
  options.topology.nodes_per_group =
      flags.integer_as<std::uint32_t>("nodes-per-group", 5);
  options.topology.replication =
      flags.integer_as<std::uint32_t>("replication", 1);
  options.topology.sequence_replication =
      flags.integer_as<std::uint32_t>("sequence-replication", 1);
  options.indexing.window_length = flags.integer_as<std::size_t>("window", 8);
  options.indexing.sample_size =
      flags.integer_as<std::size_t>("sample", 4000);
  options.prefix_tree.cutoff_depth =
      flags.integer_as<std::size_t>("cutoff-depth", 6);
  return options;
}

core::QueryParams query_params_from(const Flags& flags) {
  core::QueryParams params;
  params.k = flags.integer_as<std::uint32_t>("k", params.k);
  params.n = flags.integer_as<std::uint32_t>("n", params.n);
  params.identity = flags.real("identity", params.identity);
  params.c_score = flags.real("c-score", params.c_score);
  params.matrix = flags.str("matrix", params.matrix);
  params.gapped_trigger = flags.real("trigger", params.gapped_trigger);
  params.band = flags.integer_as<std::uint32_t>("band", params.band);
  params.evalue = flags.real("evalue", params.evalue);
  params.branch_epsilon =
      flags.real("branch-epsilon", params.branch_epsilon);
  params.max_hits =
      flags.integer_as<std::uint32_t>("max-hits", params.max_hits);
  params.min_anchor_span = flags.integer_as<std::uint32_t>(
      "min-anchor-span", params.min_anchor_span);
  return params;
}

// Shared by index/query: dump the unified metrics snapshot as JSON.
void write_metrics_json(const core::Client& client, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open metrics output: " + path);
  out << client.metrics().to_json() << "\n";
  if (!out) throw IoError("metrics write failed for " + path);
}

seq::SequenceStore load_store(const std::string& path,
                              seq::Alphabet alphabet) {
  seq::SequenceStore store(alphabet);
  std::ifstream in(path);
  if (!in) throw IoError("cannot open FASTA file: " + path);
  seq::load_fasta(in, store);
  require(!store.empty(), "FASTA file holds no sequences: " + path);
  return store;
}

// ---------------------------------------------------------------- generate

int run_generate(const Flags& flags, std::ostream& out) {
  const std::string db_path = flags.str_required("out");
  workload::DatabaseSpec spec;
  spec.alphabet = alphabet_from(flags);
  spec.families = flags.integer_as<std::size_t>("families", 20);
  spec.members_per_family = flags.integer_as<std::size_t>("members", 6);
  spec.background_sequences =
      flags.integer_as<std::size_t>("background", 40);
  spec.min_length = flags.integer_as<std::size_t>("min-len", 300);
  spec.max_length = flags.integer_as<std::size_t>("max-len", 1200);
  spec.seed = static_cast<std::uint64_t>(flags.integer("seed", 42));

  const std::string query_path = flags.str("queries", "");
  const auto query_count = flags.integer_as<std::size_t>("query-count", 10);
  const auto query_length =
      flags.integer_as<std::size_t>("query-length", 500);
  const double query_noise = flags.real("query-noise", 0.05);
  flags.reject_unconsumed();

  const auto store = workload::generate_database(spec);
  std::vector<seq::Sequence> sequences(store.begin(), store.end());
  seq::write_fasta_file(db_path, sequences);
  out << "wrote " << store.size() << " sequences ("
      << store.total_residues() << " residues) to " << db_path << "\n";

  if (!query_path.empty()) {
    workload::QuerySetSpec query_spec;
    query_spec.count = query_count;
    query_spec.length = query_length;
    query_spec.noise = {query_noise, 0.0, 0.3};
    query_spec.seed = spec.seed ^ 0x71;
    const auto queries = workload::sample_queries(store, query_spec);
    seq::write_fasta_file(query_path, queries);
    out << "wrote " << queries.size() << " queries to " << query_path
        << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------- index

int run_index(const Flags& flags, std::ostream& out) {
  const std::string db_path = flags.str_required("db");
  const std::string out_path = flags.str_required("out");
  const std::string metrics_path = flags.str("metrics-json", "");
  const auto alphabet = alphabet_from(flags);
  const auto options = client_options_from(flags);
  flags.reject_unconsumed();

  const auto store = load_store(db_path, alphabet);
  core::Client client(options);
  Stopwatch watch;
  const auto report = client.index(store);
  client.save_index(out_path);
  out << "indexed " << report.sequences << " sequences into "
      << report.blocks << " blocks over "
      << client.topology().total_nodes() << " nodes ("
      << options.topology.num_groups << " groups x "
      << options.topology.nodes_per_group << ") in "
      << TextTable::num(watch.seconds(), 2) << "s\n"
      << "index saved to " << out_path << "\n";
  if (!metrics_path.empty()) {
    write_metrics_json(client, metrics_path);
    out << "metrics written to " << metrics_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------- query

int run_query(const Flags& flags, std::ostream& out) {
  const std::string index_path = flags.str_required("index");
  const std::string queries_path = flags.str_required("queries");
  const std::string format = flags.str("format", "summary");
  require(format == "summary" || format == "tabular" || format == "pairwise",
          "--format must be summary, tabular, or pairwise");
  const auto alphabet = alphabet_from(flags);
  auto params = query_params_from(flags);
  params.include_subject_segment = format == "pairwise";
  // A custom NCBI-format matrix file: loaded, registered under its file
  // name (or --matrix if given), and referenced by the query parameters.
  const std::string matrix_file = flags.str("matrix-file", "");
  if (!matrix_file.empty()) {
    const std::string matrix_name =
        flags.has("matrix") ? params.matrix : "CUSTOM:" + matrix_file;
    score::register_matrix(score::load_matrix_file(
        matrix_file, matrix_name, alphabet));
    params.matrix = matrix_name;
  }
  const std::string metrics_path = flags.str("metrics-json", "");
  // Name of the query whose distributed trace to dump after its result.
  const std::string trace_query = flags.str("trace", "");
  core::ClientOptions client_options;
  apply_runtime_flags(flags, client_options);
  flags.reject_unconsumed();

  client_options.runtime.enable_tracing = !trace_query.empty();
  core::Client client(client_options);
  client.load_index(index_path);

  const auto queries = seq::read_fasta_file(queries_path, alphabet);
  require(!queries.empty(), "query FASTA holds no sequences");
  bool traced_one = false;

  const auto& matrix = score::matrix_by_name(params.matrix);
  if (format == "tabular") {
    out << "# query\tsubject\tidentity%\tcolumns\tmismatches\tgaps\tqstart"
           "\tqend\tsstart\tsend\tevalue\tbits\n";
  }
  // Turnaround is virtual time under the simulator, wall time otherwise.
  const char* turnaround_label =
      client_options.runtime.transport_mode == core::TransportMode::kSim
          ? "simulated turnaround"
          : "wall-clock turnaround";
  std::string trace_dump;
  for (const auto& query : queries) {
    const auto ticket = client.submit(query, params);
    const auto outcome = client.wait(ticket);
    // Match the full header or the FASTA id (up to the first space), so
    // `--trace query2` finds ">query2 from=20 at=155".
    const std::string_view query_id =
        std::string_view(query.name())
            .substr(0, query.name().find(' '));
    if (!trace_query.empty() &&
        (query.name() == trace_query || query_id == trace_query)) {
      traced_one = true;
      trace_dump = client.collect_trace(ticket.id).format();
    }
    if (format == "tabular") {
      for (const auto& hit : outcome.hits) {
        out << align::render_tabular(query.name(), hit) << "\n";
      }
      continue;
    }
    out << "Query: " << query.name() << " (" << query.size()
        << " residues) — " << outcome.hits.size() << " hits, "
        << TextTable::num(outcome.turnaround * 1e3, 2) << " ms "
        << turnaround_label << "\n";
    if (format == "summary") {
      for (const auto& hit : outcome.hits) {
        out << "  " << hit.subject_name << "  bits "
            << TextTable::num(hit.bit_score, 1) << "  E " << hit.evalue
            << "  identity "
            << TextTable::percent(hit.alignment.percent_identity(), 1)
            << "  q[" << hit.alignment.hsp.q_begin + 1 << "-"
            << hit.alignment.hsp.q_end << "] s["
            << hit.alignment.hsp.s_begin + 1 << "-"
            << hit.alignment.hsp.s_end << "]\n";
      }
      out << "\n";
      continue;
    }
    // pairwise
    for (const auto& hit : outcome.hits) {
      out << align::render_alignment(hit, query.codes(),
                                     hit.subject_segment, alphabet, matrix);
    }
    out << "\n";
  }
  if (!trace_query.empty()) {
    if (traced_one) {
      out << "trace for query '" << trace_query << "':\n" << trace_dump;
    } else {
      out << "no query named '" << trace_query << "' in " << queries_path
          << "; nothing traced\n";
    }
  }
  if (!metrics_path.empty()) {
    write_metrics_json(client, metrics_path);
    out << "metrics written to " << metrics_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------ search

// One-shot index + query without touching disk persistence — the only CLI
// path that works on every transport, including --transport=socket where
// the shards live in mendel-node daemons and save/load are unavailable.
int run_search(const Flags& flags, std::ostream& out) {
  const std::string db_path = flags.str_required("db");
  const std::string queries_path = flags.str_required("queries");
  const std::string metrics_path = flags.str("metrics-json", "");
  const auto alphabet = alphabet_from(flags);
  const auto options = client_options_from(flags);
  const auto params = query_params_from(flags);
  flags.reject_unconsumed();

  const auto store = load_store(db_path, alphabet);
  core::Client client(options);
  Stopwatch watch;
  const auto report = client.index(store);
  out << "indexed " << report.sequences << " sequences into "
      << report.blocks << " blocks over "
      << client.topology().total_nodes() << " nodes in "
      << TextTable::num(watch.seconds(), 2) << "s\n";

  const auto queries = seq::read_fasta_file(queries_path, alphabet);
  require(!queries.empty(), "query FASTA holds no sequences");
  for (const auto& query : queries) {
    const auto ticket = client.submit(query, params);
    const auto outcome = client.wait(ticket);
    out << "Query: " << query.name() << " (" << query.size()
        << " residues) — " << outcome.hits.size() << " hits\n";
    for (const auto& hit : outcome.hits) {
      out << "  " << hit.subject_name << "  bits "
          << TextTable::num(hit.bit_score, 1) << "  E " << hit.evalue
          << "  identity "
          << TextTable::percent(hit.alignment.percent_identity(), 1)
          << "\n";
    }
  }
  if (!metrics_path.empty()) {
    write_metrics_json(client, metrics_path);
    out << "metrics written to " << metrics_path << "\n";
  }
  return 0;
}

// --------------------------------------------------------------------- add

int run_add(const Flags& flags, std::ostream& out) {
  const std::string index_path = flags.str_required("index");
  const std::string db_path = flags.str_required("db");
  const std::string out_path = flags.str("out", index_path);
  const auto alphabet = alphabet_from(flags);
  flags.reject_unconsumed();

  core::Client client(core::ClientOptions{});
  client.load_index(index_path);
  const auto more = load_store(db_path, alphabet);
  const auto base = client.add_sequences(more);
  client.save_index(out_path);
  out << "added " << more.size() << " sequences (cluster ids " << base
      << ".." << base + more.size() - 1 << "); index saved to " << out_path
      << "\n";
  return 0;
}

// -------------------------------------------------------------------- grow

int run_grow(const Flags& flags, std::ostream& out) {
  const std::string index_path = flags.str_required("index");
  const std::string out_path = flags.str("out", index_path);
  const auto group = flags.integer_as<std::uint32_t>("group", 0);
  const auto count = flags.integer_as<std::uint32_t>("count", 1);
  flags.reject_unconsumed();

  core::Client client(core::ClientOptions{});
  client.load_index(index_path);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = client.add_node(group);
    const auto counts = client.block_counts();
    out << "added node " << id << " to group " << group << " (now holds "
        << counts[id] << " blocks after rebalance)\n";
  }
  client.save_index(out_path);
  out << "index saved to " << out_path << "\n";
  return 0;
}

// ----------------------------------------------------------------- balance

int run_balance(const Flags& flags, std::ostream& out) {
  const std::string db_path = flags.str_required("db");
  const auto alphabet = alphabet_from(flags);
  const auto options = client_options_from(flags);
  flags.reject_unconsumed();

  const auto store = load_store(db_path, alphabet);
  cluster::Topology topology(options.topology);
  const auto& distance = score::default_distance(alphabet);
  core::Indexer indexer(&topology, &distance, options.indexing);
  const auto tree =
      indexer.build_prefix_tree(store, options.prefix_tree);
  topology.bind_prefixes(tree.leaf_prefixes());

  const auto flat = indexer.flat_placement_counts(store);
  const auto two_tier = indexer.placement_counts(store, tree);
  TextTable table("Placement balance: " + db_path);
  table.set_header({"placement", "min share", "max share", "max spread",
                    "CoV"});
  auto row = [&](const char* name, const std::vector<std::uint64_t>& counts) {
    const auto report = cluster::analyze_load(counts);
    table.add_row({name, TextTable::percent(report.min_share, 2),
                   TextTable::percent(report.max_share, 2),
                   TextTable::percent(report.max_spread, 2),
                   TextTable::num(report.cov, 3)});
  };
  row("flat SHA-1", flat);
  row("two-tier vp-LSH", two_tier);
  table.print(out);
  return 0;
}

// -------------------------------------------------------------------- info

int run_info(const Flags& flags, std::ostream& out) {
  const std::string index_path = flags.str_required("index");
  flags.reject_unconsumed();
  core::Client client(core::ClientOptions{});
  client.load_index(index_path);
  const auto counts = client.block_counts();
  std::uint64_t blocks = 0;
  for (auto c : counts) blocks += c;
  const auto report = cluster::analyze_load(counts);
  out << "index: " << index_path << "\n"
      << "  topology: " << client.topology().num_groups() << " groups x "
      << client.topology().nodes_per_group() << " nodes = "
      << client.topology().total_nodes() << " nodes\n"
      << "  blocks: " << blocks << " (max node spread "
      << TextTable::percent(report.max_spread, 2) << ", CoV "
      << TextTable::num(report.cov, 3) << ")\n";
  return 0;
}

// -------------------------------------------------------------------- help

void print_help(std::ostream& out) {
  out << "mendel — distributed similarity search over sequencing data\n\n"
         "commands:\n"
         "  generate --out DB.fasta [--alphabet protein|dna] [--families N]\n"
         "           [--members N] [--background N] [--min-len N] [--max-len N]\n"
         "           [--seed N] [--queries Q.fasta --query-count N\n"
         "            --query-length N --query-noise F]\n"
         "  index    --db DB.fasta --out INDEX.mnd [--alphabet protein|dna]\n"
         "           [--groups N] [--nodes-per-group N] [--replication N]\n"
         "           [--sequence-replication N] [--window N] [--sample N]\n"
         "           [--cutoff-depth N] [--metrics-json METRICS.json]\n"
         "  query    --index INDEX.mnd --queries Q.fasta [--format summary|\n"
         "           tabular|pairwise] [--alphabet protein|dna]\n"
         "           [--metrics-json METRICS.json] dump the unified metrics\n"
         "           snapshot after the run; [--trace QUERY_NAME] trace that\n"
         "           query through the cluster and print its span timeline;\n"
         "           plus the paper's Table I parameters: [--k N] [--n N]\n"
         "           [--identity F] [--c-score F] [--matrix NAME]\n"
         "           [--trigger F] [--band N] [--evalue F]\n"
         "           [--branch-epsilon F] [--max-hits N] [--min-anchor-span N]\n"
         "  search   --db DB.fasta --queries Q.fasta one-shot index + query\n"
         "           (no index file); works on every transport, including\n"
         "           [--transport sim|threaded|socket] with\n"
         "           [--endpoints HOST:PORT,... or unix:PATH,...]\n"
         "           [--heartbeat-interval S] [--heartbeat-timeout S]\n"
         "           (socket mode needs running mendel-node daemons; see\n"
         "           docs/architecture.md \"Deployment\"); takes the index\n"
         "           and query flags above\n"
         "  add      --index INDEX.mnd --db MORE.fasta [--out NEW.mnd]\n"
         "           incrementally index additional sequences\n"
         "  grow     --index INDEX.mnd --group N [--count N] [--out NEW.mnd]\n"
         "           add storage nodes to a group and rebalance\n"
         "  balance  --db DB.fasta [topology flags as for index]\n"
         "  info     --index INDEX.mnd\n"
         "  help     [command]\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    print_help(out);
    return 0;
  }
  const std::string command = args[0];
  const Flags flags =
      Flags::parse({args.begin() + 1, args.end()});
  try {
    if (command == "generate") return run_generate(flags, out);
    if (command == "index") return run_index(flags, out);
    if (command == "query") return run_query(flags, out);
    if (command == "search") return run_search(flags, out);
    if (command == "add") return run_add(flags, out);
    if (command == "grow") return run_grow(flags, out);
    if (command == "balance") return run_balance(flags, out);
    if (command == "info") return run_info(flags, out);
    err << "unknown command '" << command << "'\n\n";
    print_help(err);
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace mendel::cli
