#include "bench/e2e/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench/e2e/path.h"
#include "bench/e2e/socket_cluster.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/mendel/client.h"
#include "src/mendel/protocol.h"
#include "src/workload/generator.h"

namespace mendel::bench {

namespace {

using Clock = std::chrono::steady_clock;

// Client::now_seconds() reads the same clock outside the simulator, so
// ticket.injected_at and these timestamps compare directly.
double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Inputs. Everything below derives from the run's seed; the system under
// test only ever sees the generated sequences.

struct Query {
  seq::Sequence sequence;
  seq::SequenceId origin = 0;
};

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// `count` evenly spaced quantiles of the uniform distribution on
// [lo, hi], in seeded order.
//
// Inputs are spread this way rather than drawn i.i.d. throughout: the
// cost of a run scales with database size and query length, so i.i.d.
// draws would make each seed's cost differ by what the draws happened to
// sum to. Spread, the seed changes what the inputs hold, not how much work
// they are, and runs differ by what the system does.
std::vector<std::size_t> spread(std::size_t count, std::size_t lo,
                                std::size_t hi, Rng& rng) {
  std::vector<std::size_t> out(count);
  const double span = static_cast<double>(hi - lo);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + static_cast<std::size_t>((static_cast<double>(i) + 0.5) /
                                           static_cast<double>(count) * span);
  }
  shuffle(out, rng);
  return out;
}

struct DatabaseShape {
  seq::Alphabet alphabet = seq::Alphabet::kProtein;
  std::size_t families = 0;
  std::size_t members = 0;  // per family, the ancestor included
  std::size_t background = 0;
  std::size_t min_length = 0;
  std::size_t max_length = 0;
};

// workload::generate_database's model — a random ancestor per family
// evolved into members by substitutions and indels, plus unrelated
// background — with spread lineage lengths (see spread()).
seq::SequenceStore make_database(const DatabaseShape& shape,
                                 std::uint64_t seed) {
  Rng rng(seed);
  const workload::MutationModel divergence{0.15, 0.01, 0.3};
  seq::SequenceStore store(shape.alphabet);
  const auto family_lengths =
      spread(shape.families, shape.min_length, shape.max_length, rng);
  for (std::size_t f = 0; f < shape.families; ++f) {
    const std::string family = "family" + std::to_string(f);
    const auto ancestor = workload::random_sequence(
        shape.alphabet, family_lengths[f], family + "/ancestor", rng);
    store.add(ancestor);
    for (std::size_t m = 1; m < shape.members; ++m) {
      store.add(workload::mutate(ancestor, divergence,
                                 family + "/member" + std::to_string(m), rng));
    }
  }
  const auto background_lengths =
      spread(shape.background, shape.min_length, shape.max_length, rng);
  for (std::size_t b = 0; b < shape.background; ++b) {
    store.add(workload::random_sequence(shape.alphabet, background_lengths[b],
                                        "background" + std::to_string(b),
                                        rng));
  }
  return store;
}

// The scaled stand-in for the paper's nr database: families of six
// homologs plus unrelated background, 300–3500 residues (mean ~1900),
// counts scaled to `residues`.
DatabaseShape scaled_shape(std::size_t residues, seq::Alphabet alphabet) {
  const std::size_t sequences = std::max<std::size_t>(20, residues / 1900);
  DatabaseShape shape;
  shape.alphabet = alphabet;
  shape.families = std::max<std::size_t>(4, sequences / 10);
  shape.members = 6;
  shape.background = sequences > shape.families * 6
                         ? sequences - shape.families * 6
                         : 4;
  shape.min_length = 300;
  shape.max_length = 3500;
  return shape;
}

struct QuerySpec {
  std::size_t count = 0;
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  // Lengths from the NIH BLAST trace lognormal (clamped) instead of
  // uniform in [min_length, max_length].
  bool trace_lengths = false;
  // Origins are drawn from database ids >= first_origin.
  seq::SequenceId first_origin = 0;
};

// Query lengths in shuffled blocks of 64, each block holding the same
// spread quantiles of the length distribution, so every window of the
// stream sees nearly the same mix.
std::vector<std::size_t> query_lengths(const QuerySpec& spec, Rng& rng) {
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kDrawsPerQuantile = 100;
  const std::size_t block = std::min(spec.count, kBlock);
  std::vector<std::size_t> quantiles =
      spread(block, spec.min_length, spec.max_length, rng);
  if (spec.trace_lengths) {
    std::vector<std::size_t> draws(block * kDrawsPerQuantile);
    for (auto& d : draws) {
      d = workload::sample_trace_query_length(rng, spec.min_length,
                                              spec.max_length);
    }
    std::sort(draws.begin(), draws.end());
    for (std::size_t i = 0; i < block; ++i) {
      quantiles[i] = draws[i * kDrawsPerQuantile + kDrawsPerQuantile / 2];
    }
  }
  std::vector<std::size_t> lengths;
  while (lengths.size() < spec.count) {
    shuffle(quantiles, rng);
    lengths.insert(lengths.end(), quantiles.begin(), quantiles.end());
  }
  lengths.resize(spec.count);
  return lengths;
}

// Mutated regions of database sequences (5% substitutions plus rare
// indels: sequencing error and strain divergence); each remembers its
// origin so recall can be checked. Origins step through the id range by
// the golden ratio from a seeded start, so any run of consecutive queries
// draws families and background in their database proportions.
std::vector<Query> sample_queries(const seq::SequenceStore& db,
                                  const QuerySpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const workload::MutationModel noise{0.05, 0.002, 0.3};
  const std::size_t ids = db.size() - spec.first_origin;
  double position = rng.uniform();
  std::vector<Query> queries;
  queries.reserve(spec.count);
  for (const std::size_t length : query_lengths(spec, rng)) {
    position = std::fmod(position + 0.6180339887498949, 1.0);
    const auto start = static_cast<std::size_t>(position *
                                                static_cast<double>(ids));
    std::optional<seq::SequenceId> origin;
    for (std::size_t k = 0; k < ids && !origin; ++k) {
      const auto id =
          static_cast<seq::SequenceId>(spec.first_origin + (start + k) % ids);
      if (db.at(id).size() >= length) origin = id;
    }
    require(origin.has_value(), "sample_queries: no origin long enough");
    const auto& donor = db.at(*origin);
    const std::size_t offset = rng.below(donor.size() - length + 1);
    const auto window = donor.window(offset, length);
    const seq::Sequence raw(db.alphabet(), "",
                            {window.begin(), window.end()});
    queries.push_back(
        {workload::mutate(raw, noise, "q" + std::to_string(queries.size()),
                          rng),
         *origin});
  }
  return queries;
}

// Stricter filters than the library defaults, so candidate volume tracks
// true matches rather than n × nodes (the figure benches use the same).
core::QueryParams protein_params() {
  core::QueryParams params;
  params.n = 8;
  params.identity = 0.50;
  params.c_score = 0.50;
  params.branch_epsilon = 4.0;
  params.min_anchor_span = 12;
  return params;
}

// DNA scoring is matrix-relative (a perfect column scores +2), so the
// protein-calibrated thresholds would reject even exact matches.
core::QueryParams dna_params() {
  core::QueryParams params;
  params.n = 8;
  params.matrix = "DNA";
  params.identity = 0.60;
  params.c_score = 0.40;
  params.gapped_trigger = 1.0;
  params.branch_epsilon = 4.0;
  params.min_anchor_span = 12;
  return params;
}

bool found_origin(const core::QueryOutcome& outcome, seq::SequenceId origin) {
  return std::any_of(outcome.hits.begin(), outcome.hits.end(),
                     [&](const align::AlignmentHit& hit) {
                       return hit.subject_id == origin;
                     });
}

std::vector<std::uint8_t> encoded_hits(const core::QueryOutcome& outcome) {
  core::QueryResultPayload payload;
  payload.hits = outcome.hits;
  return core::encode_payload(payload);
}

// ---------------------------------------------------------------------------
// Deployment: one Client (plus, in socket mode, its daemons) with every
// runtime option at its default except the transport.

struct ClusterSpec {
  std::uint32_t groups = 4;
  std::uint32_t per_group = 3;
  core::TransportMode mode = core::TransportMode::kThreaded;
};

// Socket mode: the daemons serving the cluster's node ids.
constexpr std::size_t kDaemons = 3;

core::ClientOptions client_options(const ClusterSpec& spec, bool tracing) {
  core::ClientOptions options;
  options.topology.num_groups = spec.groups;
  options.topology.nodes_per_group = spec.per_group;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 4000;
  options.prefix_tree.cutoff_depth = 6;
  options.runtime.transport_mode = spec.mode;
  options.runtime.enable_tracing = tracing;
  return options;
}

// Flat name → value view of every instrument the per-layer metrics read;
// histograms contribute "<name>.count" and "<name>.sum" (seconds).
using Counters = std::map<std::string, double>;

void add_snapshot(Counters& out, const obs::MetricsSnapshot& snap) {
  for (const auto& c : snap.counters) {
    out[c.name] += static_cast<double>(c.value);
  }
  for (const auto& g : snap.gauges) {
    out[g.name] += static_cast<double>(g.value);
  }
  for (const auto& h : snap.histograms) {
    out[h.name + ".count"] += static_cast<double>(h.count);
    out[h.name + ".sum"] += static_cast<double>(h.sum_ns) * 1e-9;
  }
}

Counters operator-(Counters after, const Counters& before) {
  for (const auto& [name, value] : before) after[name] -= value;
  return after;
}

double get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

class Deployment {
 public:
  Deployment(const ClusterSpec& spec, const seq::SequenceStore& db,
             bool tracing, const std::string& scratch_dir) {
    const Stopwatch watch;
    auto options = client_options(spec, tracing);
    if (spec.mode == core::TransportMode::kSocket) {
      cluster_ = std::make_unique<SocketCluster>(
          spec.groups * spec.per_group, kDaemons, scratch_dir,
          &registry_);
      options.runtime.socket.endpoints = cluster_->endpoints();
    }
    client_ = std::make_unique<core::Client>(std::move(options));
    client_->index(db);
    setup_s_ = watch.seconds();
  }

  core::Client& client() { return *client_; }
  double setup_s() const { return setup_s_; }
  SocketCluster* cluster() { return cluster_.get(); }

  // Call with no query in flight.
  Counters counters() {
    Counters out;
    add_snapshot(out, client_->metrics());
    if (cluster_ == nullptr) return out;
    // Socket mode: the nodes live behind the daemons, so fold in what the
    // client cannot see — their registry, counters and transports.
    cluster_->wait_idle();
    add_snapshot(out, registry_.snapshot());
    for (const core::StorageNode* node : cluster_->nodes()) {
      const auto& c = node->counters();
      out["node.nn_searches"] += static_cast<double>(c.nn_searches);
      out["node.nn_cache_hits"] += static_cast<double>(c.nn_cache_hits);
      out["node.nn_cache_misses"] += static_cast<double>(c.nn_cache_misses);
      out["node.seeds_emitted"] += static_cast<double>(c.seeds_emitted);
      out["node.fetches_served"] += static_cast<double>(c.fetches_served);
      out["node.anchors_extended"] +=
          static_cast<double>(c.anchors_extended);
      out["node.gapped_extensions"] +=
          static_cast<double>(c.gapped_extensions);
      out["node.fetch_ranges_coalesced"] +=
          static_cast<double>(c.fetch_ranges_coalesced);
      out["node.anchors_pruned"] += static_cast<double>(c.anchors_pruned);
      out["node.blocks_inserted"] += static_cast<double>(c.blocks_inserted);
      out["arena.resident_bytes"] +=
          static_cast<double>(node->arena_stats().resident_bytes);
    }
    for (const auto& transport : cluster_->transports()) {
      const auto traffic = transport->stats();
      out["net.messages"] += static_cast<double>(traffic.messages);
      out["net.bytes"] += static_cast<double>(traffic.bytes);
      out["net.dropped_messages"] +=
          static_cast<double>(transport->dropped_messages());
      out["net.frame_errors"] +=
          static_cast<double>(transport->frame_errors());
      out["net.reconnects"] += static_cast<double>(transport->reconnects());
      out["net.decode_errors"] +=
          static_cast<double>(transport->decode_errors());
      out["net.handler_errors"] +=
          static_cast<double>(transport->handler_errors().size());
    }
    return out;
  }

 private:
  // Declared first: the daemons' nodes record into it until they stop.
  obs::MetricsRegistry registry_;
  std::unique_ptr<SocketCluster> cluster_;
  // Declared last: the client stops its transport before the daemons go.
  std::unique_ptr<core::Client> client_;
  double setup_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Load drivers. A cursor walks the query pool across phases (warm-up,
// measurement, traced pass), wrapping only when the pool is exhausted.

struct LoadStats {
  std::vector<double> latency_ms;
  std::vector<double> turnaround_ms;
  // Open loop: how late each submission ran against its schedule.
  std::vector<double> late_ms;
  // Ticket ids of completed queries, with their turnaround (seconds).
  std::vector<std::pair<std::uint64_t, double>> completed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t found = 0;
  double wall_s = 0.0;

  void record(const Query& query, const core::QueryTicket& ticket,
              const core::QueryOutcome& outcome, double latency_s) {
    ++attempted;
    if (!outcome.completed) {
      ++failed;
      return;
    }
    latency_ms.push_back(latency_s * 1e3);
    turnaround_ms.push_back(outcome.turnaround * 1e3);
    completed.emplace_back(ticket.id, outcome.turnaround);
    if (found_origin(outcome, query.origin)) ++found;
  }

  void absorb(LoadStats other) {
    auto append = [](auto& into, auto& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(latency_ms, other.latency_ms);
    append(turnaround_ms, other.turnaround_ms);
    append(late_ms, other.late_ms);
    append(completed, other.completed);
    attempted += other.attempted;
    failed += other.failed;
    found += other.found;
  }
};

struct Pool {
  const std::vector<Query>* queries = nullptr;
  std::size_t cursor = 0;

  const Query& next() { return (*queries)[cursor++ % queries->size()]; }
};

// One client submitting its next query as soon as the last one returns,
// until `seconds` pass and at least `min_queries` have been issued, or
// `max_queries` have.
//
// One client, because a single query already fans out to every node's
// thread and keeps about three of four CPUs busy. With four clients, the
// interquartile range of extend-cached's qps over eight seeds was 18%
// against 8% for one client in the same interleaved runs: the extra
// clients measured the host's scheduler rather than the system.
LoadStats closed_loop(core::Client& client, Pool& pool,
                      const core::QueryParams& params, double seconds,
                      std::size_t min_queries, std::size_t max_queries) {
  LoadStats stats;
  const double start = now_s();
  const double deadline = start + seconds;
  for (std::size_t n = 0;
       n < max_queries && (n < min_queries || now_s() < deadline); ++n) {
    const Query& query = pool.next();
    const double t0 = now_s();
    const auto ticket = client.submit(query.sequence, params);
    const auto outcome = client.wait(ticket);
    stats.record(query, ticket, outcome, now_s() - t0);
  }
  stats.wall_s = now_s() - start;
  return stats;
}

// Poisson arrivals at `rate` per second from one submitter thread; one
// waiter thread redeems tickets in order. Latency runs from each query's
// scheduled arrival, so a stall also counts against the queries queued
// behind it.
LoadStats open_loop(core::Client& client, Pool& pool,
                    const core::QueryParams& params, double rate,
                    double seconds, std::size_t max_queries,
                    std::uint64_t seed) {
  struct Pending {
    const Query* query;
    core::QueryTicket ticket;
    double scheduled;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;

  LoadStats stats;
  const double start = now_s();
  std::thread waiter([&] {
    for (;;) {
      Pending pending;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        pending = queue.front();
        queue.pop_front();
      }
      const auto outcome = client.wait(pending.ticket);
      stats.record(*pending.query, pending.ticket, outcome,
                   (pending.ticket.injected_at - pending.scheduled) +
                       outcome.turnaround);
      stats.late_ms.push_back(
          (pending.ticket.injected_at - pending.scheduled) * 1e3);
    }
  });

  Rng rng(seed);
  double scheduled = start;
  for (std::size_t i = 0; i < max_queries; ++i) {
    scheduled += -std::log(1.0 - rng.uniform()) / rate;
    if (scheduled > start + seconds) break;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(scheduled))));
    const Query& query = pool.next();
    Pending pending{&query, client.submit(query.sequence, params), scheduled};
    {
      std::lock_guard lock(mu);
      queue.push_back(pending);
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_one();
  waiter.join();
  stats.wall_s = now_s() - start;
  return stats;
}

// ---------------------------------------------------------------------------
// Per-layer measurements taken by the bench itself.

// Tier-1 routing cost from outside: the coordinator's stride-k windows
// (plus the tail flush) hashed with hash_multi and mapped to groups.
struct RoutingStats {
  double hash_us_per_query = 0.0;
  double groups_per_query = 0.0;
};

RoutingStats time_routing(const core::Client& client,
                          const std::vector<Query>& queries,
                          const core::QueryParams& params) {
  const auto& tree = client.prefix_tree();
  const auto& topology = client.topology();
  const std::size_t k = params.k;
  const std::size_t w = tree.window_length();
  RoutingStats out;
  if (queries.empty()) return out;
  std::size_t groups_total = 0;
  std::size_t passes = 0;
  const Stopwatch watch;
  do {
    for (const auto& query : queries) {
      const auto codes = query.sequence.codes();
      if (codes.size() < w) continue;
      std::set<std::uint32_t> groups;
      const std::size_t last = codes.size() - w;
      for (std::size_t offset = 0;; offset += k) {
        const std::size_t at = std::min(offset, last);
        for (std::uint64_t prefix :
             tree.hash_multi(codes.subspan(at, w), params.branch_epsilon)) {
          groups.insert(topology.group_for_prefix(prefix));
        }
        if (at == last) break;
      }
      groups_total += groups.size();
    }
    ++passes;
  } while (watch.seconds() < 0.05);
  const double n = static_cast<double>(passes * queries.size());
  out.hash_us_per_query = watch.micros() / n;
  out.groups_per_query = static_cast<double>(groups_total) / n;
  return out;
}

// Encode/decode cost of sampled wire payloads, ns per KiB of payload.
struct CodecCost {
  double decode_ns_per_kb = 0.0;
  double encode_ns_per_kb = 0.0;
};

// Times decode_payload and encode_payload over the samples, ~50 ms each,
// and checks that every payload re-encodes to its original bytes.
template <typename Payload>
CodecCost time_codec(const std::vector<std::vector<std::uint8_t>>& samples,
                     RunResult& result) {
  CodecCost out;
  if (samples.empty()) return out;
  std::vector<Payload> decoded;
  std::size_t bytes = 0;
  for (const auto& s : samples) {
    decoded.push_back(core::decode_payload<Payload>(s));
    if (core::encode_payload(decoded.back()) != s) {
      result.fail("codec: a sampled payload does not re-encode to its bytes");
    }
    bytes += s.size();
  }
  const double kb_per_pass = static_cast<double>(bytes) / 1024.0;
  auto ns_per_kb = [&](auto&& pass) {
    std::size_t passes = 0;
    const Stopwatch watch;
    do {
      pass();
      ++passes;
    } while (watch.seconds() < 0.05);
    return watch.seconds() * 1e9 /
           (kb_per_pass * static_cast<double>(passes));
  };
  // Both calls allocate their results, so neither loop can be elided.
  out.decode_ns_per_kb = ns_per_kb([&] {
    for (const auto& s : samples) core::decode_payload<Payload>(s);
  });
  out.encode_ns_per_kb = ns_per_kb([&] {
    for (const auto& p : decoded) core::encode_payload(p);
  });
  return out;
}

struct SocketLayer {
  CodecCost group_result;
  CodecCost fetch_range_result;
  std::array<double, kDataflowTypes.size()> handler_p50_us{};
};

SocketLayer socket_layer(const SocketCluster& cluster, RunResult& result) {
  SocketLayer out;
  std::vector<std::vector<std::uint8_t>> group_results;
  std::vector<std::vector<std::uint8_t>> fetch_results;
  std::array<std::vector<double>, kDataflowTypes.size()> handler_us;
  for (const HandlerSamples* s : cluster.samples()) {
    group_results.insert(group_results.end(), s->group_results.begin(),
                         s->group_results.end());
    fetch_results.insert(fetch_results.end(), s->fetch_results.begin(),
                         s->fetch_results.end());
    for (std::size_t t = 0; t < handler_us.size(); ++t) {
      handler_us[t].insert(handler_us[t].end(), s->handler_us[t].begin(),
                           s->handler_us[t].end());
    }
  }
  out.group_result =
      time_codec<core::GroupResultPayload>(group_results, result);
  out.fetch_range_result =
      time_codec<core::FetchRangeResultPayload>(fetch_results, result);
  for (std::size_t t = 0; t < handler_us.size(); ++t) {
    out.handler_p50_us[t] = median(std::move(handler_us[t]));
  }
  return out;
}

struct IngestStats {
  double batch_ms = 0.0;
  double residues_per_s = 0.0;
  double blocks_per_kres = 0.0;
  double first_query_ms = 0.0;
  double steady_query_ms = 0.0;
};

struct PathStats {
  std::array<double, kPathIntervals.size()> interval_ms{};
  double e2e_ms = 0.0;
  double unaccounted_ms = 0.0;
  double traced_p50_ms = 0.0;
  std::size_t queries = 0;
};

// Collects every traced query's spans and takes the median of each
// critical-path interval over the queries whose path is complete.
PathStats traced_paths(core::Client& client, const LoadStats& traced,
                       RunResult& result) {
  PathStats out;
  std::array<std::vector<double>, kPathIntervals.size()> intervals;
  std::vector<double> e2e;
  std::vector<double> unaccounted;
  for (const auto& [id, turnaround] : traced.completed) {
    const PathBreakdown path =
        critical_path(client.collect_trace(id), turnaround);
    if (!path.complete) continue;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      intervals[i].push_back(path.interval[i] * 1e3);
    }
    e2e.push_back(turnaround * 1e3);
    unaccounted.push_back(path.unaccounted * 1e3);
  }
  out.queries = e2e.size();
  if (out.queries == 0) {
    result.fail("traced pass: no query recorded a complete critical path");
    return out;
  }
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    out.interval_ms[i] = median(std::move(intervals[i]));
  }
  out.e2e_ms = median(e2e);
  out.unaccounted_ms = median(std::move(unaccounted));
  out.traced_p50_ms = median(traced.latency_ms);
  if (std::abs(out.unaccounted_ms) > 0.05 * out.e2e_ms) {
    result.fail("traced pass: unaccounted time exceeds 5% of turnaround");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gate.

// Ranked hits of the verification set, encoded.
struct Verification {
  std::vector<std::vector<std::uint8_t>> encoded;
  std::size_t found = 0;
  std::uint64_t failed = 0;

  std::uint64_t digest() const {
    std::uint64_t hash = fnv1a({});
    for (const auto& bytes : encoded) hash = fnv1a(bytes, hash);
    return hash;
  }
};

Verification verify(core::Client& client, const std::vector<Query>& queries,
                    const core::QueryParams& params) {
  Verification out;
  for (const auto& query : queries) {
    const auto outcome = client.query(query.sequence, params);
    if (!outcome.completed) ++out.failed;
    if (found_origin(outcome, query.origin)) ++out.found;
    out.encoded.push_back(encoded_hits(outcome));
  }
  return out;
}

// For the default seed, the oracle's hits must match these digests.
// Update one only with a change that is meant to alter results.
void check_digest(const std::string& workload, std::uint64_t seed,
                  const Verification& oracle, RunResult& result) {
  static const std::map<std::string, std::uint64_t> kPinned = {
      {"search-fresh", 0xc8e9f523acfa210aULL},
      {"extend-cached", 0x8715ca273ddf8131ULL},
      {"socket-cached", 0x56de7745cda79a90ULL},
      {"dna-ingest-sim", 0x2ff03b846163dda7ULL},
  };
  if (seed != kDefaultSeed) return;
  const std::uint64_t pinned = kPinned.at(workload);
  if (oracle.digest() != pinned) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "verification digest %016llx != pinned %016llx",
                  static_cast<unsigned long long>(oracle.digest()),
                  static_cast<unsigned long long>(pinned));
    result.fail(buf);
  }
}

// Verification queries whose planted origin must be among the hits. The
// search is approximate (LSH routing, n-NN with ties), so a seed may miss
// one or two of sixteen; fewer than this means the system is broken.
// Exactness is the oracle comparison's and the pinned digest's job.
constexpr std::size_t kMinVerifyFound = 13;

void check_recall(const Verification& v, RunResult& result) {
  if (v.found < kMinVerifyFound) {
    result.fail("verification recall " + std::to_string(v.found) + "/" +
                std::to_string(v.encoded.size()) + " below " +
                std::to_string(kMinVerifyFound));
  }
}

// ---------------------------------------------------------------------------
// Metric assembly.

struct LayerInputs {
  Counters delta;  // measured window
  double queries = 0.0;
  RoutingStats routing;
  std::optional<SocketLayer> socket;
  IngestStats ingest;
  PathStats path;
  const LoadStats* load = nullptr;
  double verify_recall = 0.0;
  double db_residues = 0.0;
  double arena_bytes = 0.0;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double hist_mean(const Counters& c, const std::string& name) {
  return ratio(get(c, name + ".sum"), get(c, name + ".count"));
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const Counters& d = in.delta;
  const double n = in.queries;
  const double misses = get(d, "node.nn_cache_misses");
  const double hits = get(d, "node.nn_cache_hits");
  const double search_s = get(d, "node.search_seconds.sum");
  const double compute_s = search_s + get(d, "group.extend_seconds.sum") +
                           get(d, "coord.extend_seconds.sum");
  const double coalesced = get(d, "node.fetch_ranges_coalesced");
  const double served = get(d, "node.fetches_served");
  std::vector<Metric> m = {
      {"search.subquery_us", hist_mean(d, "node.subquery_seconds") * 1e6,
       "us"},
      {"search.busy_ms_per_query", ratio(search_s * 1e3, n), "ms"},
      {"search.subqueries_per_query", ratio(get(d, "node.nn_searches"), n),
       "count"},
      {"search.fresh_per_query", ratio(misses, n), "count"},
      {"search.scans_per_fresh", ratio(get(d, "kernel.batched_scans"), misses),
       "count"},
      {"search.seeds_per_query", ratio(get(d, "node.seeds_emitted"), n),
       "count"},
      {"search.share_of_compute", ratio(search_s, compute_s), "ratio"},
      {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"routing.hash_us_per_query", in.routing.hash_us_per_query, "us"},
      {"routing.groups_per_query", in.routing.groups_per_query, "count"},
      {"group.fanin_wait_ms", hist_mean(d, "group.fanin_wait_seconds") * 1e3,
       "ms"},
      {"group.extend_us", hist_mean(d, "group.extend_seconds") * 1e6, "us"},
      {"group.anchors_per_query", ratio(get(d, "node.anchors_extended"), n),
       "count"},
      {"fetch.served_per_query", ratio(served, n), "count"},
      {"fetch.coalesced_ratio", ratio(coalesced, coalesced + served),
       "ratio"},
      {"extend.gapped_per_query", ratio(get(d, "node.gapped_extensions"), n),
       "count"},
      {"extend.pruned_ratio",
       ratio(get(d, "node.anchors_pruned"), get(d, "node.anchors_extended")),
       "ratio"},
      {"extend.coord_us", hist_mean(d, "coord.extend_seconds") * 1e6, "us"},
      {"coord.fanin_wait_ms", hist_mean(d, "coord.fanin_wait_seconds") * 1e3,
       "ms"},
      {"wire.messages_per_query", ratio(get(d, "net.messages"), n), "count"},
      {"wire.bytes_per_query", ratio(get(d, "net.bytes"), n), "B"},
  };
  const SocketLayer socket = in.socket.value_or(SocketLayer{});
  m.push_back({"codec.decode_ns_per_kb.group_result",
               socket.group_result.decode_ns_per_kb, "ns/KB"});
  m.push_back({"codec.decode_ns_per_kb.fetch_range_result",
               socket.fetch_range_result.decode_ns_per_kb, "ns/KB"});
  m.push_back({"codec.encode_ns_per_kb.group_result",
               socket.group_result.encode_ns_per_kb, "ns/KB"});
  m.push_back({"codec.encode_ns_per_kb.fetch_range_result",
               socket.fetch_range_result.encode_ns_per_kb, "ns/KB"});
  m.push_back({"net.handler_us", hist_mean(d, "node.handler_seconds") * 1e6,
               "us"});
  for (std::size_t t = 0; t < kDataflowTypes.size(); ++t) {
    m.push_back({std::string("net.handler_us.") +
                     dataflow_type_name(kDataflowTypes[t]),
                 socket.handler_p50_us[t], "us"});
  }
  m.push_back({"net.dropped", get(d, "net.dropped_messages"), "count"});
  m.push_back({"net.frame_errors", get(d, "net.frame_errors"), "count"});
  m.push_back({"net.reconnects", get(d, "net.reconnects"), "count"});
  m.push_back({"net.decode_errors", get(d, "net.decode_errors"), "count"});
  m.push_back({"ingest.batch_ms", in.ingest.batch_ms, "ms"});
  m.push_back({"ingest.residues_per_s", in.ingest.residues_per_s, "1/s"});
  m.push_back({"ingest.blocks_per_kres", in.ingest.blocks_per_kres, "count"});
  m.push_back({"ingest.first_query_ms", in.ingest.first_query_ms, "ms"});
  m.push_back({"ingest.steady_query_ms", in.ingest.steady_query_ms, "ms"});
  m.push_back({"arena.bytes_per_residue", ratio(in.arena_bytes, in.db_residues),
               "B"});
  const LoadStats& load = *in.load;
  m.push_back({"client.latency_p90_ms",
               percentile(load.latency_ms, 90, 0).value_or(0.0), "ms"});
  m.push_back({"client.turnaround_p50_ms",
               percentile(load.turnaround_ms, 50, 0).value_or(0.0), "ms"});
  m.push_back({"client.turnaround_p90_ms",
               percentile(load.turnaround_ms, 90, 0).value_or(0.0), "ms"});
  m.push_back({"bench.samples", static_cast<double>(load.latency_ms.size()),
               "count"});
  m.push_back({"bench.gen_late_p99_ms",
               percentile(load.late_ms, 99, 0).value_or(0.0), "ms"});
  m.push_back({"bench.recall",
               ratio(static_cast<double>(load.found),
                     static_cast<double>(load.latency_ms.size())),
               "ratio"});
  m.push_back({"bench.verify_recall", in.verify_recall, "ratio"});
  for (std::size_t i = 0; i < kPathIntervals.size(); ++i) {
    m.push_back({std::string("path.") + kPathIntervals[i] + "_ms",
                 in.path.interval_ms[i], "ms"});
  }
  m.push_back({"path.e2e_ms", in.path.e2e_ms, "ms"});
  m.push_back({"path.unaccounted_ms", in.path.unaccounted_ms, "ms"});
  const double untraced_p50 = median(load.latency_ms);
  m.push_back({"trace.overhead_frac",
               untraced_p50 > 0.0 ? in.path.traced_p50_ms / untraced_p50 - 1.0
                                  : 0.0,
               "ratio"});
  m.push_back({"trace.queries", static_cast<double>(in.path.queries),
               "count"});
  return m;
}

// qps and p50 wall latency. The p90 is reported per layer, as
// client.latency_p90_ms, not gated: it moved half again as much as p50
// between runs of the same code, because a host stall of a second or two
// pushes the queries it catches into the tail. Samples that cannot
// support a p90 fail the run instead of reporting a tail set by a few
// outliers (the smoke run is too short to support one and only checks
// correctness).
void add_latency_metrics(const LoadStats& load, double qps,
                         const Options& options, RunResult& result) {
  const std::size_t beyond = options.smoke ? 0 : 10;
  const auto p50 = percentile(load.latency_ms, 50, beyond);
  if (!p50 || !percentile(load.latency_ms, 90, beyond)) {
    result.fail("too few latency samples (" +
                std::to_string(load.latency_ms.size()) +
                ") for a p90 with 10 samples beyond it");
  }
  result.end_to_end.push_back({"qps", qps, "1/s"});
  result.end_to_end.push_back({"p50_ms", p50.value_or(0.0), "ms"});
}

void check_transport_health(const Counters& c, RunResult& result) {
  for (const char* name : {"net.dropped_messages", "net.frame_errors",
                           "net.reconnects", "net.decode_errors",
                           "net.handler_errors"}) {
    if (get(c, name) != 0.0) {
      result.fail(std::string(name) + " = " + std::to_string(get(c, name)));
    }
  }
}

// ---------------------------------------------------------------------------
// Live workloads (threaded and socket transports).

struct LiveSpec {
  std::string name;
  seq::SequenceStore db{seq::Alphabet::kProtein};
  std::vector<Query> pool;
  std::vector<Query> verify;
  core::QueryParams params;
  ClusterSpec cluster;
  // Open loop at `rate`; 0 = closed loop with one client.
  double rate = 0.0;
  double warmup_s = 3.0;
  // Warm-up first walks the whole pool once (recurring-probe workloads).
  bool warm_pool = false;
};

// Queries in the traced pass (capped at --seconds of load).
constexpr std::size_t kTracedQueries = 200;
// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;
// Latency samples a measured window must hold: a p90 then has at least
// ten samples beyond it.
constexpr std::size_t kMinSamples = 120;

// Open loop runs its schedule for `seconds` (the rate fixes the sample
// count); closed loop runs past `seconds` until it has `min_queries`, so a
// slower build still yields a supportable p90.
LoadStats drive(const LiveSpec& spec, core::Client& client, Pool& pool,
                double seconds, std::size_t min_queries,
                std::size_t max_queries, std::uint64_t seed) {
  if (spec.rate > 0.0) {
    return open_loop(client, pool, spec.params, spec.rate, seconds,
                     max_queries, seed);
  }
  return closed_loop(client, pool, spec.params, seconds, min_queries,
                     max_queries);
}

void warm_up(const LiveSpec& spec, core::Client& client, Pool& pool,
             double seconds, std::uint64_t seed) {
  if (spec.warm_pool) {
    for (const auto& query : spec.pool) {
      client.query(query.sequence, spec.params);
    }
  }
  drive(spec, client, pool, seconds, 0, SIZE_MAX, seed);
}

RunResult run_live(const LiveSpec& spec, const Options& options) {
  RunResult result;
  result.workload = spec.name;
  const double warmup = options.smoke ? 0.5 : spec.warmup_s;
  Pool pool;
  pool.queries = &spec.pool;

  std::vector<double> setups;
  LoadStats measured;
  LayerInputs layer;
  Verification bench_verify;
  {
    Deployment deployment(spec.cluster, spec.db, false, options.scratch_dir);
    setups.push_back(deployment.setup_s());
    core::Client& client = deployment.client();
    warm_up(spec, client, pool, warmup, options.seed ^ 0x1);

    const Counters before = deployment.counters();
    if (deployment.cluster()) deployment.cluster()->set_recording(true);
    measured = drive(spec, client, pool, options.seconds, kMinSamples,
                     SIZE_MAX, options.seed ^ 0x2);
    if (deployment.cluster()) deployment.cluster()->set_recording(false);
    const Counters after = deployment.counters();

    layer.delta = after - before;
    layer.queries = static_cast<double>(measured.latency_ms.size());
    layer.db_residues = static_cast<double>(spec.db.total_residues());
    layer.arena_bytes = get(after, "arena.resident_bytes");
    if (options.trace) {
      const std::size_t n = std::min<std::size_t>(spec.pool.size(), 256);
      const std::vector<Query> sample(spec.pool.begin(),
                                      spec.pool.begin() +
                                          static_cast<std::ptrdiff_t>(n));
      layer.routing = time_routing(client, sample, spec.params);
      if (deployment.cluster()) {
        layer.socket = socket_layer(*deployment.cluster(), result);
      }
    }
    bench_verify = verify(client, spec.verify, spec.params);
    check_transport_health(deployment.counters() - before, result);
  }
  // The remaining set-ups run once the host is busy: the first one in a
  // process can catch idle CPUs waking up, and the median discards it.
  for (int i = 1; i < kSetups; ++i) {
    setups.push_back(
        Deployment(spec.cluster, spec.db, false, options.scratch_dir)
            .setup_s());
  }
  result.attempted = measured.attempted + spec.verify.size();
  result.failed = measured.failed + bench_verify.failed;

  const double qps =
      static_cast<double>(measured.latency_ms.size()) / measured.wall_s;
  add_latency_metrics(measured, qps, options, result);
  result.end_to_end.push_back({"setup_s", median(setups), "s"});

  if (options.trace) {
    Deployment traced(spec.cluster, spec.db, true, options.scratch_dir);
    warm_up(spec, traced.client(), pool, warmup, options.seed ^ 0x3);
    const std::size_t count = options.smoke ? 10 : kTracedQueries;
    const LoadStats load = drive(spec, traced.client(), pool,
                                 options.seconds, 0, count,
                                 options.seed ^ 0x4);
    result.attempted += load.attempted;
    result.failed += load.failed;
    layer.path = traced_paths(traced.client(), load, result);
  }

  // The oracle: the deterministic simulator on the same index and queries.
  {
    ClusterSpec sim = spec.cluster;
    sim.mode = core::TransportMode::kSim;
    Deployment oracle(sim, spec.db, false, options.scratch_dir);
    const Verification expected = verify(oracle.client(), spec.verify,
                                         spec.params);
    if (expected.encoded != bench_verify.encoded) {
      result.fail("verification hits differ from the simulator oracle");
    }
    check_recall(expected, result);
    check_digest(spec.name, options.seed, expected, result);
    layer.verify_recall = ratio(static_cast<double>(expected.found),
                                static_cast<double>(spec.verify.size()));
  }
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) + " queries stalled");
  }
  result.end_to_end.push_back({"rss_mb", peak_rss_mb(), "MiB"});
  layer.load = &measured;
  result.per_layer = layer_metrics(layer);
  return result;
}

RunResult search_fresh(const Options& options) {
  LiveSpec spec;
  spec.name = "search-fresh";
  spec.db = make_database(scaled_shape(100'000, seq::Alphabet::kProtein),
                          options.seed);
  spec.pool = sample_queries(spec.db, {4096, 60, 800, true, 0},
                             options.seed * 31 + 1);
  spec.verify = sample_queries(spec.db, {16, 100, 300, false, 0},
                               options.seed * 31 + 2);
  spec.params = protein_params();
  spec.warmup_s = 2.0;
  return run_live(spec, options);
}

RunResult extend_cached(const Options& options) {
  LiveSpec spec;
  spec.name = "extend-cached";
  spec.db = make_database(
      {seq::Alphabet::kProtein, 12, 8, 10, 600, 1200}, options.seed);
  spec.pool = sample_queries(spec.db, {32, 300, 900, false, 0},
                             options.seed * 31 + 3);
  spec.verify.assign(spec.pool.begin(), spec.pool.begin() + 16);
  spec.params = protein_params();
  spec.warm_pool = true;
  return run_live(spec, options);
}

RunResult socket_cached(const Options& options) {
  LiveSpec spec;
  spec.name = "socket-cached";
  spec.db = make_database(scaled_shape(100'000, seq::Alphabet::kProtein),
                          options.seed);
  spec.pool = sample_queries(spec.db, {64, 100, 200, false, 0},
                             options.seed * 31 + 4);
  spec.verify.assign(spec.pool.begin(), spec.pool.begin() + 16);
  spec.params = protein_params();
  spec.cluster.mode = core::TransportMode::kSocket;
  spec.rate = 800.0;
  spec.warm_pool = true;
  return run_live(spec, options);
}

// ---------------------------------------------------------------------------
// dna-ingest-sim: fixed-work cycles on the simulator. Each cycle indexes
// the same base database on a fresh 50-node client, then alternates ingest
// rounds with fresh queries; cycles repeat until the measured time passes.
// The work per cycle is fixed so faster code cannot grow a bigger database.

constexpr std::size_t kDnaBaseResidues = 200'000;
constexpr std::size_t kDnaRounds = 12;
constexpr std::size_t kDnaRoundSequences = 5;  // 300–1500 residues each
constexpr std::size_t kDnaQueriesPerRound = 6;  // 100–200 residues each
// Cycles draw their queries from this many distinct sets, so the latency
// percentiles of a run rest on more than one cycle's 72 queries.
constexpr std::size_t kDnaQuerySets = 8;

struct DnaInputs {
  seq::SequenceStore base{seq::Alphabet::kDna};
  std::vector<seq::SequenceStore> rounds;
  // The whole database after every round (query origins index into it).
  seq::SequenceStore full{seq::Alphabet::kDna};
  // queries[set][round]: the queries after each ingest round.
  std::vector<std::vector<std::vector<Query>>> queries;
  std::vector<Query> verify;
};

DnaInputs dna_inputs(std::uint64_t seed) {
  DnaInputs in;
  in.base = make_database(scaled_shape(kDnaBaseResidues, seq::Alphabet::kDna),
                          seed);
  for (const auto& s : in.base) in.full.add(s);
  Rng rng(seed * 31 + 5);
  for (std::size_t r = 0; r < kDnaRounds; ++r) {
    seq::SequenceStore batch(seq::Alphabet::kDna);
    for (const std::size_t length :
         spread(kDnaRoundSequences, 300, 1500, rng)) {
      auto s = workload::random_sequence(
          seq::Alphabet::kDna, length,
          "ingest" + std::to_string(r) + "/" + std::to_string(batch.size()),
          rng);
      in.full.add(s);
      batch.add(std::move(s));
    }
    in.rounds.push_back(std::move(batch));
  }
  // Queries of round r may come from anything ingested so far.
  in.queries.resize(kDnaQuerySets);
  seq::SequenceStore so_far(seq::Alphabet::kDna);
  for (const auto& s : in.base) so_far.add(s);
  for (std::size_t r = 0; r < kDnaRounds; ++r) {
    for (const auto& s : in.rounds[r]) so_far.add(s);
    for (std::size_t set = 0; set < kDnaQuerySets; ++set) {
      in.queries[set].push_back(sample_queries(
          so_far, {kDnaQueriesPerRound, 100, 200, false, 0},
          seed * 31 + 100 + r * kDnaQuerySets + set));
    }
  }
  // Half the verification set comes from ingested sequences, so recall
  // also covers data that arrived through add_sequences.
  in.verify = sample_queries(in.full, {8, 300, 600, false, 0}, seed * 31 + 6);
  auto added = sample_queries(
      in.full,
      {8, 300, 600, false, static_cast<seq::SequenceId>(in.base.size())},
      seed * 31 + 7);
  in.verify.insert(in.verify.end(), added.begin(), added.end());
  return in;
}

struct DnaCycle {
  double setup_s = 0.0;
  double measured_s = 0.0;
  LoadStats load;
  std::vector<double> batch_s;
  std::vector<double> first_query_ms;
  std::vector<double> steady_query_ms;
  Counters delta;
  double arena_bytes = 0.0;
};

// Runs one cycle with query set `set`; `finish` sees the fully ingested
// client and the cycle's query outcomes before the client goes away.
DnaCycle dna_cycle(
    const DnaInputs& in, std::size_t set, bool tracing,
    const std::function<void(core::Client&, const LoadStats&)>& finish) {
  ClusterSpec spec{10, 5, core::TransportMode::kSim};
  DnaCycle cycle;
  Deployment deployment(spec, in.base, tracing, ".");
  cycle.setup_s = deployment.setup_s();
  core::Client& client = deployment.client();
  const auto params = dna_params();
  const Counters before = deployment.counters();
  const Stopwatch watch;
  for (std::size_t r = 0; r < kDnaRounds; ++r) {
    const Stopwatch batch;
    client.add_sequences(in.rounds[r]);
    cycle.batch_s.push_back(batch.seconds());
    const auto& round = in.queries[set % kDnaQuerySets][r];
    for (std::size_t q = 0; q < round.size(); ++q) {
      const Query& query = round[q];
      const double t0 = now_s();
      const auto ticket = client.submit(query.sequence, params);
      const auto outcome = client.wait(ticket);
      const double latency = now_s() - t0;
      cycle.load.record(query, ticket, outcome, latency);
      (q == 0 ? cycle.first_query_ms : cycle.steady_query_ms)
          .push_back(latency * 1e3);
    }
  }
  cycle.measured_s = watch.seconds();
  const Counters after = deployment.counters();
  cycle.delta = after - before;
  cycle.arena_bytes = get(after, "arena.resident_bytes");
  finish(client, cycle.load);
  return cycle;
}

RunResult dna_ingest_sim(const Options& options) {
  RunResult result;
  result.workload = "dna-ingest-sim";
  const DnaInputs in = dna_inputs(options.seed);
  const auto params = dna_params();

  std::vector<double> setups;
  LoadStats measured;
  std::vector<double> batch_s, first_ms, steady_ms;
  Counters delta;
  double arena_bytes = 0.0;
  double measured_s = 0.0;
  std::optional<Verification> first_verify;
  std::vector<Query> all_queries;
  for (const auto& round : in.queries[0]) {
    all_queries.insert(all_queries.end(), round.begin(), round.end());
  }
  LayerInputs layer;
  while (setups.empty() ||
         (!options.smoke && (measured_s < options.seconds ||
                             measured.latency_ms.size() < kMinSamples))) {
    DnaCycle cycle = dna_cycle(in, setups.size(), false,
                               [&](core::Client& client, const LoadStats&) {
      if (first_verify) return;
      if (options.trace) {
        layer.routing = time_routing(client, all_queries, params);
      }
      first_verify = verify(client, in.verify, params);
    });
    setups.push_back(cycle.setup_s);
    measured_s += cycle.measured_s;
    measured.absorb(std::move(cycle.load));
    batch_s.insert(batch_s.end(), cycle.batch_s.begin(), cycle.batch_s.end());
    first_ms.insert(first_ms.end(), cycle.first_query_ms.begin(),
                    cycle.first_query_ms.end());
    steady_ms.insert(steady_ms.end(), cycle.steady_query_ms.begin(),
                     cycle.steady_query_ms.end());
    for (const auto& [name, value] : cycle.delta) delta[name] += value;
    arena_bytes = cycle.arena_bytes;
    check_transport_health(cycle.delta, result);
  }
  measured.wall_s = measured_s;
  result.attempted = measured.attempted + in.verify.size();
  result.failed = measured.failed + first_verify->failed;
  check_recall(*first_verify, result);
  check_digest(result.workload, options.seed, *first_verify, result);

  const double qps =
      static_cast<double>(measured.latency_ms.size()) / measured_s;
  add_latency_metrics(measured, qps, options, result);
  result.end_to_end.push_back({"setup_s", median(setups), "s"});

  layer.delta = delta;
  layer.queries = static_cast<double>(measured.latency_ms.size());
  layer.load = &measured;
  layer.verify_recall = ratio(static_cast<double>(first_verify->found),
                              static_cast<double>(in.verify.size()));
  layer.db_residues = static_cast<double>(in.full.total_residues());
  layer.arena_bytes = arena_bytes;
  double batch_total = 0.0;
  for (double s : batch_s) batch_total += s;
  const double added_residues =
      static_cast<double>(in.full.total_residues() - in.base.total_residues());
  layer.ingest.batch_ms = median(batch_s) * 1e3;
  layer.ingest.residues_per_s =
      ratio(added_residues * static_cast<double>(setups.size()), batch_total);
  layer.ingest.blocks_per_kres =
      ratio(get(delta, "node.blocks_inserted"),
            added_residues * static_cast<double>(setups.size()) / 1e3);
  layer.ingest.first_query_ms = median(first_ms);
  layer.ingest.steady_query_ms = median(steady_ms);

  if (options.trace) {
    // One more cycle, traced: the same ingest rounds and queries.
    const DnaCycle traced = dna_cycle(
        in, 0, true, [&](core::Client& client, const LoadStats& load) {
          layer.path = traced_paths(client, load, result);
        });
    result.attempted += traced.load.attempted;
    result.failed += traced.load.failed;
  }
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) + " queries stalled");
  }
  result.end_to_end.push_back({"rss_mb", peak_rss_mb(), "MiB"});
  result.per_layer = layer_metrics(layer);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "search-fresh", "extend-cached", "socket-cached", "dna-ingest-sim"};
  return kNames;
}

RunResult run_workload(const Options& options) {
  if (options.workload == "search-fresh") return search_fresh(options);
  if (options.workload == "extend-cached") return extend_cached(options);
  if (options.workload == "socket-cached") return socket_cached(options);
  if (options.workload == "dna-ingest-sim") return dna_ingest_sim(options);
  throw InvalidArgument("unknown workload '" + options.workload + "'");
}

}  // namespace mendel::bench
