#ifndef QEC_PERFBENCH_PERFBENCH_H_
#define QEC_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/query_expander.h"
#include "index/inverted_index.h"
#include "server/server.h"

namespace perfbench {

// ---------------------------------------------------------------- workloads

/// One traffic mix, driven in a closed loop: each connection keeps one
/// request in flight. See README.md for why each one exists.
struct WorkloadSpec {
  std::string name;
  /// Client connections, which is also the number of requests in flight.
  size_t connections = 1;
  /// `topk=` option (0 = every result of the query).
  size_t top_k = 30;
  /// `threads=` option; 0 leaves it out (server default of 1).
  size_t request_threads = 0;
  /// Untimed traffic before the measured window, so the sweep pool and
  /// the CPU caches reach steady state.
  double warmup_seconds = 1.0;
  /// Queries are kept only when their full result count lies in
  /// [min_results, max_results] (checked against the index at set-up).
  size_t min_results = 1;
  size_t max_results = SIZE_MAX;
  /// Also offer two-term queries (pairs of terms seen together in a doc).
  bool pairs = false;
  /// Served responses recomputed in-process per run (output check).
  size_t recompute_samples = 0;
  /// Traced replay: at most this many requests.
  size_t replay_cap = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One distinct query of a workload's population.
struct Query {
  std::string text;
  /// Protocol spelling: iskr | pebc | fmeasure.
  std::string algo;
  /// What `results_used` must read in the response.
  size_t expected_results_used = 0;
  /// The analyzed query terms, rendered (each expanded query starts with
  /// them).
  std::vector<std::string> terms;
};

/// Builds the seeded request stream of `spec` against `index` (untimed):
/// every kept text with every algorithm, shuffled. The client walks it
/// once, so no request repeats and every request misses the cache.
std::vector<Query> MakeStream(const WorkloadSpec& spec,
                              const qec::index::InvertedIndex& index,
                              uint64_t seed);

/// The protocol line for one request (options first: anything after the
/// first query word would be taken as a query word).
std::string RequestLine(const WorkloadSpec& spec, const Query& query);

/// The expander options the server runs `line` with (its base options plus
/// the request's overlays, as QecServer::EffectiveOptions does).
qec::core::QueryExpanderOptions EffectiveOptions(
    const qec::server::ServerOptions& server_options, std::string_view line);

// -------------------------------------------------------------------- client

/// One request as the client saw it. Times are seconds since the run began.
struct Sample {
  size_t request = 0;  // index into the stream
  double sent = 0.0;
  double received = -1.0;  // < 0: no response
  bool in_window = false;
  std::string response;
};

struct DriveResult {
  std::vector<Sample> samples;
  double window_start = 0.0;
  double window_end = 0.0;
  /// Stats of the server when the window opened and after the last
  /// response.
  qec::server::ServerStats stats_before;
  qec::server::ServerStats stats_after;
  /// True when the stream ran out and the client wrapped round it
  /// (queries repeat, so some requests hit the cache).
  bool wrapped = false;
  std::string error;
};

/// Drives `stream` at the server on 127.0.0.1:`port` from one thread:
/// warm-up, then `seconds` of measured traffic, then waits for every
/// outstanding response.
DriveResult Drive(uint16_t port, const WorkloadSpec& spec,
                  const std::vector<Query>& stream, double seconds,
                  const qec::server::QecServer& server);

// ------------------------------------------------------------ traced replay

/// Per-request layer timings of one in-process replay.
struct LayerTrace {
  std::string algo;
  double analyze_us = 0, search_ms = 0, universe_ms = 0, vectorize_ms = 0,
         kmeans_ms = 0, silhouette_ms = 0, candidates_ms = 0,
         expand_self_ms = 0, serialize_us = 0;
  double postings_scanned = 0, results = 0, k_tried = 0, k_chosen = 0,
         kmeans_iterations = 0, silhouette_pairs = 0, candidates = 0,
         value_recomputations = 0, iskr_steps = 0, pebc_samples = 0;
  /// Sum of the layer times that make up the server's expansion stage.
  double layer_sum_ms = 0;
  /// The same request through QueryExpander::ExpandText, untraced.
  double untraced_ms = 0;
  /// The served request's `expansion` stage.
  double served_expansion_ms = 0;
};

/// A served request to replay: its protocol line, the response it got and
/// that response's `expansion` stage.
struct ReplayRequest {
  std::string line;
  std::string response;
  double served_expansion_ms = 0;
};

struct ReplayResult {
  std::vector<LayerTrace> traces;
  /// Requests whose replay disagreed with the served response, with
  /// ExpandText, or whose external auto-k pick differed from KMeans.
  std::vector<std::string> mismatches;
};

/// Replays `requests` in-process, timing each layer's public calls, until
/// `budget_seconds` pass.
ReplayResult Replay(const qec::index::InvertedIndex& index,
                    const qec::server::ServerOptions& server_options,
                    const std::vector<ReplayRequest>& requests,
                    double budget_seconds);

/// The outcome-dependent tail of a response line (from `,"clusters":`),
/// the part RenderOutcomeTail produces; empty when absent.
std::string_view OutcomeTail(std::string_view response);

// --------------------------------------------------------------------- stats

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // QEC_PERFBENCH_PERFBENCH_H_
