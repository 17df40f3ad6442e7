// Traced replay: re-runs served requests in-process and times the calls
// into each layer's public functions from here, so nothing under src/ is
// instrumented for the benchmark. The clustering step reproduces k-means
// auto-k from outside (one KMeans run per k, then MeanSilhouette) to split
// k-means work from silhouette work.

#include <algorithm>
#include <chrono>

#include "cluster/kmeans.h"
#include "cluster/sparse_vector.h"
#include "core/candidates.h"
#include "core/result_universe.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Ties and the all-neutral case prefer the smaller k, as in KMeans.
constexpr double kSilhouetteTieEpsilon = 1e-12;

struct TracedRun {
  LayerTrace trace;
  qec::core::ExpansionOutcome outcome;
  bool auto_k_agrees = true;
};

TracedRun RunTraced(const qec::index::InvertedIndex& index,
                    const qec::core::QueryExpanderOptions& options,
                    const std::string& query) {
  auto& registry = qec::obs::MetricsRegistry::Global();
  qec::obs::Counter* postings = registry.GetCounter("index/postings_scanned");
  qec::obs::Counter* iterations =
      registry.GetCounter("cluster/kmeans_iterations");
  const qec::doc::Corpus& corpus = index.corpus();
  TracedRun run;
  LayerTrace& tr = run.trace;

  Clock::time_point t = Clock::now();
  const std::vector<qec::TermId> terms =
      corpus.analyzer().AnalyzeReadOnly(query);
  tr.analyze_us = MsSince(t) * 1e3;

  const uint64_t postings_before = postings->value();
  t = Clock::now();
  std::vector<qec::index::RankedResult> results =
      index.Search(terms, options.top_k_results);
  tr.search_ms = MsSince(t);
  tr.postings_scanned = static_cast<double>(postings->value() - postings_before);

  t = Clock::now();
  if (!options.use_ranking_weights) {
    for (auto& r : results) r.score = 1.0;
  }
  qec::core::ResultUniverse universe(corpus, results);
  if (options.memoize_set_algebra) universe.EnableSetAlgebraCache();
  tr.universe_ms = MsSince(t);
  tr.results = static_cast<double>(universe.size());

  t = Clock::now();
  std::vector<qec::cluster::SparseVector> vectors;
  vectors.reserve(universe.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    vectors.push_back(
        qec::cluster::SparseVector::FromDocument(corpus.Get(universe.doc_at(i))));
  }
  tr.vectorize_ms = MsSince(t);

  // Auto-k from outside: KMeans with auto_k=false for every k, then the
  // silhouette of each multi-cluster result.
  qec::cluster::KMeansOptions fixed = options.kmeans;
  fixed.k = options.max_clusters;
  const size_t n = vectors.size();
  const size_t k_max = std::min(fixed.k == 0 ? size_t{1} : fixed.k, n);
  const uint64_t iterations_before = iterations->value();
  auto cluster_with = [&](size_t k) {
    qec::cluster::KMeansOptions o = fixed;
    o.k = k;
    o.auto_k = false;
    const Clock::time_point start = Clock::now();
    qec::cluster::Clustering c = qec::cluster::KMeans(o).Cluster(vectors);
    tr.kmeans_ms += MsSince(start);
    tr.k_tried += 1;
    return c;
  };
  qec::cluster::Clustering best;
  if (!fixed.auto_k || n <= 2 || k_max <= 1) {
    best = cluster_with(k_max);
  } else {
    best = cluster_with(1);
    double best_score = 0.0;  // k = 1 is the neutral baseline
    for (size_t k = 2; k <= k_max; ++k) {
      qec::cluster::Clustering candidate = cluster_with(k);
      if (candidate.num_clusters < 2) continue;
      const Clock::time_point start = Clock::now();
      const double score = qec::cluster::MeanSilhouette(vectors, candidate);
      tr.silhouette_ms += MsSince(start);
      tr.silhouette_pairs += static_cast<double>(n) * static_cast<double>(n - 1);
      if (score > best_score + kSilhouetteTieEpsilon) {
        best_score = score;
        best = std::move(candidate);
      }
    }
  }
  tr.kmeans_iterations =
      static_cast<double>(iterations->value() - iterations_before);
  tr.k_chosen = static_cast<double>(best.num_clusters);
  // Untimed: the library's own auto-k must pick the same clustering.
  const qec::cluster::Clustering reference =
      qec::cluster::KMeans(fixed).Cluster(vectors);
  run.auto_k_agrees = reference.num_clusters == best.num_clusters &&
                      reference.assignment == best.assignment;

  t = Clock::now();
  const std::vector<qec::TermId> candidates =
      qec::core::SelectCandidates(universe, index, terms, options.candidates);
  tr.candidates_ms = MsSince(t);
  tr.candidates = static_cast<double>(candidates.size());

  t = Clock::now();
  run.outcome = qec::core::QueryExpander(index, options)
                    .ExpandClustered(terms, universe, best);
  // ExpandClustered selects candidates itself; its self time excludes them.
  tr.expand_self_ms = std::max(0.0, MsSince(t) - tr.candidates_ms);
  for (const auto& q : run.outcome.queries) {
    tr.value_recomputations += static_cast<double>(q.value_recomputations);
  }
  tr.iskr_steps = static_cast<double>(run.outcome.iskr_stats.steps);
  tr.pebc_samples = static_cast<double>(run.outcome.pebc_stats.samples_drawn);

  // A cache miss renders the whole line once (tail included).
  qec::server::ServeResponse response;
  response.outcome = run.outcome;
  t = Clock::now();
  const std::string line = qec::server::ResponseToJsonLine(response);
  tr.serialize_us = MsSince(t) * 1e3;

  tr.layer_sum_ms = tr.analyze_us / 1e3 + tr.search_ms + tr.universe_ms +
                    tr.vectorize_ms + tr.kmeans_ms + tr.silhouette_ms +
                    tr.candidates_ms + tr.expand_self_ms;
  return run;
}

}  // namespace

std::string_view OutcomeTail(std::string_view response) {
  const size_t at = response.find(",\"clusters\":");
  return at == std::string_view::npos ? std::string_view()
                                      : response.substr(at);
}

ReplayResult Replay(const qec::index::InvertedIndex& index,
                    const qec::server::ServerOptions& server_options,
                    const std::vector<ReplayRequest>& requests,
                    double budget_seconds) {
  ReplayResult result;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (MsSince(start) > budget_seconds * 1e3) break;
    const ReplayRequest& request = requests[i];
    const qec::core::QueryExpanderOptions options =
        EffectiveOptions(server_options, request.line);
    const std::string query =
        (*qec::server::ParseRequestLine(request.line)).query;

    // Alternate which path runs first so neither always finds warm caches.
    double untraced_ms = 0.0;
    std::string untraced_tail;
    auto untraced = [&] {
      const Clock::time_point t = Clock::now();
      auto outcome = qec::core::QueryExpander(index, options).ExpandText(query);
      untraced_ms = MsSince(t);
      if (outcome.ok()) untraced_tail = qec::server::RenderOutcomeTail(*outcome);
    };
    if (i % 2 == 0) untraced();
    TracedRun run = RunTraced(index, options, query);
    if (i % 2 != 0) untraced();

    run.trace.algo = std::string(qec::core::AlgorithmName(options.algorithm));
    run.trace.untraced_ms = untraced_ms;
    run.trace.served_expansion_ms = request.served_expansion_ms;
    const std::string traced_tail =
        qec::server::RenderOutcomeTail(run.outcome);
    if (traced_tail != OutcomeTail(request.response)) {
      result.mismatches.push_back("traced replay differs from served: " +
                                  request.line);
    }
    if (untraced_tail != traced_tail) {
      result.mismatches.push_back("traced replay differs from ExpandText: " +
                                  request.line);
    }
    if (!run.auto_k_agrees) {
      result.mismatches.push_back(
          "external auto-k picked another clustering than KMeans: " +
          request.line);
    }
    result.traces.push_back(std::move(run.trace));
  }
  return result;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
