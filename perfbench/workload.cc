// Workload definitions and the seeded request-stream generator.

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "perfbench.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

constexpr const char* kAlgos[] = {"iskr", "pebc", "fmeasure"};

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The paper's interactive setting: top-30 results, k=5. Distinct
  // queries, so each request runs the whole pipeline.
  WorkloadSpec top30;
  top30.name = "top30-single";
  top30.connections = 1;
  top30.top_k = 30;
  top30.min_results = 30;
  top30.pairs = true;
  top30.recompute_samples = 40;
  top30.replay_cap = 1500;
  all.push_back(top30);

  // Background terms of clustered:200000:64 retrieve 254-312 results: Fig.
  // 7's 100-500 range. Topic terms (~1890 results, seconds per request)
  // fall outside the filter.
  WorkloadSpec saturated;
  saturated.name = "deep-saturated";
  saturated.connections = Nproc();  // one in flight per server worker
  saturated.top_k = 0;
  saturated.min_results = 100;
  saturated.max_results = 500;
  saturated.recompute_samples = 4;
  saturated.replay_cap = 40;
  all.push_back(saturated);

  WorkloadSpec single = saturated;
  single.name = "deep-single";
  single.connections = 1;
  single.request_threads = Nproc();
  single.recompute_samples = 3;
  all.push_back(single);
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> kAll = MakeWorkloads();
  for (const WorkloadSpec& spec : kAll) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<Query> MakeStream(const WorkloadSpec& spec,
                              const qec::index::InvertedIndex& index,
                              uint64_t seed) {
  const auto& analyzer = index.corpus().analyzer();
  const auto& vocab = analyzer.vocabulary();
  qec::Rng rng(seed);

  // Candidate query texts: every vocabulary term, plus (optionally) term
  // pairs sampled from documents so that they co-occur at least once.
  std::vector<std::string> texts;
  for (qec::TermId t = 0; t < vocab.size(); ++t) {
    texts.emplace_back(vocab.TermString(t));
  }
  if (spec.pairs) {
    std::set<std::pair<qec::TermId, qec::TermId>> seen;
    const size_t docs = index.corpus().NumDocs();
    for (size_t attempt = 0; attempt < 20000 && docs > 0; ++attempt) {
      const auto& set =
          index.corpus().Get(static_cast<qec::DocId>(rng.UniformInt(docs)))
              .term_set();
      if (set.size() < 2) continue;
      qec::TermId a = set[rng.UniformInt(set.size())];
      qec::TermId b = set[rng.UniformInt(set.size())];
      if (a == b) continue;
      if (b < a) std::swap(a, b);
      if (!seen.insert({a, b}).second) continue;
      texts.push_back(std::string(vocab.TermString(a)) + " " +
                      std::string(vocab.TermString(b)));
    }
  }

  // Keep the texts that analyze back to themselves and retrieve the
  // results the workload needs; offer each with every algorithm.
  std::vector<Query> stream;
  for (const std::string& text : texts) {
    const std::vector<qec::TermId> terms = analyzer.AnalyzeReadOnly(text);
    std::vector<std::string> rendered;
    for (qec::TermId t : terms) rendered.emplace_back(vocab.TermString(t));
    std::string joined;
    for (const std::string& r : rendered) {
      joined += (joined.empty() ? "" : " ") + r;
    }
    if (terms.empty() || joined != text) continue;
    const size_t n = index.Search(terms, 0).size();
    if (n < spec.min_results || n > spec.max_results) continue;
    Query q;
    q.text = text;
    q.expected_results_used = spec.top_k == 0 ? n : std::min(spec.top_k, n);
    q.terms = std::move(rendered);
    for (const char* algo : kAlgos) {
      stream.push_back(q);
      stream.back().algo = algo;
    }
  }
  QEC_CHECK(!stream.empty());
  rng.Shuffle(stream);
  return stream;
}

std::string RequestLine(const WorkloadSpec& spec, const Query& query) {
  std::string line = "EXPAND k=5 topk=" + std::to_string(spec.top_k) +
                     " algo=" + query.algo;
  if (spec.request_threads != 0) {
    line += " threads=" + std::to_string(spec.request_threads);
  }
  return line + " -- " + query.text;
}

qec::core::QueryExpanderOptions EffectiveOptions(
    const qec::server::ServerOptions& server_options, std::string_view line) {
  auto parsed = qec::server::ParseRequestLine(line);
  QEC_CHECK(parsed.ok());
  const qec::server::ServeRequest& r = *parsed;
  qec::core::QueryExpanderOptions o = server_options.expander;
  if (r.max_clusters.has_value()) o.max_clusters = *r.max_clusters;
  if (r.algorithm.has_value()) o.algorithm = *r.algorithm;
  if (r.top_k_results.has_value()) o.top_k_results = *r.top_k_results;
  if (r.minimize_queries.has_value()) o.minimize_queries = *r.minimize_queries;
  if (r.use_ranking_weights.has_value()) {
    o.use_ranking_weights = *r.use_ranking_weights;
  }
  if (r.num_threads.has_value()) o.num_threads = *r.num_threads;
  o.memoize_set_algebra = server_options.enable_set_algebra_cache;
  return o;
}

}  // namespace perfbench
