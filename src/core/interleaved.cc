#include "core/interleaved.h"

#include <vector>

#include "common/logging.h"
#include "core/metrics.h"

namespace qec::core {

InterleavedExpander::InterleavedExpander(InterleavedOptions options)
    : options_(options) {}

namespace {

/// Expands every cluster of `clustering`, returning the expansions and the
/// Eq. 1 score.
std::vector<ExpansionResult> ExpandAll(
    const ResultUniverse& universe, const std::vector<TermId>& user_terms,
    const cluster::Clustering& clustering,
    const std::vector<TermId>& candidates,
    const std::vector<const DynamicBitset*>& candidate_docs,
    const IskrOptions& iskr_options, const SweepOptions& sweep_options,
    double* set_score) {
  std::vector<ExpansionResult> expansions;
  std::vector<QueryQuality> qualities;
  const auto members = clustering.Members();
  for (const auto& cluster_members : members) {
    DynamicBitset bits = universe.EmptySet();
    for (size_t i : cluster_members) bits.Set(i);
    ExpansionContext ctx = MakeContext(universe, user_terms, std::move(bits),
                                       candidates, candidate_docs);
    ExpansionResult r = IskrExpander(iskr_options, sweep_options).Expand(ctx);
    qualities.push_back(r.quality);
    expansions.push_back(std::move(r));
  }
  *set_score = SetScore(qualities);
  return expansions;
}

/// Reassigns each result to the expanded query retrieving it; returns true
/// if any assignment changed. Results retrieved by no query stay put.
bool Reassign(const ResultUniverse& universe,
              const std::vector<ExpansionResult>& expansions,
              cluster::Clustering& clustering) {
  std::vector<DynamicBitset> retrieved;
  retrieved.reserve(expansions.size());
  for (const auto& e : expansions) {
    retrieved.push_back(universe.Retrieve(e.query));
  }
  bool changed = false;
  for (size_t i = 0; i < universe.size(); ++i) {
    int best = -1;
    double best_f = -1.0;
    for (size_t j = 0; j < retrieved.size(); ++j) {
      if (!retrieved[j].Test(i)) continue;
      if (expansions[j].quality.f_measure > best_f) {
        best_f = expansions[j].quality.f_measure;
        best = static_cast<int>(j);
      }
    }
    if (best >= 0 && clustering.assignment[i] != best) {
      clustering.assignment[i] = best;
      changed = true;
    }
  }
  if (!changed) return false;
  // Compact labels (a cluster may have lost all members).
  std::vector<int> remap(clustering.num_clusters, -1);
  int next = 0;
  for (int& a : clustering.assignment) {
    if (remap[static_cast<size_t>(a)] == -1) {
      remap[static_cast<size_t>(a)] = next++;
    }
    a = remap[static_cast<size_t>(a)];
  }
  clustering.num_clusters = static_cast<size_t>(next);
  return true;
}

}  // namespace

InterleavedOutcome InterleavedExpander::Run(
    const ResultUniverse& universe, const std::vector<TermId>& user_terms,
    const cluster::Clustering& initial,
    const std::vector<TermId>& candidates) const {
  QEC_CHECK_EQ(initial.assignment.size(), universe.size());
  InterleavedOutcome outcome;
  outcome.clustering = initial;
  const std::vector<const DynamicBitset*> candidate_docs =
      ResolveCandidateDocs(universe, candidates);
  outcome.expansions =
      ExpandAll(universe, user_terms, outcome.clustering, candidates,
                candidate_docs, options_.iskr, options_.sweep,
                &outcome.set_score);

  for (size_t round = 0; round < options_.max_rounds; ++round) {
    cluster::Clustering refined = outcome.clustering;
    if (!Reassign(universe, outcome.expansions, refined)) break;
    double refined_score = 0.0;
    std::vector<ExpansionResult> refined_expansions =
        ExpandAll(universe, user_terms, refined, candidates, candidate_docs,
                  options_.iskr, options_.sweep, &refined_score);
    if (refined_score <= outcome.set_score + 1e-12) break;
    outcome.clustering = std::move(refined);
    outcome.expansions = std::move(refined_expansions);
    outcome.set_score = refined_score;
    outcome.rounds = round + 1;
  }
  return outcome;
}

}  // namespace qec::core
