#include "core/candidates.h"

#include <algorithm>
#include <cmath>

namespace qec::core {

std::vector<TermId> SelectCandidates(const ResultUniverse& universe,
                                     const index::InvertedIndex& index,
                                     const std::vector<TermId>& user_query,
                                     const CandidateOptions& options) {
  struct Scored {
    TermId term;
    double score;
  };
  std::vector<Scored> scored;
  const std::vector<TermId>& terms = universe.DistinctTerms();
  scored.reserve(terms.size());
  const size_t n = universe.size();
  for (size_t local = 0; local < terms.size(); ++local) {
    const TermId t = terms[local];
    if (std::find(user_query.begin(), user_query.end(), t) !=
        user_query.end()) {
      continue;
    }
    if (options.drop_universal_terms &&
        universe.LocalDocumentFrequency(local) == n) {
      continue;
    }
    double tfidf =
        static_cast<double>(universe.LocalTermFrequency(local)) * index.Idf(t);
    scored.push_back(Scored{t, tfidf});
  }

  size_t keep = static_cast<size_t>(
      std::ceil(options.fraction * static_cast<double>(scored.size())));
  keep = std::min(keep, scored.size());
  if (options.max_candidates > 0) keep = std::min(keep, options.max_candidates);

  // Terms are distinct, so (score desc, term asc) is a strict total order:
  // the first `keep` after a selection are the same set as a full sort's,
  // and sorting them gives its prefix.
  auto before = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.term < b.term;
  };
  const auto kept = scored.begin() + keep;
  std::nth_element(scored.begin(), kept, scored.end(), before);
  std::sort(scored.begin(), kept, before);

  std::vector<TermId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].term);
  return out;
}

}  // namespace qec::core
