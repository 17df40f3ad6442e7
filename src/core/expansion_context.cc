#include "core/expansion_context.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace qec::core {

std::vector<const DynamicBitset*> ResolveCandidateDocs(
    const ResultUniverse& universe, const std::vector<TermId>& candidates) {
  std::vector<const DynamicBitset*> docs;
  docs.reserve(candidates.size());
  for (TermId k : candidates) docs.push_back(&universe.DocsWithTerm(k));
  return docs;
}

ExpansionContext MakeContext(const ResultUniverse& universe,
                             std::vector<TermId> user_query,
                             DynamicBitset cluster,
                             std::vector<TermId> candidates,
                             std::vector<const DynamicBitset*> candidate_docs) {
  QEC_CHECK_EQ(cluster.size(), universe.size());
  QEC_CHECK_EQ(candidate_docs.size(), candidates.size());
  ExpansionContext ctx;
  ctx.universe = &universe;
  ctx.user_query = std::move(user_query);
  ctx.others = universe.FullSet();
  ctx.others.AndNot(cluster);
  ctx.cluster = std::move(cluster);
  ctx.candidates = std::move(candidates);
  ctx.candidate_docs = std::move(candidate_docs);
  return ctx;
}

ExpansionContext MakeContext(const ResultUniverse& universe,
                             std::vector<TermId> user_query,
                             DynamicBitset cluster,
                             std::vector<TermId> candidates) {
  std::vector<const DynamicBitset*> docs =
      ResolveCandidateDocs(universe, candidates);
  return MakeContext(universe, std::move(user_query), std::move(cluster),
                     std::move(candidates), std::move(docs));
}

std::vector<TermExplain> ExplainAddedTerms(
    const ExpansionContext& context, const std::vector<TermId>& final_query) {
  const ResultUniverse& universe = *context.universe;
  std::vector<TermExplain> out;
  ResultUniverse::ScratchBitset retrieved = universe.AcquireScratch();
  universe.RetrieveInto(context.user_query, &*retrieved);
  for (TermId k : final_query) {
    if (std::find(context.user_query.begin(), context.user_query.end(), k) !=
        context.user_query.end()) {
      continue;
    }
    const DynamicBitset& docs_k = universe.DocsWithTerm(k);
    TermExplain row;
    row.term = k;
    row.benefit =
        universe.WeightOfAndNotAnd(*retrieved, docs_k, context.others);
    row.cost = universe.WeightOfAndNotAnd(*retrieved, docs_k, context.cluster);
    if (row.cost > 0.0) {
      row.value = row.benefit / row.cost;
    } else {
      row.value =
          row.benefit > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    }
    out.push_back(row);
    // Apply the addition so the next term is scored against R(prefix + k).
    *retrieved &= docs_k;
  }
  return out;
}

QueryQuality EvaluateAgainstCluster(const ExpansionContext& context,
                                    const std::vector<TermId>& query) {
  DynamicBitset retrieved = context.universe->Retrieve(query);
  return EvaluateQuery(*context.universe, retrieved, context.cluster);
}

}  // namespace qec::core
