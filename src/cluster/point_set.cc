#include "cluster/point_set.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace qec::cluster {

namespace {

/// Entry indices ordered by term, ties kept in entry order: an LSD radix
/// sort, one byte a pass, skipping the high bytes no term uses. Cheaper
/// than a comparison sort plus a binary search per entry.
std::vector<uint32_t> OrderByTerm(const std::vector<TermId>& terms) {
  std::vector<uint32_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t> scratch(terms.size());
  const TermId max_term =
      terms.empty() ? 0 : *std::max_element(terms.begin(), terms.end());
  for (uint32_t shift = 0; shift < 32 && (max_term >> shift) != 0;
       shift += 8) {
    uint32_t start[257] = {};
    for (TermId t : terms) ++start[((t >> shift) & 0xFF) + 1];
    std::partial_sum(std::begin(start), std::end(start), std::begin(start));
    for (uint32_t e : order) scratch[start[(terms[e] >> shift) & 0xFF]++] = e;
    order.swap(scratch);
  }
  return order;
}

}  // namespace

PointSet::PointSet(const std::vector<SparseVector>& points) {
  std::vector<TermId> terms;
  std::vector<uint32_t> point_of;
  norms_.reserve(points.size());
  row_offsets_.reserve(points.size() + 1);
  row_offsets_.push_back(0);
  for (const SparseVector& p : points) {
    norms_.push_back(p.Norm());
    for (const auto& [t, w] : p.entries()) {
      terms.push_back(t);
      weights_.push_back(w);
      point_of.push_back(static_cast<uint32_t>(norms_.size() - 1));
    }
    QEC_CHECK_LE(terms.size(), size_t{UINT32_MAX});
    row_offsets_.push_back(static_cast<uint32_t>(terms.size()));
  }

  // Walking the entries in term order numbers the local ids monotonically
  // (each row stays sorted) and lays out every column in point order.
  ids_.resize(terms.size());
  column_offsets_.push_back(0);
  column_points_.reserve(terms.size());
  column_weights_.reserve(terms.size());
  const std::vector<uint32_t> order = OrderByTerm(terms);
  for (size_t k = 0; k < order.size(); ++k) {
    const uint32_t e = order[k];
    if (k > 0 && terms[e] != terms[order[k - 1]]) {
      column_offsets_.push_back(static_cast<uint32_t>(k));
    }
    ids_[e] = static_cast<uint32_t>(column_offsets_.size() - 1);
    column_points_.push_back(point_of[e]);
    column_weights_.push_back(weights_[e]);
  }
  if (!order.empty()) {
    column_offsets_.push_back(static_cast<uint32_t>(order.size()));
  }
}

void PointSet::AddTo(size_t i, double* dense) const {
  for (uint32_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
    dense[ids_[e]] += weights_[e];
  }
}

void PointSet::AddDots(size_t i, double* dots) const {
  for (uint32_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
    const double w = weights_[e];
    const uint32_t t = ids_[e];
    for (uint32_t c = column_offsets_[t]; c < column_offsets_[t + 1]; ++c) {
      dots[column_points_[c]] += w * column_weights_[c];
    }
  }
}

}  // namespace qec::cluster
