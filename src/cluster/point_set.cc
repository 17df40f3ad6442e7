#include "cluster/point_set.h"

#include <algorithm>
#include <cmath>
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

TermTable TableOf(const std::vector<SparseVector>& vectors) {
  std::vector<TermId> terms;
  std::vector<uint32_t> points;
  std::vector<double> weights;
  for (size_t i = 0; i < vectors.size(); ++i) {
    for (const auto& [t, w] : vectors[i].entries()) {
      terms.push_back(t);
      points.push_back(static_cast<uint32_t>(i));
      weights.push_back(w);
    }
  }
  return TermTable::FromRows(vectors.size(), std::move(terms),
                             std::move(points), std::move(weights));
}

}  // namespace

TermTable TermTable::FromRows(size_t num_points, std::vector<TermId> terms,
                              std::vector<uint32_t> points,
                              std::vector<double> weights) {
  QEC_CHECK_EQ(points.size(), terms.size());
  QEC_CHECK_EQ(weights.size(), terms.size());
  QEC_CHECK_LE(terms.size(), size_t{UINT32_MAX});
  TermTable table;
  table.num_points = num_points;
  // Walking the entries in term order numbers the local ids monotonically
  // and, the sort being stable, lays out every column in point order.
  const std::vector<uint32_t> order = OrderByTerm(terms);
  table.points.resize(order.size());
  table.weights.resize(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const uint32_t e = order[k];
    if (k == 0 || terms[e] != table.terms.back()) {
      if (k > 0) table.offsets.push_back(static_cast<uint32_t>(k));
      table.terms.push_back(terms[e]);
    }
    table.points[k] = points[e];
    table.weights[k] = weights[e];
  }
  if (!order.empty()) {
    table.offsets.push_back(static_cast<uint32_t>(order.size()));
  }
  return table;
}

PointSet::PointSet(const std::vector<SparseVector>& points)
    : PointSet(TableOf(points)) {}

PointSet::PointSet(const TermTable& table)
    : column_offsets_(table.offsets),
      column_points_(table.points),
      column_weights_(table.weights) {
  // Rows: scattering the columns in local id order leaves every row's
  // entries in increasing term order.
  const size_t n = table.num_points;
  row_offsets_.assign(n + 1, 0);
  for (uint32_t p : table.points) ++row_offsets_[p + 1];
  std::partial_sum(row_offsets_.begin(), row_offsets_.end(),
                   row_offsets_.begin());
  std::vector<uint32_t> cursor(row_offsets_.begin(), row_offsets_.end() - 1);
  ids_.resize(table.num_entries());
  weights_.resize(table.num_entries());
  for (uint32_t t = 0; t < table.num_terms(); ++t) {
    for (uint32_t c = table.offsets[t]; c < table.offsets[t + 1]; ++c) {
      const uint32_t slot = cursor[table.points[c]]++;
      ids_[slot] = t;
      weights_[slot] = table.weights[c];
    }
  }
  // Summed in term order, as SparseVector::Norm does.
  norms_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double sq = 0.0;
    for (uint32_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
      sq += weights_[e] * weights_[e];
    }
    norms_[i] = std::sqrt(sq);
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

PointSet::LaterDots::LaterDots(const PointSet& points)
    : points_(&points),
      cursor_(points.column_offsets_.begin(),
              points.column_offsets_.end() - 1) {}

void PointSet::LaterDots::Add(size_t i, double* dots) {
  QEC_CHECK_EQ(i, next_);
  ++next_;
  const PointSet& p = *points_;
  for (uint32_t e = p.row_offsets_[i]; e < p.row_offsets_[i + 1]; ++e) {
    const double w = p.weights_[e];
    const uint32_t t = p.ids_[e];
    // The cursor sits on point i's own entry; the later points follow it.
    const uint32_t end = p.column_offsets_[t + 1];
    for (uint32_t c = ++cursor_[t]; c < end; ++c) {
      dots[p.column_points_[c]] += w * p.column_weights_[c];
    }
  }
}

}  // namespace qec::cluster
