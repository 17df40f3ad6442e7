#ifndef QEC_CLUSTER_POINT_SET_H_
#define QEC_CLUSTER_POINT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/sparse_vector.h"
#include "common/types.h"

namespace qec::cluster {

/// Weighted (point, term) entries grouped by term: the sorted term table of
/// one request. core::ResultUniverse builds it once from its results and
/// reads term containment, tf and df from it; PointSet is built from it.
/// Terms get dense local ids in increasing TermId order, and each column
/// lists its entries in point order.
struct TermTable {
  size_t num_points = 0;
  /// The distinct terms, ascending: local id t is terms[t].
  std::vector<TermId> terms;
  /// Column t holds entries [offsets[t], offsets[t + 1]); terms.size() + 1
  /// values.
  std::vector<uint32_t> offsets = {0};
  /// Point of each entry; ascending within a column.
  std::vector<uint32_t> points;
  std::vector<double> weights;

  size_t num_terms() const { return terms.size(); }
  size_t num_entries() const { return points.size(); }

  /// Groups entries given point by point (`points` non-decreasing; the
  /// three vectors are parallel) by term, with a stable radix sort on the
  /// term. A point must not name a term twice.
  static TermTable FromRows(size_t num_points, std::vector<TermId> terms,
                            std::vector<uint32_t> points,
                            std::vector<double> weights);
};

/// The points of one clustering request, built once from their term table
/// and shared by k-means, HAC and the silhouette.
///
/// Points address terms by the table's local ids, so every row keeps its
/// sorted term order, and each row's norm is computed once. Two layouts
/// serve the two kinds of distance:
///   - Rows (point -> entries). A vector over the local ids fits a plain
///     `double` array of dim() entries; k-means centroids live in such
///     arrays, and a point's distance to one is a gather over the point's
///     own entries (DistanceTo).
///   - Columns (local id -> points holding it). A point's dot products
///     with every other point accumulate term at a time over the columns
///     of its own terms (AddDots), touching only the pairs that share a
///     term.
///
/// Exactness: both compute the same products, summed in the same term
/// order, as the merge-walk dot product of two sorted sparse vectors, and
/// divide by the same product of norms, so distances are bit-identical to
/// 1 - cosine over the points' SparseVectors. The gather also visits the
/// row's terms the dense side lacks, but each adds an exact ±0.0 to a sum
/// that is never -0.0 (weights are finite and never -0.0: term frequencies,
/// or entries of a SparseVector, which drops zeros).
class PointSet {
 public:
  explicit PointSet(const TermTable& table);

  /// The TermTable of the vectors' entries, then the constructor above.
  explicit PointSet(const std::vector<SparseVector>& points);

  size_t size() const { return norms_.size(); }
  /// Distinct terms over all points: the length of a dense vector.
  size_t dim() const { return column_offsets_.size() - 1; }
  /// L2 norm of point `i` (SparseVector::Norm).
  double norm(size_t i) const { return norms_[i]; }

  /// dense[id] += weight for every entry of point `i`. On an all-zero
  /// array this loads the point exactly.
  void AddTo(size_t i, double* dense) const;

  /// Cosine distance 1 - cos(point i, v) to a dense vector `v` whose L2
  /// norm is `v_norm`; 1 when either vector is zero.
  double DistanceTo(size_t i, const double* v, double v_norm) const {
    if (norms_[i] == 0.0 || v_norm == 0.0) return 1.0;
    double dot = 0.0;
    for (uint32_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
      dot += weights_[e] * v[ids_[e]];
    }
    return 1.0 - dot / (norms_[i] * v_norm);
  }

  /// dots[j] += dot(point i, point j) for every point j (i included) that
  /// shares a term with point `i`. On a zeroed array of size() entries it
  /// leaves every dot product of point `i`.
  void AddDots(size_t i, double* dots) const;

  /// Cosine distance between points `i` and `j` given their dot product.
  /// Symmetric bit for bit: the dot products of (i, j) and (j, i) multiply
  /// the same weights in the same term order.
  double Distance(size_t i, size_t j, double dot) const {
    if (norms_[i] == 0.0 || norms_[j] == 0.0) return 1.0;
    return 1.0 - dot / (norms_[i] * norms_[j]);
  }

  /// Walks the points in order and gives each its dot products with the
  /// later points only, so a pass over all points meets every unordered
  /// pair once. Columns list their points in order, so one cursor per
  /// column, moved past point i when row i is walked, marks where the
  /// later points begin; each cursor only moves forward.
  class LaterDots {
   public:
    explicit LaterDots(const PointSet& points);

    /// dots[j] += dot(point i, point j) for every j > i that shares a term
    /// with point `i`; nothing else in `dots` changes. Each sum is the
    /// one AddDots leaves. Call for i = 0, 1, 2, ... in order.
    void Add(size_t i, double* dots);

   private:
    const PointSet* points_;
    size_t next_ = 0;
    /// cursor_[t]: the first entry of column t whose point is not yet
    /// walked.
    std::vector<uint32_t> cursor_;
  };

 private:
  std::vector<double> norms_;
  // Rows: point i owns entries [row_offsets_[i], row_offsets_[i + 1]).
  std::vector<uint32_t> row_offsets_;
  std::vector<uint32_t> ids_;
  std::vector<double> weights_;
  // Columns: local id t is held by the points in
  // [column_offsets_[t], column_offsets_[t + 1]), in point order.
  std::vector<uint32_t> column_offsets_;
  std::vector<uint32_t> column_points_;
  std::vector<double> column_weights_;
};

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_POINT_SET_H_
