#ifndef QEC_CLUSTER_KMEANS_H_
#define QEC_CLUSTER_KMEANS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/point_set.h"
#include "cluster/sparse_vector.h"
#include "common/types.h"

namespace qec::cluster {

/// k-means configuration. `k` is an *upper bound* on the number of
/// clusters (the paper's user-specified granularity): empty clusters are
/// dropped, so the output may have fewer.
struct KMeansOptions {
  /// Maximum number of clusters.
  size_t k = 5;
  /// Iteration cap for the assign/update loop.
  size_t max_iterations = 50;
  /// PRNG seed for k-means++ seeding.
  uint64_t seed = 42;
  /// When true, cluster for every k in [1, k] and keep the k with the best
  /// mean silhouette score (k=1 scores a neutral 0, chosen only when no
  /// multi-cluster split beats it). This honours the paper's reading of k
  /// as a user-specified *upper bound* on granularity: 25 canon products in
  /// 4 natural groups should yield 4 clusters, not a forced 5-way split.
  bool auto_k = false;
};

/// Result of clustering `n` points into `num_clusters` groups.
struct Clustering {
  /// assignment[i] in [0, num_clusters) for each input point i.
  std::vector<int> assignment;
  size_t num_clusters = 0;

  /// Indices of the points in each cluster.
  std::vector<std::vector<size_t>> Members() const;
};

/// Spherical k-means over cosine distance (1 - cosine similarity), with
/// k-means++ seeding. This is the result-clustering substrate the paper
/// prescribes ("we adopt k-means for result clustering", Appendix C).
/// Centroids are dense arrays over the PointSet's local term ids.
class KMeans {
 public:
  explicit KMeans(KMeansOptions options = {});

  /// Clusters `points`. Deterministic for a fixed seed. Handles k >= n by
  /// putting each point in its own cluster. Empty clusters are compacted
  /// away so cluster labels are dense.
  Clustering Cluster(const std::vector<SparseVector>& points) const;

  /// Same, over a point set shared with other methods. When `silhouette`
  /// is non-null it receives the MeanSilhouette of the returned
  /// clustering (already known under auto_k, so free there).
  Clustering Cluster(const PointSet& points,
                     double* silhouette = nullptr) const;

  const KMeansOptions& options() const { return options_; }

 private:
  /// The first k k-means++ seeds as normalised dense centroid rows: row c
  /// is [c * dim, (c + 1) * dim) of `rows`, with its norm in norms[c].
  struct Seeds {
    std::vector<double> rows;
    std::vector<double> norms;
  };
  /// The seeds for `k`; none for the k ClusterWithK needs none for (k < 2
  /// or k >= n).
  Seeds Seed(const PointSet& points, size_t k) const;
  /// k-means for one k, starting from the first k of `seeds`.
  Clustering ClusterWithK(const PointSet& points, size_t k,
                          const Seeds& seeds) const;

  KMeansOptions options_;
};

/// Mean silhouette coefficient of `clustering` over `points` under cosine
/// distance, in [-1, 1]. Points in singleton clusters score 0; a
/// single-cluster clustering scores 0 (neutral). `clustering` must label
/// every point.
double MeanSilhouette(const std::vector<SparseVector>& points,
                      const Clustering& clustering);

/// Most per-cluster distance sums (n points x clusters scored together)
/// one MeanSilhouettes pass keeps: 2^20 doubles, 8 MiB.
inline constexpr size_t kMaxSilhouetteSums = size_t{1} << 20;

/// MeanSilhouette of every clustering in `clusterings`, from one pass over
/// the point pairs per group of clusterings: each unordered pair's
/// distance is computed once per pass and added into both points'
/// per-cluster sums of every clustering in the group, in the same order as
/// a separate MeanSilhouette call would add them, so each score is
/// bit-identical to it. A group is as many clusterings, in order, as keep
/// n x their clusters within kMaxSilhouetteSums, and at least one; auto-k
/// at the default bound k = 5 (15 clusters) takes one pass up to n =
/// 69,905. Extra memory is O(max(kMaxSilhouetteSums, n * largest k)), never
/// more than an n x n matrix. Counts n(n-1)/2 distances per pass in
/// `cluster/silhouette_distances`.
std::vector<double> MeanSilhouettes(const PointSet& points,
                                    std::span<const Clustering> clusterings);

}  // namespace qec::cluster

#endif  // QEC_CLUSTER_KMEANS_H_
