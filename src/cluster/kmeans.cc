#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qec::cluster {

std::vector<std::vector<size_t>> Clustering::Members() const {
  std::vector<std::vector<size_t>> members(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    QEC_CHECK_GE(assignment[i], 0);
    QEC_CHECK_LT(static_cast<size_t>(assignment[i]), num_clusters);
    members[static_cast<size_t>(assignment[i])].push_back(i);
  }
  return members;
}

KMeans::KMeans(KMeansOptions options) : options_(options) {}

namespace {

/// L2 norm of a dense vector, summed in id order like SparseVector::Norm
/// (its zero entries add exact zeros).
double DenseNorm(const double* v, size_t dim) {
  double sq = 0.0;
  for (size_t t = 0; t < dim; ++t) sq += v[t] * v[t];
  return std::sqrt(sq);
}

/// Scales `v` to unit norm (no-op for the zero vector) and returns its
/// norm afterwards, which SparseVector::Normalize leaves only near 1.
double NormalizeDense(double* v, size_t dim) {
  const double n = DenseNorm(v, dim);
  if (n == 0.0) return n;
  const double scale = 1.0 / n;
  for (size_t t = 0; t < dim; ++t) v[t] *= scale;
  return DenseNorm(v, dim);
}

// k-means++ seeding: first centroid uniform, subsequent proportional to
// squared distance to the nearest chosen centroid.
std::vector<size_t> SeedPlusPlus(const PointSet& points, size_t k, Rng& rng) {
  std::vector<size_t> seeds;
  seeds.push_back(static_cast<size_t>(rng.UniformInt(points.size())));
  std::vector<double> best_dist(points.size(),
                                std::numeric_limits<double>::infinity());
  std::vector<double> dots(points.size());
  while (seeds.size() < k) {
    const size_t last = seeds.back();
    std::fill(dots.begin(), dots.end(), 0.0);
    points.AddDots(last, dots.data());
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      double d = points.Distance(i, last, dots[i]);
      best_dist[i] = std::min(best_dist[i], d * d);
      total += best_dist[i];
    }
    if (total <= 0.0) {
      // All points coincide with some centroid; pick any unused point.
      size_t next = seeds.size() % points.size();
      seeds.push_back(next);
      continue;
    }
    double target = rng.UniformDouble() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += best_dist[i];
      if (acc >= target) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

}  // namespace

Clustering KMeans::Cluster(const std::vector<SparseVector>& points) const {
  return Cluster(PointSet(points));
}

Clustering KMeans::Cluster(const PointSet& points, double* silhouette) const {
  QEC_TRACE_SPAN("cluster/kmeans");
  QEC_COUNTER_INC("cluster/kmeans_runs");
  const size_t n = points.size();
  const size_t k_max = std::min(options_.k == 0 ? size_t{1} : options_.k, n);
  if (!options_.auto_k || n <= 2 || k_max <= 1) {
    Clustering only = ClusterWithK(points, k_max);
    if (silhouette != nullptr) {
      *silhouette = MeanSilhouettes(points, {&only, 1})[0];
    }
    return only;
  }
  // Try every k up to the bound and keep the best mean silhouette, all
  // scored by one silhouette pass. k = 1 scores a neutral 0; ties and the
  // all-neutral case prefer the smaller k.
  std::vector<Clustering> candidates;
  candidates.reserve(k_max);
  for (size_t k = 1; k <= k_max; ++k) {
    candidates.push_back(ClusterWithK(points, k));
  }
  const std::vector<double> scores = MeanSilhouettes(points, candidates);
  size_t best = 0;
  for (size_t c = 1; c < candidates.size(); ++c) {
    if (scores[c] > scores[best] + 1e-12) best = c;
  }
  if (silhouette != nullptr) *silhouette = scores[best];
  return std::move(candidates[best]);
}

Clustering KMeans::ClusterWithK(const PointSet& points, size_t k_arg) const {
  Clustering result;
  const size_t n = points.size();
  result.assignment.assign(n, 0);
  if (n == 0) return result;

  const size_t k = std::min(k_arg == 0 ? size_t{1} : k_arg, n);
  if (k == 1) {
    result.num_clusters = 1;
    return result;
  }
  if (k == n) {
    for (size_t i = 0; i < n; ++i) result.assignment[i] = static_cast<int>(i);
    result.num_clusters = n;
    return result;
  }

  // Centroid c is the dense row [c * dim, (c + 1) * dim), with its norm
  // cached per iteration.
  const size_t dim = points.dim();
  Rng rng(options_.seed);
  std::vector<size_t> seeds = SeedPlusPlus(points, k, rng);
  std::vector<double> centroids(k * dim, 0.0);
  std::vector<double> norms(k);
  for (size_t c = 0; c < k; ++c) {
    points.AddTo(seeds[c], &centroids[c * dim]);
    norms[c] = NormalizeDense(&centroids[c * dim], dim);
  }

  std::vector<int> assignment(n, -1);
  std::vector<double> next(k * dim);
  std::vector<size_t> counts(k);
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    QEC_COUNTER_INC("cluster/kmeans_iterations");
    bool changed = false;
    // Assignment step.
    for (size_t i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        double d = points.DistanceTo(i, &centroids[c * dim], norms[c]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update step: centroid = normalized sum of members, scatter-added in
    // point order.
    std::fill(next.begin(), next.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      size_t c = static_cast<size_t>(assignment[i]);
      points.AddTo(i, &next[c * dim]);
      counts[c]++;
    }
    for (size_t c = 0; c < k; ++c) {
      double* row = &next[c * dim];
      if (counts[c] == 0) {
        // Keep the empty centroid; compacted later.
        std::copy_n(&centroids[c * dim], dim, row);
      } else {
        norms[c] = NormalizeDense(row, dim);
      }
    }
    centroids.swap(next);
  }

  // Compact away empty clusters so labels are dense.
  std::vector<int> remap(k, -1);
  int next_label = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t c = static_cast<size_t>(assignment[i]);
    if (remap[c] == -1) remap[c] = next_label++;
  }
  for (size_t i = 0; i < n; ++i) {
    result.assignment[i] = remap[static_cast<size_t>(assignment[i])];
  }
  result.num_clusters = static_cast<size_t>(next_label);
  return result;
}

double MeanSilhouette(const std::vector<SparseVector>& points,
                      const Clustering& clustering) {
  return MeanSilhouettes(PointSet(points), {&clustering, 1})[0];
}

std::vector<double> MeanSilhouettes(const PointSet& points,
                                    std::span<const Clustering> clusterings) {
  const size_t n = points.size();
  std::vector<double> scores(clusterings.size(), 0.0);
  // Scored clusterings; the rest (fewer than two clusters) stay 0.
  std::vector<size_t> scored;
  // Cluster c of scored clustering s is slot base[s] + c of the flat
  // per-cluster arrays.
  std::vector<size_t> base = {0};
  for (size_t q = 0; q < clusterings.size(); ++q) {
    QEC_CHECK_EQ(clusterings[q].assignment.size(), n);
    if (n == 0 || clusterings[q].num_clusters < 2) continue;
    scored.push_back(q);
    base.push_back(base.back() + clusterings[q].num_clusters);
  }
  if (scored.empty()) return scores;
  const size_t m = scored.size();

  // slot[j * m + s]: point j's cluster slot in scored clustering s.
  std::vector<size_t> slot(n * m);
  std::vector<size_t> cluster_size(base.back(), 0);
  for (size_t s = 0; s < m; ++s) {
    const Clustering& clustering = clusterings[scored[s]];
    for (size_t j = 0; j < n; ++j) {
      const int a = clustering.assignment[j];
      QEC_CHECK_GE(a, 0);
      QEC_CHECK_LT(static_cast<size_t>(a), clustering.num_clusters);
      slot[j * m + s] = base[s] + static_cast<size_t>(a);
      cluster_size[slot[j * m + s]]++;
    }
  }

  QEC_COUNTER_ADD("cluster/silhouette_distances", n * (n - 1));
  std::vector<double> totals(m, 0.0);
  std::vector<double> dist_sum(base.back());
  std::vector<double> dots(n);
  // For each point, mean distance to every cluster (own cluster excludes
  // the point itself), in every scored clustering at once.
  for (size_t i = 0; i < n; ++i) {
    std::fill(dots.begin(), dots.end(), 0.0);
    points.AddDots(i, dots.data());
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d = points.Distance(i, j, dots[j]);
      for (size_t s = 0; s < m; ++s) dist_sum[slot[j * m + s]] += d;
    }
    for (size_t s = 0; s < m; ++s) {
      const size_t own = slot[i * m + s];
      if (cluster_size[own] <= 1) continue;  // singleton scores 0
      const double a =
          dist_sum[own] / static_cast<double>(cluster_size[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = base[s]; c < base[s + 1]; ++c) {
        if (c == own || cluster_size[c] == 0) continue;
        b = std::min(b, dist_sum[c] / static_cast<double>(cluster_size[c]));
      }
      const double denom = std::max(a, b);
      totals[s] += denom > 0.0 ? (b - a) / denom : 0.0;
    }
  }
  for (size_t s = 0; s < m; ++s) {
    scores[scored[s]] = totals[s] / static_cast<double>(n);
  }
  return scores;
}

}  // namespace qec::cluster
