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

/// Scales every row c of `rows` (the dense row [c * dim, (c + 1) * dim))
/// whose cluster has members (members[c] > 0) by 1 / its norm (a zero row
/// stays as it is) and writes its norm afterwards, which is only near 1,
/// to norms[c]; the other rows and norms are left alone. Each sum of
/// squares runs in id order like SparseVector::Norm (the zero entries add
/// exact zeros); one pass over the ids carries the k rows' sums side by
/// side as independent chains.
void NormalizeRows(double* rows, size_t k, size_t dim,
                   const std::vector<size_t>& members, double* norms) {
  std::vector<double> sq(k, 0.0);
  for (size_t t = 0; t < dim; ++t) {
    for (size_t c = 0; c < k; ++c) {
      const double v = rows[c * dim + t];
      sq[c] += v * v;
    }
  }
  // Multiplying by 1.0 leaves a row that is not scaled (a skipped or zero
  // row) bit for bit as it is.
  std::vector<double> scale(k, 1.0);
  for (size_t c = 0; c < k; ++c) {
    const double n = std::sqrt(sq[c]);
    if (members[c] != 0 && n != 0.0) scale[c] = 1.0 / n;
    sq[c] = 0.0;
  }
  for (size_t t = 0; t < dim; ++t) {
    for (size_t c = 0; c < k; ++c) {
      const double v = rows[c * dim + t] * scale[c];
      rows[c * dim + t] = v;
      sq[c] += v * v;
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (members[c] != 0) norms[c] = std::sqrt(sq[c]);
  }
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

KMeans::Seeds KMeans::Seed(const PointSet& points, size_t k) const {
  Seeds seeds;
  if (k < 2 || k >= points.size()) return seeds;  // ClusterWithK's trivial k
  const size_t dim = points.dim();
  Rng rng(options_.seed);
  const std::vector<size_t> chosen = SeedPlusPlus(points, k, rng);
  seeds.rows.assign(k * dim, 0.0);
  seeds.norms.resize(k);
  for (size_t c = 0; c < k; ++c) {
    points.AddTo(chosen[c], seeds.rows.data() + c * dim);
  }
  // Each seed row is a centroid of one member.
  NormalizeRows(seeds.rows.data(), k, dim, std::vector<size_t>(k, 1),
                seeds.norms.data());
  return seeds;
}

Clustering KMeans::Cluster(const std::vector<SparseVector>& points) const {
  return Cluster(PointSet(points));
}

Clustering KMeans::Cluster(const PointSet& points, double* silhouette) const {
  QEC_TRACE_SPAN("cluster/kmeans");
  QEC_COUNTER_INC("cluster/kmeans_runs");
  const size_t n = points.size();
  const size_t k_max = std::min(options_.k == 0 ? size_t{1} : options_.k, n);
  if (!options_.auto_k || n <= 2 || k_max <= 1) {
    Clustering only = ClusterWithK(points, k_max, Seed(points, k_max));
    if (silhouette != nullptr) {
      *silhouette = MeanSilhouettes(points, {&only, 1})[0];
    }
    return only;
  }
  // Try every k up to the bound and keep the best mean silhouette, all
  // scored by one silhouette pass. k = 1 scores a neutral 0; ties and the
  // all-neutral case prefer the smaller k. k-means++ draws its seeds one
  // at a time from one stream, so the seeds for k are the first k seeds
  // for the largest k that runs the loop (k = n puts each point alone):
  // seed once for that k.
  const Seeds seeds = Seed(points, std::min(k_max, n - 1));
  std::vector<Clustering> candidates;
  candidates.reserve(k_max);
  for (size_t k = 1; k <= k_max; ++k) {
    candidates.push_back(ClusterWithK(points, k, seeds));
  }
  const std::vector<double> scores = MeanSilhouettes(points, candidates);
  size_t best = 0;
  for (size_t c = 1; c < candidates.size(); ++c) {
    if (scores[c] > scores[best] + 1e-12) best = c;
  }
  if (silhouette != nullptr) *silhouette = scores[best];
  return std::move(candidates[best]);
}

Clustering KMeans::ClusterWithK(const PointSet& points, size_t k_arg,
                                const Seeds& seeds) const {
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
  // cached per iteration; it starts as seed c.
  const size_t dim = points.dim();
  QEC_CHECK_GE(seeds.norms.size(), k);
  std::vector<double> centroids(seeds.rows.begin(),
                                seeds.rows.begin() + k * dim);
  std::vector<double> norms(seeds.norms.begin(), seeds.norms.begin() + k);

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
        double d = points.DistanceTo(i, centroids.data() + c * dim, norms[c]);
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
      points.AddTo(i, next.data() + c * dim);
      counts[c]++;
    }
    for (size_t c = 0; c < k; ++c) {
      // Keep an empty centroid and its norm; compacted later.
      if (counts[c] == 0) {
        std::copy_n(centroids.data() + c * dim, dim, next.data() + c * dim);
      }
    }
    NormalizeRows(next.data(), k, dim, counts, norms.data());
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

namespace {

/// Mean silhouettes of `group` (clusterings of two or more clusters each)
/// from one pass over the point pairs, written to scores[0, group.size()).
/// Each unordered pair's distance is computed once, when the earlier
/// point's row is walked, and added to both points' per-cluster sums (row
/// i of dist_sum, one slot per cluster of every clustering in the group).
/// Row i so receives j < i from the earlier rows, then j > i from its own,
/// in ascending j: the order a walk over row i alone would add them in.
/// Distances are symmetric bit for bit (PointSet::Distance).
void ScorePass(const PointSet& points,
               std::span<const Clustering* const> group, double* scores) {
  const size_t n = points.size();
  const size_t m = group.size();
  // Cluster c of clustering s is slot base[s] + c of the flat per-cluster
  // arrays; slot[j * m + s] is point j's cluster slot in clustering s.
  std::vector<size_t> base = {0};
  for (const Clustering* clustering : group) {
    base.push_back(base.back() + clustering->num_clusters);
  }
  const size_t width = base.back();
  std::vector<size_t> slot(n * m);
  std::vector<size_t> cluster_size(width, 0);
  for (size_t s = 0; s < m; ++s) {
    const Clustering& clustering = *group[s];
    for (size_t j = 0; j < n; ++j) {
      const int a = clustering.assignment[j];
      QEC_CHECK_GE(a, 0);
      QEC_CHECK_LT(static_cast<size_t>(a), clustering.num_clusters);
      slot[j * m + s] = base[s] + static_cast<size_t>(a);
      cluster_size[slot[j * m + s]]++;
    }
  }

  QEC_COUNTER_ADD("cluster/silhouette_distances", n * (n - 1) / 2);
  std::vector<double> totals(m, 0.0);
  std::vector<double> dist_sum(n * width, 0.0);
  std::vector<double> dots(n);
  PointSet::LaterDots later(points);
  for (size_t i = 0; i < n; ++i) {
    std::fill(dots.begin() + i + 1, dots.end(), 0.0);
    later.Add(i, dots.data());
    double* row_i = &dist_sum[i * width];
    const size_t* slot_i = &slot[i * m];
    for (size_t j = i + 1; j < n; ++j) {
      const double d = points.Distance(i, j, dots[j]);
      double* row_j = &dist_sum[j * width];
      const size_t* slot_j = &slot[j * m];
      for (size_t s = 0; s < m; ++s) {
        row_i[slot_j[s]] += d;
        row_j[slot_i[s]] += d;
      }
    }
    // Row i is complete: its mean distance to every cluster (own cluster
    // excludes the point itself), in every clustering at once.
    for (size_t s = 0; s < m; ++s) {
      const size_t own = slot_i[s];
      if (cluster_size[own] <= 1) continue;  // singleton scores 0
      const double a = row_i[own] / static_cast<double>(cluster_size[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = base[s]; c < base[s + 1]; ++c) {
        if (c == own || cluster_size[c] == 0) continue;
        b = std::min(b, row_i[c] / static_cast<double>(cluster_size[c]));
      }
      const double denom = std::max(a, b);
      totals[s] += denom > 0.0 ? (b - a) / denom : 0.0;
    }
  }
  for (size_t s = 0; s < m; ++s) {
    scores[s] = totals[s] / static_cast<double>(n);
  }
}

}  // namespace

std::vector<double> MeanSilhouettes(const PointSet& points,
                                    std::span<const Clustering> clusterings) {
  const size_t n = points.size();
  std::vector<double> scores(clusterings.size(), 0.0);
  // Scored clusterings; the rest (fewer than two clusters) stay 0.
  std::vector<size_t> scored;
  std::vector<const Clustering*> candidates;
  for (size_t q = 0; q < clusterings.size(); ++q) {
    QEC_CHECK_EQ(clusterings[q].assignment.size(), n);
    if (n == 0 || clusterings[q].num_clusters < 2) continue;
    scored.push_back(q);
    candidates.push_back(&clusterings[q]);
  }
  if (candidates.empty()) return scores;
  // Passes take the clusterings in order, as many as fit in
  // kMaxSilhouetteSums per-cluster sums (at least one), so a request's
  // bound on k cannot grow the n x clusters array past the larger of that
  // budget and n x its largest clustering.
  std::vector<double> candidate_scores(candidates.size());
  const size_t max_width = kMaxSilhouetteSums / n;
  for (size_t first = 0; first < candidates.size();) {
    size_t last = first;
    size_t width = 0;
    while (last < candidates.size() &&
           (last == first ||
            width + candidates[last]->num_clusters <= max_width)) {
      width += candidates[last++]->num_clusters;
    }
    ScorePass(points, std::span(candidates).subspan(first, last - first),
              &candidate_scores[first]);
    first = last;
  }
  for (size_t s = 0; s < scored.size(); ++s) {
    scores[scored[s]] = candidate_scores[s];
  }
  return scores;
}

}  // namespace qec::cluster
