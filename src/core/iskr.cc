#include "core/iskr.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/small_vector.h"
#include "common/sweep_pool.h"
#include "common/threading.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qec::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Entry {
  double benefit = 0.0;
  double cost = 0.0;
  // True for an addition that would eliminate every cluster result still
  // retrieved: the benefit/cost ratio may exceed 1, but recall — and hence
  // F-measure — would drop to exactly 0, so the move can never help.
  bool kills_cluster = false;

  double value() const {
    if (kills_cluster) return 0.0;
    if (cost > 0.0) return benefit / cost;
    return benefit > 0.0 ? kInf : 0.0;
  }
};

/// Mutable ISKR state over one expansion context. All per-evaluation set
/// algebra runs on the fused ResultUniverse/DynamicBitset kernels: a
/// benefit/cost (re)computation performs zero heap allocations, and the
/// few long-lived buffers are leased from the universe's scratch arena so
/// repeated expansions over one universe stop allocating entirely.
///
/// Entries live in arrays indexed like the context's (distinct)
/// candidates, and each candidate's D(k) comes from the context, so no
/// evaluation looks a term up. A candidate holds an addition entry while it
/// is outside the query and a removal entry while it is in it.
class IskrState {
 public:
  IskrState(const ExpansionContext& ctx, const IskrOptions& options,
            const SweepOptions& sweep, std::vector<IskrStep>* trace)
      : ctx_(ctx),
        options_(options),
        sweep_(sweep),
        trace_(trace),
        retrieved_(ctx.universe->AcquireScratch()),
        delta_(ctx.universe->AcquireScratch()),
        without_(ctx.universe->AcquireScratch()),
        cluster_range_(ctx.cluster.NonzeroWordRange()),
        others_range_(ctx.others.NonzeroWordRange()) {
    QEC_CHECK_EQ(ctx.candidate_docs.size(), ctx.candidates.size());
    query_.assign(ctx.user_query.begin(), ctx.user_query.end());
    ctx_.universe->RetrieveInto(query_, &*retrieved_);
    RefreshScanRanges();
    SweepCandidates();
  }

  ExpansionResult Run() {
    while (iterations_ < options_.max_iterations) {
      QEC_TRACE_SPAN("iskr/refine_step");
      auto [index, is_removal, value] = BestMove();
      if (value <= 1.0) break;
      ++iterations_;
      IskrStep step;
      step.keyword = ctx_.candidates[index];
      step.is_removal = is_removal;
      step.value = value;
      step.benefit = entries_[index].benefit;
      step.cost = entries_[index].cost;
      if (is_removal) {
        ++removals_;
        ApplyRemoval(index);
      } else {
        ++additions_;
        ApplyAddition(index);
      }
      if (trace_ != nullptr) {
        step.f_measure_after =
            EvaluateQuery(*ctx_.universe, *retrieved_, ctx_.cluster).f_measure;
        trace_->push_back(step);
      }
    }
    ExpansionResult result;
    result.query.assign(query_.begin(), query_.end());
    result.quality = EvaluateQuery(*ctx_.universe, *retrieved_, ctx_.cluster);
    result.iterations = iterations_;
    result.value_recomputations = recomputations_;
    result.iskr_stats.steps = iterations_;
    result.iskr_stats.additions = additions_;
    result.iskr_stats.removals = removals_;
    result.iskr_stats.candidates_evaluated = recomputations_;
    QEC_COUNTER_INC("iskr/runs");
    QEC_COUNTER_ADD("iskr/steps", iterations_);
    QEC_COUNTER_ADD("iskr/additions", additions_);
    QEC_COUNTER_ADD("iskr/removals", removals_);
    QEC_COUNTER_ADD("iskr/benefit_cost_evals", recomputations_);
    return result;
  }

 private:
  /// What a candidate's entry currently means; kNone only while a step
  /// refreshes the other entries around the candidate it moves.
  enum class Role : uint8_t { kAdd, kRemove, kNone };

  // Initial benefit/cost evaluation of every candidate. Candidates are
  // independent, so the sweep fans out over SweepOptions::threads pool
  // workers; each entry is computed whole by one thread into its own
  // slot, keeping results byte-identical to the serial sweep.
  void SweepCandidates() {
    const size_t n = ctx_.candidates.size();
    entries_.resize(n);
    roles_.assign(n, Role::kAdd);
    const size_t threads = ResolveThreadCount(sweep_.threads, n);
    if (threads <= 1) {
      for (size_t i = 0; i < n; ++i) entries_[i] = ComputeAddEntry(i);
    } else {
      QEC_TRACE_SPAN("iskr/parallel_sweep");
      QEC_COUNTER_INC("iskr/parallel_sweeps");
      Entry* entries = entries_.data();
      std::atomic<size_t> next{0};
      common::SweepPool::Instance().Run(threads, [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          entries[i] = ComputeAddEntry(i);
        }
      });
    }
    recomputations_ += n;
  }

  // Kernel scan ranges, refreshed whenever R(q) changes: every benefit/
  // cost expression positively ANDs R(q) and one of C/U, so scanning only
  // the intersection of their nonzero-word ranges skips provably all-zero
  // shards while preserving the exact floating-point addition sequence
  // (byte-identical to the full scan). On cluster-reordered corpora C and
  // the refined R(q) are dense runs, so whole shards drop out.
  void RefreshScanRanges() {
    const WordRange retrieved_range = retrieved_->NonzeroWordRange();
    cluster_scan_ = WordRange::Intersect(retrieved_range, cluster_range_);
    others_scan_ = WordRange::Intersect(retrieved_range, others_range_);
  }

  // Addition: benefit = S(R(q) ∩ U ∩ E(k)), cost = S(R(q) ∩ C ∩ E(k)).
  // One fused pass per weight, no intermediate bitsets; the old
  // loop-invariant |R(q) ∩ C| comparison is subsumed by the early-exit
  // three-way Intersects (the addition kills the cluster exactly when
  // R(q) ∩ C ∩ D(k) is empty with positive cost). Thread-safe: reads only.
  Entry ComputeAddEntry(size_t i) const {
    const DynamicBitset& docs_k = *ctx_.candidate_docs[i];
    Entry e{ctx_.universe->WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.others,
                                             others_scan_),
            ctx_.universe->WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.cluster,
                                             cluster_scan_)};
    if (e.cost > 0.0) {
      e.kills_cluster =
          !retrieved_->Intersects(docs_k, ctx_.cluster, cluster_scan_);
    }
    return e;
  }

  // Removal: D(k) = R(q\k) \ R(q); benefit = S(C ∩ D), cost = S(U ∩ D).
  // The delta lies outside R(q), so only the positively-ANDed C/U operand
  // bounds the scan here.
  Entry ComputeRemoveEntry(size_t i) {
    ctx_.universe->RetrieveWithoutInto(query_, ctx_.candidates[i], &*without_);
    return Entry{
        ctx_.universe->WeightOfAndNotAnd(*without_, *retrieved_, ctx_.cluster,
                                         cluster_range_),
        ctx_.universe->WeightOfAndNotAnd(*without_, *retrieved_, ctx_.others,
                                         others_range_)};
  }

  // (candidate index, is_removal, value) of the best refinement step: the
  // highest value, ties to the smallest term, so the scan order is free.
  std::tuple<size_t, bool, double> BestMove() const {
    size_t best = 0;
    TermId best_term = kInvalidTermId;
    bool best_removal = false;
    double best_value = 0.0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const bool removal = roles_[i] == Role::kRemove;
      if (removal && !options_.allow_removal) continue;
      const TermId term = ctx_.candidates[i];
      const double v = entries_[i].value();
      if (v > best_value ||
          (v == best_value && best_term != kInvalidTermId &&
           term < best_term)) {
        best = i;
        best_value = v;
        best_term = term;
        best_removal = removal;
      }
    }
    return {best, best_removal, best_value};
  }

  void ApplyAddition(size_t i) {
    // Delta results: eliminated from R(q) by adding k.
    *delta_ = *retrieved_;
    delta_->AndNot(*ctx_.candidate_docs[i]);
    retrieved_->AndNot(*delta_);
    RefreshScanRanges();
    query_.push_back(ctx_.candidates[i]);
    roles_[i] = Role::kNone;
    RefreshAffected(*delta_);
    // The new member's removal entry is always fresh.
    roles_[i] = Role::kRemove;
    entries_[i] = ComputeRemoveEntry(i);
    ++recomputations_;
  }

  void ApplyRemoval(size_t i) {
    const TermId k = ctx_.candidates[i];
    ctx_.universe->RetrieveWithoutInto(query_, k, &*without_);
    *delta_ = *without_;
    delta_->AndNot(*retrieved_);
    *retrieved_ = *without_;
    RefreshScanRanges();
    query_.erase(std::find(query_.begin(), query_.end(), k));
    roles_[i] = Role::kNone;
    RefreshAffected(*delta_);
    roles_[i] = Role::kAdd;
    entries_[i] = ComputeAddEntry(i);
    ++recomputations_;
  }

  // Recomputes exactly the addition keywords that do not appear in all
  // delta results: for every other keyword the delta results change
  // nothing (Sec. 3, "Identifying Keywords with Affected Values"). The
  // rule is exact for additions only — a removal entry's delta results
  // D(k) = R(q\k) \ R(q) lie *outside* R(q), so refining q can change them
  // even when k appears in every delta result (e.g. the walkthrough's
  // removal of "job" after adding store and location). Removal entries are
  // few (|q| keywords), so they are simply recomputed every step.
  //
  // The addition refresh fans out over the sweep pool like the initial
  // sweep: ComputeAddEntry only reads shared state and every affected
  // entry is overwritten whole, so the refreshed values — and the
  // recomputation count, a plain sum — are byte-identical to the serial
  // loop. The removal refresh shares the without_ scratch and therefore
  // stays serial; it touches at most |q| entries anyway.
  void RefreshAffected(const DynamicBitset& delta) {
    const size_t n = entries_.size();
    if (!delta.None()) {
      addable_.clear();
      for (size_t i = 0; i < n; ++i) {
        if (roles_[i] == Role::kAdd) addable_.push_back(i);
      }
      const size_t threads = ResolveThreadCount(sweep_.threads, addable_.size());
      if (threads <= 1) {
        for (size_t i : addable_) {
          if (!delta.IsSubsetOf(*ctx_.candidate_docs[i])) {
            entries_[i] = ComputeAddEntry(i);
            ++recomputations_;
          }
        }
      } else {
        std::atomic<size_t> next{0};
        std::atomic<size_t> refreshed{0};
        common::SweepPool::Instance().Run(threads, [&] {
          size_t local = 0;
          for (size_t j = next.fetch_add(1); j < addable_.size();
               j = next.fetch_add(1)) {
            const size_t i = addable_[j];
            if (!delta.IsSubsetOf(*ctx_.candidate_docs[i])) {
              entries_[i] = ComputeAddEntry(i);
              ++local;
            }
          }
          refreshed.fetch_add(local);
        });
        recomputations_ += refreshed.load();
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (roles_[i] != Role::kRemove) continue;
      entries_[i] = ComputeRemoveEntry(i);
      ++recomputations_;
    }
  }

  const ExpansionContext& ctx_;
  const IskrOptions& options_;
  const SweepOptions& sweep_;
  std::vector<IskrStep>* trace_;
  common::SmallVector<TermId, 16> query_;
  /// Current R(q), plus two step-scoped scratches (delta results and
  /// R(q\k)), all leased from the universe arena.
  ResultUniverse::ScratchBitset retrieved_;
  ResultUniverse::ScratchBitset delta_;
  ResultUniverse::ScratchBitset without_;
  /// Nonzero-word ranges of C and U (fixed per context) and their current
  /// intersections with R(q)'s range (see RefreshScanRanges).
  WordRange cluster_range_;
  WordRange others_range_;
  WordRange cluster_scan_;
  WordRange others_scan_;
  /// Indexed like ctx_.candidates.
  std::vector<Entry> entries_;
  std::vector<Role> roles_;
  /// Refresh scratch: the candidates holding addition entries.
  std::vector<size_t> addable_;
  size_t iterations_ = 0;
  size_t recomputations_ = 0;
  size_t additions_ = 0;
  size_t removals_ = 0;
};

}  // namespace

IskrExpander::IskrExpander(IskrOptions options, SweepOptions sweep)
    : options_(options), sweep_(sweep) {}

ExpansionResult IskrExpander::Expand(const ExpansionContext& context) const {
  return ExpandWithTrace(context, nullptr);
}

ExpansionResult IskrExpander::ExpandWithTrace(
    const ExpansionContext& context, std::vector<IskrStep>* trace) const {
  QEC_CHECK(context.universe != nullptr);
  QEC_TRACE_SPAN("iskr/expand");
  IskrState state(context, options_, sweep_, trace);
  return state.Run();
}

}  // namespace qec::core
