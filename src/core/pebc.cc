#include "core/pebc.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/small_vector.h"
#include "common/sweep_pool.h"
#include "common/threading.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qec::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double ValueOf(double benefit, double cost) {
  if (cost > 0.0) return benefit / cost;
  return benefit > 0.0 ? kInf : 0.0;
}

/// Builds one sample query for a given elimination target. Every per-
/// candidate benefit/cost evaluation runs on the fused weighted kernels
/// (zero allocations, no intermediate bitsets); the handful of long-lived
/// buffers are leased once from the universe scratch arena and reused
/// across all Build() calls of the builder.
class SampleBuilder {
 public:
  SampleBuilder(const ExpansionContext& ctx, Rng& rng,
                const SweepOptions& sweep, size_t* recomputations)
      : ctx_(ctx),
        rng_(rng),
        sweep_(sweep),
        recomputations_(recomputations),
        retrieved_(ctx.universe->AcquireScratch()),
        saved_(ctx.universe->AcquireScratch()),
        selected_(ctx.universe->AcquireScratch()),
        blocked_(ctx.universe->AcquireScratch()),
        cluster_range_(ctx.cluster.NonzeroWordRange()),
        others_range_(ctx.others.NonzeroWordRange()) {
    total_u_weight_ = ctx_.universe->TotalWeight(ctx_.others);
  }

  /// Generates a query eliminating roughly `target_percent`% of U's weight
  /// while maximizing retained C, using `strategy`.
  PebcSample Build(double target_percent, PebcStrategy strategy) {
    QEC_TRACE_SPAN("pebc/build_sample");
    query_.assign(ctx_.user_query.begin(), ctx_.user_query.end());
    ctx_.universe->RetrieveInto(query_, &*retrieved_);
    SyncRetrievedDerived();
    const double target =
        total_u_weight_ * std::clamp(target_percent, 0.0, 100.0) / 100.0;
    switch (strategy) {
      case PebcStrategy::kFixedOrder:
        BuildFixedOrder(target);
        break;
      case PebcStrategy::kRandomSubset:
        BuildRandomSubset(target);
        break;
      case PebcStrategy::kRandomSingleResult:
        BuildRandomSingleResult(target);
        break;
    }
    PebcSample sample;
    sample.target_percent = target_percent;
    sample.achieved_percent =
        total_u_weight_ > 0.0
            ? 100.0 * EliminatedWeight() / total_u_weight_
            : 0.0;
    sample.f_measure =
        EvaluateQuery(*ctx_.universe, *retrieved_, ctx_.cluster).f_measure;
    sample.query.assign(query_.begin(), query_.end());
    return sample;
  }

 private:
  // Quantities derived from retrieved_ that are loop-invariant across a
  // whole candidate sweep: hoisted here and refreshed only when retrieved_
  // changes (one fused pass instead of one per EliminatedWeight() /
  // KillsCluster() call).
  void SyncRetrievedDerived() {
    live_u_weight_ = ctx_.universe->WeightOfAnd(*retrieved_, ctx_.others);
    retrieved_c_any_ = retrieved_->Intersects(ctx_.cluster);
    // Kernel scan ranges: every per-candidate expression positively ANDs
    // R and one of C/U, so restricting the scan to the intersection of
    // their nonzero-word ranges skips provably all-zero shards while
    // preserving the exact addition sequence (byte-identical results).
    retrieved_range_ = retrieved_->NonzeroWordRange();
    cluster_scan_ = WordRange::Intersect(retrieved_range_, cluster_range_);
    others_scan_ = WordRange::Intersect(retrieved_range_, others_range_);
  }

  double EliminatedWeight() const { return total_u_weight_ - live_u_weight_; }

  // benefit = S(R ∩ U ∩ E(k)), cost = S(R ∩ C ∩ E(k)). Thread-safe: reads
  // only; callers account the evaluation in their CandidateEntry.
  std::pair<double, double> BenefitCost(const DynamicBitset& docs_k) const {
    return {ctx_.universe->WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.others,
                                             others_scan_),
            ctx_.universe->WeightOfAndNotAnd(*retrieved_, docs_k, ctx_.cluster,
                                             cluster_scan_)};
  }

  // True when adding k would eliminate every cluster result still
  // retrieved. Sample queries maximize retained C for a given elimination
  // level, so such keywords are never selected (recall would hit 0).
  bool KillsCluster(const DynamicBitset& docs_k) const {
    if (!retrieved_c_any_) return false;
    return !retrieved_->Intersects(docs_k, ctx_.cluster, cluster_scan_);
  }

  size_t NumEliminatedBy(const DynamicBitset& docs_k) const {
    return retrieved_->AndNotCount(docs_k, retrieved_range_);
  }

  bool InQuery(TermId k) const {
    return std::find(query_.begin(), query_.end(), k) != query_.end();
  }

  // One candidate's sweep outcome. `eligible` is false for candidates a
  // strategy filter skipped; `evals` carries the benefit/cost evaluation
  // count into the serial merge (so the recomputations tally is identical
  // to the serial sweep's).
  struct CandidateEntry {
    double value = -1.0;
    size_t eliminated = 0;
    uint32_t evals = 0;
    bool eligible = false;
  };
  /// Scatter target of a sweep; inline up to 64 candidates.
  using EntryBuffer = common::SmallVector<CandidateEntry, 64>;

  // Scatter-gather over the candidate list: evaluates `eval` (a pure
  // function of one candidate index) on work-stealing SweepPool workers and
  // merges the entries in candidate-index order — the shared SweepOptions
  // machinery, so any thread count is byte-identical to the serial loop.
  template <typename Eval>
  void SweepCandidates(const Eval& eval, EntryBuffer* out) {
    const size_t n = ctx_.candidates.size();
    out->clear();
    out->resize(n, CandidateEntry{});
    const size_t threads = ResolveThreadCount(sweep_.threads, n);
    if (threads <= 1) {
      for (size_t i = 0; i < n; ++i) (*out)[i] = eval(i);
    } else {
      QEC_COUNTER_INC("pebc/parallel_sweeps");
      CandidateEntry* entries = out->data();
      std::atomic<size_t> next{0};
      common::SweepPool::Instance().Run(threads, [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          entries[i] = eval(i);
        }
      });
    }
    for (const CandidateEntry& e : *out) *recomputations_ += e.evals;
  }

  void ApplyKeyword(size_t i) {
    query_.push_back(ctx_.candidates[i]);
    *retrieved_ &= *ctx_.candidate_docs[i];
    SyncRetrievedDerived();
  }

  void UndoLastKeyword() {
    query_.pop_back();
    *retrieved_ = *saved_;
    SyncRetrievedDerived();
  }

  // Stops the elimination loop once the target is crossed, keeping the
  // nearer of {with last keyword, without last keyword} (Sec. 4.3's
  // closeness rule, applied to every strategy). The pre-apply retrieved
  // set is parked in saved_ by the caller. Returns true if the loop
  // should stop.
  bool SettleAroundTarget(double target, double before_weight) {
    const double after_weight = EliminatedWeight();
    if (after_weight < target) return false;
    if (std::abs(before_weight - target) < std::abs(after_weight - target)) {
      UndoLastKeyword();
    }
    return true;
  }

  // Serial argmax over swept entries in candidate-index order, with the
  // value-then-fewest-eliminated tiebreak shared by the fixed-order and
  // single-result strategies. Returns the candidate index, or kNone.
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t SelectBestByValueThenElim(const EntryBuffer& entries) const {
    size_t best = kNone;
    double best_value = -1.0;
    size_t best_elim = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const CandidateEntry& e = entries[i];
      if (!e.eligible) continue;
      if (e.value > best_value ||
          (e.value == best_value && e.eliminated < best_elim)) {
        best_value = e.value;
        best = i;
        best_elim = e.eliminated;
      }
    }
    return best;
  }

  void BuildFixedOrder(double target) {
    if (EliminatedWeight() >= target) return;
    for (;;) {
      SweepCandidates(
          [&](size_t i) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            const DynamicBitset& docs_k = *ctx_.candidate_docs[i];
            auto [b, c] = BenefitCost(docs_k);
            e.evals = 1;
            if (b <= 0.0) return e;  // must eliminate something in U
            if (KillsCluster(docs_k)) return e;
            e.value = ValueOf(b, c);
            e.eliminated = NumEliminatedBy(docs_k);
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      const size_t best = SelectBestByValueThenElim(entries_buf_);
      if (best == kNone) return;
      const double before_weight = EliminatedWeight();
      *saved_ = *retrieved_;
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  void BuildRandomSubset(double target) {
    if (EliminatedWeight() >= target) return;
    // Randomly select results of U totalling ~target weight.
    indices_buf_.clear();
    ctx_.others.ForEachSetBit([&](size_t i) { indices_buf_.push_back(i); });
    rng_.Shuffle(indices_buf_);
    selected_->Reinitialize(ctx_.universe->size());
    double selected_weight = 0.0;
    for (size_t i : indices_buf_) {
      if (selected_weight >= target) break;
      double w = ctx_.universe->weight(i);
      // Closeness rule at the selection stage too.
      if (selected_weight + w - target > target - selected_weight &&
          selected_weight > 0.0) {
        break;
      }
      selected_->Set(i);
      selected_weight += w;
    }
    // Greedy weighted cover of the selected subset: maximize weight of
    // selected results eliminated per unit cost, where eliminating
    // non-selected results of U counts as cost (Example 4.3).
    const WordRange sel_range = selected_->NonzeroWordRange();
    for (;;) {
      if (EliminatedWeight() >= target) return;
      const WordRange sel_scan =
          WordRange::Intersect(retrieved_range_, sel_range);
      SweepCandidates(
          [&](size_t i) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            e.evals = 1;
            const DynamicBitset& docs_k = *ctx_.candidate_docs[i];
            // Eliminated results E = R ∩ ~docs_k, split three ways in
            // fused passes: selected (benefit), cluster and unselected-U
            // (cost).
            double b = ctx_.universe->WeightOfAndNotAnd(*retrieved_, docs_k,
                                                        *selected_, sel_scan);
            if (b <= 0.0) return e;
            if (KillsCluster(docs_k)) return e;
            double c = ctx_.universe->WeightOfAndNotAnd(
                           *retrieved_, docs_k, ctx_.cluster, cluster_scan_) +
                       ctx_.universe->WeightWhereInRange(
                           others_scan_,
                           [](uint64_t r, uint64_t dk, uint64_t u,
                              uint64_t sel) { return r & ~dk & u & ~sel; },
                           *retrieved_, docs_k, ctx_.others, *selected_);
            e.value = ValueOf(b, c);
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      // Value-only tiebreak (first candidate in index order wins ties),
      // exactly the serial loop's rule.
      size_t best = kNone;
      double best_value = -1.0;
      for (size_t i = 0; i < entries_buf_.size(); ++i) {
        if (!entries_buf_[i].eligible) continue;
        if (entries_buf_[i].value > best_value) {
          best_value = entries_buf_[i].value;
          best = i;
        }
      }
      if (best == kNone) return;
      const double before_weight = EliminatedWeight();
      *saved_ = *retrieved_;
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  void BuildRandomSingleResult(double target) {
    if (EliminatedWeight() >= target) return;
    // Results for which no candidate keyword works; never re-pick them.
    blocked_->Reinitialize(ctx_.universe->size());
    for (;;) {
      // Un-eliminated results of U that are not blocked.
      indices_buf_.clear();
      DynamicBitset::ForEachWord(
          [&](size_t w, uint64_t r, uint64_t u, uint64_t bl) {
            uint64_t word = r & u & ~bl;
            while (word != 0) {
              int bit = __builtin_ctzll(word);
              indices_buf_.push_back(w * 64 + static_cast<size_t>(bit));
              word &= word - 1;
            }
          },
          *retrieved_, ctx_.others, *blocked_);
      if (indices_buf_.empty()) return;
      size_t r = indices_buf_[rng_.UniformInt(indices_buf_.size())];
      // Best benefit/cost keyword that eliminates r (i.e., r lacks k);
      // ties go to the keyword eliminating fewest results.
      SweepCandidates(
          [&](size_t i) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            const DynamicBitset& docs_k = *ctx_.candidate_docs[i];
            if (docs_k.Test(r)) return e;  // cannot eliminate r
            if (KillsCluster(docs_k)) return e;
            auto [b, c] = BenefitCost(docs_k);
            e.evals = 1;
            e.value = ValueOf(b, c);
            e.eliminated = NumEliminatedBy(docs_k);
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      const size_t best = SelectBestByValueThenElim(entries_buf_);
      if (best == kNone) {
        blocked_->Set(r);
        continue;
      }
      const double before_weight = EliminatedWeight();
      *saved_ = *retrieved_;
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  const ExpansionContext& ctx_;
  Rng& rng_;
  const SweepOptions& sweep_;
  size_t* recomputations_;
  double total_u_weight_ = 0.0;
  common::SmallVector<TermId, 16> query_;
  /// Current R(q) plus strategy scratches, leased from the universe arena:
  /// saved_ holds the pre-apply set for the closeness-rule undo, selected_
  /// the random-subset targets, blocked_ the dead ends of the single-
  /// result strategy.
  ResultUniverse::ScratchBitset retrieved_;
  ResultUniverse::ScratchBitset saved_;
  ResultUniverse::ScratchBitset selected_;
  ResultUniverse::ScratchBitset blocked_;
  /// Nonzero-word ranges of C and U (fixed per context) plus the hoisted
  /// derivatives of retrieved_ (see SyncRetrievedDerived).
  WordRange cluster_range_;
  WordRange others_range_;
  WordRange retrieved_range_;
  WordRange cluster_scan_;
  WordRange others_scan_;
  double live_u_weight_ = 0.0;
  bool retrieved_c_any_ = false;
  /// Reused index buffer (random-subset shuffle, single-result pool) and
  /// swept-entry buffer (scatter-gather merge target).
  std::vector<size_t> indices_buf_;
  EntryBuffer entries_buf_;
};

}  // namespace

PebcExpander::PebcExpander(PebcOptions options, SweepOptions sweep)
    : options_(options), sweep_(sweep) {}

ExpansionResult PebcExpander::Expand(const ExpansionContext& context) const {
  return ExpandWithTrace(context, nullptr);
}

ExpansionResult PebcExpander::ExpandWithTrace(
    const ExpansionContext& context, std::vector<PebcSample>* trace) const {
  QEC_CHECK(context.universe != nullptr);
  QEC_CHECK_EQ(context.candidate_docs.size(), context.candidates.size());
  QEC_TRACE_SPAN("pebc/expand");
  Rng rng(options_.seed);
  size_t recomputations = 0;
  SampleBuilder builder(context, rng, sweep_, &recomputations);

  const size_t nseg = std::max<size_t>(1, options_.num_segments);
  double left = 0.0, right = 100.0;
  PebcSample best;
  best.f_measure = -1.0;
  size_t samples_tested = 0;
  size_t rounds = 0;
  size_t zooms = 0;

  for (size_t it = 0; it < options_.num_iterations; ++it) {
    ++rounds;
    std::vector<PebcSample> round;
    const double step = (right - left) / static_cast<double>(nseg);
    for (size_t i = 0; i <= nseg; ++i) {
      double x = left + step * static_cast<double>(i);
      PebcSample s = builder.Build(x, options_.strategy);
      ++samples_tested;
      if (s.f_measure > best.f_measure) best = s;
      if (trace != nullptr) trace->push_back(s);
      round.push_back(std::move(s));
    }
    // Zoom into the adjacent pair with the highest average F-measure.
    size_t best_pair = 0;
    double best_avg = -1.0;
    for (size_t i = 0; i + 1 < round.size(); ++i) {
      double avg = (round[i].f_measure + round[i + 1].f_measure) / 2.0;
      if (avg > best_avg) {
        best_avg = avg;
        best_pair = i;
      }
    }
    left = round[best_pair].target_percent;
    right = round[best_pair + 1].target_percent;
    ++zooms;
  }

  ExpansionResult result;
  result.query = best.query.empty() ? context.user_query : best.query;
  result.quality = EvaluateAgainstCluster(context, result.query);
  result.iterations = samples_tested;
  result.value_recomputations = recomputations;
  result.pebc_stats.samples_drawn = samples_tested;
  result.pebc_stats.rounds = rounds;
  result.pebc_stats.intervals_zoomed = zooms;
  result.pebc_stats.candidates_evaluated = recomputations;
  result.pebc_stats.best_target_percent = best.target_percent;
  QEC_COUNTER_INC("pebc/runs");
  QEC_COUNTER_ADD("pebc/samples_drawn", samples_tested);
  QEC_COUNTER_ADD("pebc/rounds", rounds);
  QEC_COUNTER_ADD("pebc/intervals_zoomed", zooms);
  QEC_COUNTER_ADD("pebc/benefit_cost_evals", recomputations);
  return result;
}

}  // namespace qec::core
