#include "core/parameter_advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

#include "obs/explain.h"
#include "util/ams_sketch.h"
#include "util/check.h"

namespace ssjoin {

namespace {

// Sample-signature statistics: total count S and pairwise collision count
// C = sum_v C(c_v, 2) over signature values v.
struct SampleStats {
  uint64_t signatures = 0;
  double collisions = 0;
  // True when the count stopped at the branch-and-bound cutoff:
  // `signatures` is then a partial count and `collisions` is unset.
  bool pruned = false;
};

// Target sets per sampled set: the factor the signature term scales by
// (and the collision term by its square).
double ScaleOf(size_t sample_size, size_t target_size) {
  if (sample_size == 0) return 0;
  return static_cast<double>(target_size) /
         static_cast<double>(sample_size);
}

// The signature term of the F2 estimate: 2 S scale. Nondecreasing in S,
// and a lower bound on the whole estimate because C >= 0.
double SignatureTerm(uint64_t signatures, double scale) {
  return 2.0 * static_cast<double>(signatures) * scale;
}

// Self-join intermediate-result size (Section 3.2, matching JoinStats):
// 2 * sum|Sign| + collisions, with the signature term scaling linearly
// and the pairwise collision term quadratically.
double Extrapolate(const SampleStats& stats, double scale) {
  return SignatureTerm(stats.signatures, scale) +
         stats.collisions * scale * scale;
}

// The branch-and-bound cutoff for one setting: counting stops once the
// signature term alone exceeds `f2`, the best estimate scored so far
// (that is, once S > f2 / (2 scale)). The default never stops.
struct Cutoff {
  double scale = 0;
  double f2 = std::numeric_limits<double>::infinity();
};

SampleStats ComputeSampleStats(const SetCollection& sample,
                               const SignatureScheme& scheme,
                               const AdvisorOptions& options,
                               const Cutoff& cutoff = {}) {
  SampleStats stats;
  std::vector<Signature> all;
  std::vector<Signature> scratch;
  AmsSketch sketch(16, 5, options.seed);
  for (SetId id = 0; id < sample.size(); ++id) {
    scratch.clear();
    scheme.Generate(sample.set(id), &scratch);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    stats.signatures += scratch.size();
    // Compared in the form Extrapolate computes, so a stopped setting's
    // estimate would have exceeded the cutoff too.
    if (SignatureTerm(stats.signatures, cutoff.scale) > cutoff.f2) {
      stats.pruned = true;
      return stats;
    }
    if (options.use_ams_sketch) {
      for (Signature sig : scratch) sketch.Add(sig);
    } else {
      all.insert(all.end(), scratch.begin(), scratch.end());
    }
  }
  if (options.use_ams_sketch) {
    // F2 = sum c_v^2 = 2C + S  =>  C = (F2 - S) / 2.
    double f2 = sketch.Estimate();
    SSJOIN_CHECK(f2 >= 0 && std::isfinite(f2),
                 "AMS estimate {} is not a finite non-negative F2 "
                 "(median-of-means over squared sums cannot go negative)",
                 f2);
    stats.collisions =
        std::max(0.0, (f2 - static_cast<double>(stats.signatures)) / 2.0);
  } else {
    std::sort(all.begin(), all.end());
    size_t i = 0;
    while (i < all.size()) {
      size_t j = i;
      while (j < all.size() && all[j] == all[i]) ++j;
      double c = static_cast<double>(j - i);
      stats.collisions += c * (c - 1) / 2.0;
      i = j;
    }
  }
  return stats;
}

// Deterministic candidate labels for the EXPLAIN search table. They are
// the advisor's public vocabulary: tests and the CLI match on them.
std::string PartEnumLabel(const PartEnumParams& params) {
  return "n1=" + std::to_string(params.n1) +
         ",n2=" + std::to_string(params.n2);
}

std::string LshLabel(const LshParams& params) {
  return "g=" + std::to_string(params.g) +
         ",l=" + std::to_string(params.l);
}

std::string WtEnumLabel(double pruning_threshold) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "th=%.6g", pruning_threshold);
  return buf;
}

// Fills the search-wide trace header. Candidates are appended by the
// scoring loop so repeated searches accumulate.
void BeginTrace(obs::AdvisorTrace* trace, std::string_view method,
                size_t sample_size, size_t target_input_size,
                const AdvisorOptions& options) {
  if (trace == nullptr) return;
  trace->method = std::string(method);
  trace->sample_size = sample_size;
  trace->target_input_size = target_input_size;
  trace->used_ams_sketch = options.use_ams_sketch;
}

// Appends one scored setting. The extrapolations mirror Extrapolate():
// signatures scale linearly with target/sample, collisions
// quadratically, and their sum is the estimated F2 that ranked the
// setting.
void TraceCandidate(obs::AdvisorTrace* trace, std::string label,
                    uint64_t signatures_per_set, const SampleStats& stats,
                    double scale, double estimated_f2) {
  obs::AdvisorCandidate candidate;
  candidate.label = std::move(label);
  candidate.signatures_per_set = signatures_per_set;
  candidate.sample_signatures = stats.signatures;
  candidate.sample_collisions = stats.collisions;
  candidate.predicted_signatures = SignatureTerm(stats.signatures, scale);
  candidate.predicted_collisions = stats.collisions * scale * scale;
  candidate.predicted_f2 = estimated_f2;
  trace->candidates.push_back(std::move(candidate));
}

// Marks the winning row among the candidates appended after
// `first_candidate` (a Choose* call may share the trace with earlier
// searches whose rows must keep their own chosen flags).
void MarkChosen(obs::AdvisorTrace* trace, size_t first_candidate,
                std::string_view label) {
  if (trace == nullptr) return;
  for (size_t i = first_candidate; i < trace->candidates.size(); ++i) {
    if (trace->candidates[i].label == label) {
      trace->candidates[i].chosen = true;
      return;
    }
  }
}

size_t TraceSize(const obs::AdvisorTrace* trace) {
  return trace != nullptr ? trace->candidates.size() : 0;
}

// One scored setting, by its index in the caller's enumeration.
struct Scored {
  size_t index = 0;
  double cost = 0;
  double estimated_f2 = 0;
};

// The one scoring loop behind every advisor search: samples `input`,
// scores every setting on the sample and extrapolates to
// `target_input_size` sets. Setting i costs costs[i] (signatures per
// set, l, or TH: the tie-break after F2); stats_of(sample, i, cutoff)
// counts its sample stats, or returns nullopt for an unusable setting;
// trace_row(i, stats, scale, f2) writes its EXPLAIN row.
//
// Settings are visited in ascending cost, enumeration order among equal
// costs. With `prune`, each is counted against the best estimate so far
// and dropped once its signature term alone exceeds it: C >= 0, so its
// estimate could only be larger, and the survivor that ranks first is
// the one the exhaustive search (prune = false) ranks first, with the
// same stats and the bit-identical estimate.
//
// Returns the scored settings best first, on (F2, cost, enumeration
// index): a total order, so equal estimates rank the same every run.
template <typename StatsOf, typename TraceRow>
std::vector<Scored> ScoreSettings(std::string_view method,
                                  const SetCollection& input,
                                  size_t target_input_size,
                                  const AdvisorOptions& options,
                                  const std::vector<double>& costs,
                                  bool prune, const StatsOf& stats_of,
                                  const TraceRow& trace_row) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  obs::AdvisorTrace* trace = options.trace;
  BeginTrace(trace, method, sample.size(), target_input_size, options);
  double scale = ScaleOf(sample.size(), target_input_size);
  std::vector<size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return costs[a] < costs[b];
  });
  Cutoff cutoff;
  cutoff.scale = scale;
  std::vector<Scored> scored;
  for (size_t i : order) {
    std::optional<SampleStats> stats = stats_of(sample, i, cutoff);
    if (!stats) continue;
    if (stats->pruned) {
      if (trace != nullptr) ++trace->pruned_settings;
      continue;
    }
    double f2 = Extrapolate(*stats, scale);
    scored.push_back({i, costs[i], f2});
    if (trace != nullptr) trace_row(i, *stats, scale, f2);
    if (prune) cutoff.f2 = std::min(cutoff.f2, f2);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.estimated_f2 != b.estimated_f2) {
                       return a.estimated_f2 < b.estimated_f2;
                     }
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return a.index < b.index;
                   });
  return scored;
}

std::vector<PartEnumChoice> SearchPartEnumParams(
    const SetCollection& input, uint32_t k, size_t target_input_size,
    const AdvisorOptions& options, bool prune) {
  std::vector<PartEnumParams> settings = PartEnumParams::EnumerateValid(
      k, options.max_signatures_per_set, options.seed);
  std::vector<double> costs;
  for (const PartEnumParams& params : settings) {
    costs.push_back(static_cast<double>(params.SignaturesPerSet()));
  }
  std::vector<Scored> scored = ScoreSettings(
      "partenum", input, target_input_size, options, costs, prune,
      [&](const SetCollection& sample, size_t i,
          const Cutoff& cutoff) -> std::optional<SampleStats> {
        auto scheme = PartEnumScheme::Create(settings[i]);
        if (!scheme.ok()) return std::nullopt;
        return ComputeSampleStats(sample, *scheme, options, cutoff);
      },
      [&](size_t i, const SampleStats& stats, double scale, double f2) {
        TraceCandidate(options.trace, PartEnumLabel(settings[i]),
                       settings[i].SignaturesPerSet(), stats, scale, f2);
      });
  std::vector<PartEnumChoice> choices;
  for (const Scored& s : scored) {
    PartEnumChoice choice;
    choice.params = settings[s.index];
    choice.signatures_per_set = settings[s.index].SignaturesPerSet();
    choice.estimated_f2 = s.estimated_f2;
    choices.push_back(choice);
  }
  return choices;
}

std::vector<LshChoice> SearchLshParams(const SetCollection& input,
                                       double gamma, double delta,
                                       uint32_t max_g,
                                       size_t target_input_size,
                                       const AdvisorOptions& options,
                                       bool prune) {
  std::vector<LshParams> settings;
  std::vector<double> costs;
  for (uint32_t g = 1; g <= max_g; ++g) {
    LshParams params = LshParams::ForAccuracy(gamma, delta, g, options.seed);
    if (params.l > options.max_signatures_per_set) continue;
    settings.push_back(params);
    costs.push_back(static_cast<double>(params.l));
  }
  std::vector<Scored> scored = ScoreSettings(
      "lsh", input, target_input_size, options, costs, prune,
      [&](const SetCollection& sample, size_t i,
          const Cutoff& cutoff) -> std::optional<SampleStats> {
        auto scheme = LshScheme::Create(settings[i]);
        if (!scheme.ok()) return std::nullopt;
        return ComputeSampleStats(sample, *scheme, options, cutoff);
      },
      [&](size_t i, const SampleStats& stats, double scale, double f2) {
        TraceCandidate(options.trace, LshLabel(settings[i]), settings[i].l,
                       stats, scale, f2);
      });
  std::vector<LshChoice> choices;
  for (const Scored& s : scored) {
    LshChoice choice;
    choice.params = settings[s.index];
    choice.estimated_f2 = s.estimated_f2;
    choices.push_back(choice);
  }
  return choices;
}

std::vector<WtEnumChoice> SearchWtEnumPruningThresholds(
    const SetCollection& input, const WeightFunction& size_weights,
    const WeightFunction& order_weights, double overlap_threshold,
    const std::vector<double>& candidates, size_t target_input_size,
    const AdvisorOptions& options, bool prune) {
  // A lower TH enumerates fewer, shorter prefixes: TH is the cost.
  std::vector<Scored> scored = ScoreSettings(
      "wtenum", input, target_input_size, options, candidates, prune,
      [&](const SetCollection& sample, size_t i,
          const Cutoff& cutoff) -> std::optional<SampleStats> {
        WtEnumParams params;
        params.pruning_threshold = candidates[i];
        params.seed = options.seed;
        auto scheme = WtEnumScheme::CreateOverlap(
            size_weights, order_weights, overlap_threshold, params);
        if (!scheme.ok()) return std::nullopt;
        SampleStats stats =
            ComputeSampleStats(sample, *scheme, options, cutoff);
        if (scheme->overflowed()) return std::nullopt;  // TH too high
        return stats;
      },
      [&](size_t i, const SampleStats& stats, double scale, double f2) {
        TraceCandidate(options.trace, WtEnumLabel(candidates[i]),
                       /*signatures_per_set=*/0, stats, scale, f2);
      });
  std::vector<WtEnumChoice> choices;
  for (const Scored& s : scored) {
    WtEnumChoice choice;
    choice.pruning_threshold = candidates[s.index];
    choice.estimated_f2 = s.estimated_f2;
    choices.push_back(choice);
  }
  return choices;
}

}  // namespace

double EstimateSchemeF2(const SetCollection& input,
                        const SignatureScheme& scheme,
                        size_t target_input_size,
                        const AdvisorOptions& options) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  SampleStats stats = ComputeSampleStats(sample, scheme, options);
  return Extrapolate(stats, ScaleOf(sample.size(), target_input_size));
}

std::vector<PartEnumChoice> EvaluatePartEnumParams(
    const SetCollection& input, uint32_t k, size_t target_input_size,
    const AdvisorOptions& options) {
  return SearchPartEnumParams(input, k, target_input_size, options,
                              /*prune=*/false);
}

Result<PartEnumChoice> ChoosePartEnumParams(const SetCollection& input,
                                            uint32_t k,
                                            size_t target_input_size,
                                            const AdvisorOptions& options) {
  size_t first_candidate = TraceSize(options.trace);
  std::vector<PartEnumChoice> choices = SearchPartEnumParams(
      input, k, target_input_size, options, /*prune=*/true);
  if (choices.empty()) {
    return Status::NotFound(
        "no valid PartEnum setting within the signature budget for k=" +
        std::to_string(k));
  }
  MarkChosen(options.trace, first_candidate,
             PartEnumLabel(choices.front().params));
  return choices.front();
}

std::vector<LshChoice> EvaluateLshParams(const SetCollection& input,
                                         double gamma, double delta,
                                         uint32_t max_g,
                                         size_t target_input_size,
                                         const AdvisorOptions& options) {
  return SearchLshParams(input, gamma, delta, max_g, target_input_size,
                         options, /*prune=*/false);
}

std::vector<WtEnumChoice> EvaluateWtEnumPruningThresholds(
    const SetCollection& input, const WeightFunction& size_weights,
    const WeightFunction& order_weights, double overlap_threshold,
    const std::vector<double>& candidates, size_t target_input_size,
    const AdvisorOptions& options) {
  return SearchWtEnumPruningThresholds(input, size_weights, order_weights,
                                       overlap_threshold, candidates,
                                       target_input_size, options,
                                       /*prune=*/false);
}

Result<WtEnumChoice> ChooseWtEnumPruningThreshold(
    const SetCollection& input, const WeightFunction& size_weights,
    const WeightFunction& order_weights, double overlap_threshold,
    const std::vector<double>& candidates, size_t target_input_size,
    const AdvisorOptions& options) {
  size_t first_candidate = TraceSize(options.trace);
  std::vector<WtEnumChoice> choices = SearchWtEnumPruningThresholds(
      input, size_weights, order_weights, overlap_threshold, candidates,
      target_input_size, options, /*prune=*/true);
  if (choices.empty()) {
    return Status::NotFound(
        "no WtEnum pruning threshold within the enumeration budget");
  }
  MarkChosen(options.trace, first_candidate,
             WtEnumLabel(choices.front().pruning_threshold));
  return choices.front();
}

Result<LshChoice> ChooseLshParams(const SetCollection& input, double gamma,
                                  double delta, uint32_t max_g,
                                  size_t target_input_size,
                                  const AdvisorOptions& options) {
  size_t first_candidate = TraceSize(options.trace);
  std::vector<LshChoice> choices = SearchLshParams(
      input, gamma, delta, max_g, target_input_size, options,
      /*prune=*/true);
  if (choices.empty()) {
    return Status::NotFound("no valid LSH setting within the budget");
  }
  MarkChosen(options.trace, first_candidate,
             LshLabel(choices.front().params));
  return choices.front();
}

Result<GuardedPartEnumResult> PartEnumJaccardSelfJoinWithRetry(
    const SetCollection& input, const PartEnumJaccardParams& params,
    ExecutionGuard& guard, const JoinOptions& options,
    const AdvisorOptions& advisor) {
  GuardedPartEnumResult out;
  JoinOptions guarded = options;
  guarded.guard = &guard;

  SSJOIN_ASSIGN_OR_RETURN(auto scheme,
                          PartEnumJaccardScheme::Create(params));
  JaccardPredicate predicate(params.gamma);
  out.join = Join(SelfJoinRequest(input, scheme, predicate, guarded));
  if (out.join.status.ok() ||
      guard.trip_reason() !=
          ExecutionGuard::TripReason::kCandidateExplosion) {
    return out;
  }

  // The breaker fired: the (n1, n2) shape filters too weakly for this
  // input. Re-tune on a sample and retry once with the advisor's choice.
  uint32_t avg =
      static_cast<uint32_t>(input.average_set_size() + 0.5);
  uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(
      std::max(1u, avg), params.gamma);
  Result<PartEnumChoice> choice =
      ChoosePartEnumParams(input, k, input.size(), advisor);
  if (!choice.ok()) return out;  // No safer shape known; keep the trip.

  PartEnumJaccardParams tuned_params = params;
  PartEnumParams tuned = choice->params;
  tuned_params.chooser = [tuned](uint32_t threshold) {
    PartEnumParams p = tuned;
    p.k = threshold;
    return p;
  };
  SSJOIN_ASSIGN_OR_RETURN(auto retry_scheme,
                          PartEnumJaccardScheme::Create(tuned_params));
  guard.Reset();
  out.retried = true;
  out.retry_params = tuned;
  out.join = Join(SelfJoinRequest(input, retry_scheme, predicate, guarded));
  return out;
}

}  // namespace ssjoin
