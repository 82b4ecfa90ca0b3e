#include "core/string_join.h"

#include <algorithm>
#include <memory>

#include "baselines/prefix_filter.h"
#include "core/driver_internal.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "obs/join_telemetry.h"
#include "text/edit_distance.h"
#include "text/qgram.h"
#include "util/thread_pool.h"

namespace ssjoin {

namespace {

// Builds the candidate-filter scheme over q-gram bags. For prefix filter,
// element frequencies come from both inputs (s_bags may be null for
// self-joins).
Result<std::unique_ptr<SignatureScheme>> MakeScheme(
    const StringJoinOptions& options, uint32_t hamming_k,
    const SetCollection& r_bags, const SetCollection* s_bags) {
  switch (options.algorithm) {
    case StringJoinAlgorithm::kPartEnum: {
      PartEnumParams params = options.partenum_shape.value_or(
          PartEnumParams::Default(hamming_k));
      params.k = hamming_k;
      params.seed = options.seed;
      params.n1 = std::max<uint32_t>(1, std::min(params.n1, params.k + 1));
      while (static_cast<uint64_t>(params.n1) * params.n2 <=
             static_cast<uint64_t>(params.k) + 1) {
        ++params.n2;
      }
      auto created = PartEnumScheme::Create(params);
      if (!created.ok()) return created.status();
      return std::unique_ptr<SignatureScheme>(
          std::make_unique<PartEnumScheme>(std::move(created).value()));
    }
    case StringJoinAlgorithm::kPrefixFilter: {
      auto predicate = std::make_shared<HammingPredicate>(hamming_k);
      auto created =
          s_bags ? PrefixFilterScheme::Create(predicate, r_bags, *s_bags,
                                              PrefixFilterParams{})
                 : PrefixFilterScheme::Create(predicate, r_bags,
                                              PrefixFilterParams{});
      if (!created.ok()) return created.status();
      return std::unique_ptr<SignatureScheme>(
          std::make_unique<PrefixFilterScheme>(std::move(created).value()));
    }
  }
  return Status::InvalidArgument("unknown string-join algorithm");
}

// The Figure 2 phases over q-gram bags, shared by both entry points:
// `s_strings == nullptr` selects the self-join.
Result<JoinResult> RunStringJoin(const std::vector<std::string>& r_strings,
                                 const std::vector<std::string>* s_strings,
                                 const StringJoinOptions& options) {
  if (options.q == 0) {
    return Status::InvalidArgument("StringJoin: q must be >= 1");
  }
  const bool self = s_strings == nullptr;
  const std::vector<std::string>& s_side = self ? r_strings : *s_strings;
  JoinResult result;
  JoinStats& stats = result.stats;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  if (self) {
    telem.Attr("mode", "string_self");
    telem.Attr("input_sets", static_cast<uint64_t>(r_strings.size()));
  } else {
    telem.Attr("mode", "string_binary");
    telem.Attr("input_sets_r", static_cast<uint64_t>(r_strings.size()));
    telem.Attr("input_sets_s", static_cast<uint64_t>(s_side.size()));
  }
  uint32_t hamming_k =
      QgramHammingThreshold(options.q, options.edit_threshold);

  // Phase 1 (Figure 16): grams + signatures, "on-the-fly, in
  // application-level code". Gram extraction is part of SigGen.
  std::vector<Posting> postings_r, postings_s;
  {
    auto scope = telem.Phase(obs::kPhaseSigGen, &stats.siggen_seconds);
    QgramExtractor extractor(QgramOptions{.q = options.q});
    SetCollection r_bags = extractor.ExtractAllAsBags(r_strings);
    SetCollection s_bags;
    if (!self) s_bags = extractor.ExtractAllAsBags(s_side);
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<SignatureScheme> scheme,
        MakeScheme(options, hamming_k, r_bags, self ? nullptr : &s_bags));
    std::vector<Signature> sigs;
    auto post = [&](const SetCollection& bags, std::vector<Posting>* out,
                    uint64_t* count) {
      for (SetId id = 0; id < bags.size(); ++id) {
        detail::GenerateSorted(*scheme, bags.set(id), &sigs);
        *count += sigs.size();
        for (Signature sig : sigs) out->emplace_back(sig, id);
      }
    };
    post(r_bags, &postings_r, &stats.signatures_r);
    if (self) {
      stats.signatures_s = stats.signatures_r;
    } else {
      post(s_bags, &postings_s, &stats.signatures_s);
    }
  }

  // The one candidate generator, on one thread and with no bitmap test:
  // every candidate is kept, sorted.
  detail::ProbedCandidates candidates;
  {
    auto scope = telem.Phase(obs::kPhaseCandPair, &stats.candpair_seconds);
    ThreadPool pool(1);
    candidates = detail::ProbeAll(
        detail::BuildProbeIndex(&postings_r, r_strings.size(),
                                self ? nullptr : &postings_s, s_side.size(),
                                pool),
        /*keep=*/true, detail::PairBitmap(), pool, {}, &telem);
    stats.signature_collisions = candidates.collisions;
    stats.candidates = candidates.total();
  }

  {
    auto scope =
        telem.Phase(obs::kPhasePostFilter, &stats.postfilter_seconds);
    for (uint64_t packed : candidates.kept) {
      auto [a, b] = UnpackPair(packed);
      if (WithinEditDistance(r_strings[a], s_side[b],
                             options.edit_threshold)) {
        result.pairs.emplace_back(a, b);
        ++stats.results;
      } else {
        ++stats.false_positives;
      }
    }
  }

  telem.Attr("results", stats.results);
  return result;
}

}  // namespace

uint32_t QgramHammingThreshold(uint32_t q, uint32_t k) { return 2 * q * k; }

Result<JoinResult> StringSimilaritySelfJoin(
    const std::vector<std::string>& strings,
    const StringJoinOptions& options) {
  return RunStringJoin(strings, /*s_strings=*/nullptr, options);
}

Result<JoinResult> StringSimilarityJoin(
    const std::vector<std::string>& r_strings,
    const std::vector<std::string>& s_strings,
    const StringJoinOptions& options) {
  return RunStringJoin(r_strings, &s_strings, options);
}

}  // namespace ssjoin
