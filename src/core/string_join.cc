#include "core/string_join.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "baselines/prefix_filter.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "text/edit_distance.h"
#include "text/qgram.h"

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

// The string join's predicate: hamming <= 2qk over the q-gram bags for
// everything that sees only the bags (the bitmap pre-filter and the
// prefix-filter scheme), and the exact edit distance on the strings
// themselves for the pairs Verify evaluates. The bag bound is a
// complete filter for the edit bound (string_join.h), so the bitmap
// never drops a pair the edit check would keep.
class EditDistancePredicate final : public Predicate {
 public:
  EditDistancePredicate(uint32_t q, uint32_t k,
                        const std::vector<std::string>& r_strings,
                        const std::vector<std::string>& s_strings)
      : bags_(QgramHammingThreshold(q, k)),
        k_(k),
        r_strings_(r_strings),
        s_strings_(s_strings) {}

  std::string Name() const override { return bags_.Name(); }
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override {
    return bags_.MinOverlap(size_r, size_s);
  }
  bool Matches(uint32_t size_r, uint32_t size_s,
               uint32_t overlap) const override {
    return bags_.Matches(size_r, size_s, overlap);
  }
  std::optional<SizeRange> JoinableSizes(uint32_t size_r,
                                         uint32_t max_size) const override {
    return bags_.JoinableSizes(size_r, max_size);
  }
  bool EvaluatePair(const SetCollection& /*r*/, SetId a,
                    const SetCollection& /*s*/, SetId b) const override {
    return WithinEditDistance(r_strings_[a], s_strings_[b], k_);
  }

 private:
  HammingPredicate bags_;
  uint32_t k_;
  const std::vector<std::string>& r_strings_;
  const std::vector<std::string>& s_strings_;
};

// A q-gram join is a set join over the bags: both entry points build
// them and run Join() with the edit-distance predicate above.
// `s_strings == nullptr` selects the self-join.
Result<JoinResult> QgramJoin(const std::vector<std::string>& r_strings,
                             const std::vector<std::string>* s_strings,
                             const StringJoinOptions& options) {
  if (options.q == 0) {
    return Status::InvalidArgument("StringJoin: q must be >= 1");
  }
  const bool self = s_strings == nullptr;
  QgramExtractor extractor(QgramOptions{.q = options.q});
  SetCollection r_bags = extractor.ExtractAllAsBags(r_strings);
  SetCollection s_bags;
  if (!self) s_bags = extractor.ExtractAllAsBags(*s_strings);
  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<SignatureScheme> scheme,
      MakeScheme(options,
                 QgramHammingThreshold(options.q, options.edit_threshold),
                 r_bags, self ? nullptr : &s_bags));
  EditDistancePredicate predicate(options.q, options.edit_threshold,
                                  r_strings, self ? r_strings : *s_strings);
  JoinOptions join_options;
  join_options.tracer = options.tracer;
  join_options.metrics = options.metrics;
  JoinResult result =
      self ? Join(SelfJoinRequest(r_bags, *scheme, predicate, join_options))
           : Join(BinaryJoinRequest(r_bags, s_bags, *scheme, predicate,
                                    join_options));
  if (!result.status.ok()) return result.status;
  return result;
}

}  // namespace

uint32_t QgramHammingThreshold(uint32_t q, uint32_t k) { return 2 * q * k; }

Result<JoinResult> StringSimilaritySelfJoin(
    const std::vector<std::string>& strings,
    const StringJoinOptions& options) {
  return QgramJoin(strings, /*s_strings=*/nullptr, options);
}

Result<JoinResult> StringSimilarityJoin(
    const std::vector<std::string>& r_strings,
    const std::vector<std::string>& s_strings,
    const StringJoinOptions& options) {
  return QgramJoin(r_strings, &s_strings, options);
}

}  // namespace ssjoin
