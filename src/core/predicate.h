// SSJoin predicates.
//
// Paper Section 2 defines the SSJoin predicate class
//     pred(r, s) = AND_i ( |r ∩ s| >= e_i )
// where each e_i is a numeric expression over |r| and |s|. Every predicate
// in this class is therefore a function of (|r|, |s|, |r ∩ s|) alone, which
// is the interface captured here: a Predicate supplies the minimum required
// intersection size for a given pair of set sizes.
//
// Section 6 identifies the subclass our algorithms can evaluate: predicates
// that additionally yield (1) upper/lower bounds on the sizes |s| joinable
// with a given |r| and (2) an upper bound on Hd(r, s) for joinable pairs.
// Both bounds are *derived* here from MinOverlap, so every concrete
// predicate gets them for free:
//   - Hd(r,s) = |r| + |s| - 2|r∩s| <= |r| + |s| - 2*ceil(MinOverlap), and
//   - a size |s| is joinable only if MinOverlap(|r|,|s|) <= min(|r|,|s|).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/collection.h"

namespace ssjoin {

/// Inclusive range of set sizes.
struct SizeRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool Contains(uint32_t size) const { return lo <= size && size <= hi; }
};

/// \brief A set-similarity predicate from the paper's class (Section 2).
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Display name, e.g. "jaccard>=0.9".
  virtual std::string Name() const = 0;

  /// The minimum intersection size required for sets of the given sizes
  /// to satisfy the predicate (the max over the paper's e_i expressions).
  /// May be negative or zero, meaning any intersection qualifies.
  virtual double MinOverlap(uint32_t size_r, uint32_t size_s) const = 0;

  /// True iff sets with the given sizes and intersection size satisfy the
  /// predicate. Default: overlap >= MinOverlap (with a relative epsilon so
  /// float rounding cannot flip exact-boundary cases).
  virtual bool Matches(uint32_t size_r, uint32_t size_s,
                       uint32_t overlap) const;

  /// Evaluates the predicate on two sorted element arrays. The default
  /// computes the intersection size and delegates to Matches; weighted
  /// predicates (core/weighted.h) override it since they depend on the
  /// actual elements, not just counts.
  virtual bool Evaluate(std::span<const ElementId> r,
                        std::span<const ElementId> s) const;

  /// Evaluates the predicate on set `a` of `r` and set `b` of `s` — the
  /// call Verify makes per candidate. The default is
  /// Evaluate(r.set(a), s.set(b)); a predicate over records the sets
  /// only stand in for (the string join's edit-distance check,
  /// core/string_join.cc) overrides it to look the records up by id.
  virtual bool EvaluatePair(const SetCollection& r, SetId a,
                            const SetCollection& s, SetId b) const;

  /// Section 6 hook 1: sizes |s| that can possibly join with a set of size
  /// `size_r`, capped to [0, max_size]. Returns nullopt when no size in the
  /// cap is joinable. Derived from MinOverlap feasibility; concrete
  /// predicates may override with tighter closed forms.
  virtual std::optional<SizeRange> JoinableSizes(uint32_t size_r,
                                                 uint32_t max_size) const;

  /// Section 6 hook 2: an upper bound on Hd(r, s) over all joinable pairs
  /// with the given sizes, or nullopt if the sizes cannot join at all.
  std::optional<uint32_t> MaxHamming(uint32_t size_r, uint32_t size_s) const;

  /// Max of MaxHamming over all joinable size pairs within [lo, hi] on
  /// both sides — the hamming threshold the general join (Section 6) uses
  /// for one size-interval instance. nullopt if nothing joins.
  std::optional<uint32_t> MaxHammingForSizeRange(uint32_t lo,
                                                 uint32_t hi) const;
};

/// Jaccard threshold predicate: Js(r,s) = |r∩s| / |r∪s| >= gamma
/// (Section 2.3). Equivalent overlap form:
///   |r∩s| >= gamma/(1+gamma) * (|r| + |s|).
class JaccardPredicate final : public Predicate {
 public:
  /// gamma must be in (0, 1].
  explicit JaccardPredicate(double gamma);

  std::string Name() const override;
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override;
  bool Matches(uint32_t size_r, uint32_t size_s,
               uint32_t overlap) const override;
  std::optional<SizeRange> JoinableSizes(uint32_t size_r,
                                         uint32_t max_size) const override;

  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// Hamming threshold predicate: Hd(r,s) <= k (Section 2.2). Equivalent
/// overlap form: |r∩s| >= (|r| + |s| - k) / 2.
class HammingPredicate final : public Predicate {
 public:
  explicit HammingPredicate(uint32_t k);

  std::string Name() const override;
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override;
  bool Matches(uint32_t size_r, uint32_t size_s,
               uint32_t overlap) const override;
  std::optional<SizeRange> JoinableSizes(uint32_t size_r,
                                         uint32_t max_size) const override;

  uint32_t k() const { return k_; }

 private:
  uint32_t k_;
};

/// Absolute-intersection predicate: |r∩s| >= t (the paper's introductory
/// example). Note Section 6 calls this out as having no finite joinable
/// size range in principle; our derived hooks cap it at the observed
/// max_size, which keeps the general join complete but unselective.
class OverlapPredicate final : public Predicate {
 public:
  explicit OverlapPredicate(uint32_t t);

  std::string Name() const override;
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override;

  uint32_t t() const { return t_; }

 private:
  uint32_t t_;
};

/// The Section 6 worked example: |r∩s| >= gamma * max(|r|, |s|).
class MaxFractionPredicate final : public Predicate {
 public:
  explicit MaxFractionPredicate(double gamma);

  std::string Name() const override;
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override;

  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// The smallest intersection any joinable partner can have with a set of
/// size `size` (min of MinOverlap over the joinable partner sizes up to
/// max_size). Infinity when nothing can join; < 1 when some partner could
/// join with an empty intersection. This is the per-size overlap threshold
/// behind prefix filtering and Probe-Count's list pruning.
double MinRequiredOverlapForSize(const Predicate& predicate, uint32_t size,
                                 uint32_t max_size);

/// Partitions [1, max_size] into contiguous size intervals I_i = [l_i, r_i]
/// such that any two joinable sizes fall in the same or adjacent intervals
/// (the Section 5 construction generalized to any predicate with symmetric,
/// monotone JoinableSizes): r_i = max(l_i, JoinableSizes(l_i).hi). This is
/// the shared machinery behind size-based filtering, which the paper notes
/// "can be combined with any other signature scheme" (end of Section 5).
std::vector<SizeRange> BuildJoinableSizeIntervals(const Predicate& predicate,
                                                  uint32_t max_size);

/// One conjunct of the general class: |r∩s| >= c0 + cr*|r| + cs*|s|.
struct LinearOverlapTerm {
  double c0 = 0;
  double cr = 0;
  double cs = 0;
  double Value(uint32_t size_r, uint32_t size_s) const {
    return c0 + cr * size_r + cs * size_s;
  }
};

/// The paper's full predicate class: AND_i (|r∩s| >= e_i) with each e_i a
/// linear expression in |r| and |s| (Section 2). MinOverlap is the max of
/// the terms; the Section 6 hooks come from the base-class derivation.
class ConjunctivePredicate final : public Predicate {
 public:
  explicit ConjunctivePredicate(std::vector<LinearOverlapTerm> terms,
                                std::string name = "conjunctive");

  std::string Name() const override;
  double MinOverlap(uint32_t size_r, uint32_t size_s) const override;

  const std::vector<LinearOverlapTerm>& terms() const { return terms_; }

 private:
  std::vector<LinearOverlapTerm> terms_;
  std::string name_;
};

}  // namespace ssjoin
