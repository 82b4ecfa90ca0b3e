#include "core/string_join.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "text/edit_distance.h"
#include "util/random.h"

namespace ssjoin {
namespace {

std::vector<SetPair> BruteForceEditJoin(
    const std::vector<std::string>& strings, uint32_t k) {
  std::vector<SetPair> out;
  for (uint32_t i = 0; i < strings.size(); ++i) {
    for (uint32_t j = i + 1; j < strings.size(); ++j) {
      if (WithinEditDistance(strings[i], strings[j], k)) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

TEST(StringJoinTest, HammingThresholdFormula) {
  EXPECT_EQ(QgramHammingThreshold(1, 1), 2u);
  EXPECT_EQ(QgramHammingThreshold(3, 2), 12u);
}

TEST(StringJoinTest, RejectsZeroQ) {
  StringJoinOptions options;
  options.q = 0;
  EXPECT_FALSE(StringSimilaritySelfJoin({"a", "b"}, options).ok());
}

TEST(StringJoinTest, TinyExample) {
  std::vector<std::string> strings = {"washington", "woshington",
                                      "washingtons", "seattle"};
  StringJoinOptions options;
  options.edit_threshold = 1;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, (std::vector<SetPair>{{0, 1}, {0, 2}}));
}

class StringJoinExactnessTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(StringJoinExactnessTest, PartEnumMatchesBruteForce) {
  auto [k, q] = GetParam();
  AddressOptions options;
  options.num_strings = 250;
  options.duplicate_fraction = 0.25;
  options.max_typos = 3;
  options.seed = 1000 + k * 10 + q;
  std::vector<std::string> strings = GenerateAddressStrings(options);

  StringJoinOptions join_options;
  join_options.edit_threshold = k;
  join_options.q = q;
  join_options.algorithm = StringJoinAlgorithm::kPartEnum;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  std::vector<SetPair> expected = BruteForceEditJoin(strings, k);
  EXPECT_EQ(result->pairs, expected) << "k=" << k << " q=" << q;
  EXPECT_GT(result->pairs.size(), 0u) << "vacuous test";
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, StringJoinExactnessTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(2u, 1u),
                      std::make_tuple(3u, 1u), std::make_tuple(2u, 2u),
                      std::make_tuple(1u, 3u)));

TEST(StringJoinTest, PrefixFilterMatchesBruteForce) {
  AddressOptions options;
  options.num_strings = 200;
  options.duplicate_fraction = 0.25;
  options.max_typos = 2;
  std::vector<std::string> strings = GenerateAddressStrings(options);

  StringJoinOptions join_options;
  join_options.edit_threshold = 2;
  join_options.q = 4;  // the paper's optimal range for prefix filter
  join_options.algorithm = StringJoinAlgorithm::kPrefixFilter;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, BruteForceEditJoin(strings, 2));
}

TEST(StringJoinTest, AlgorithmsAgree) {
  AddressOptions options;
  options.num_strings = 150;
  options.duplicate_fraction = 0.3;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  StringJoinOptions pen, pf;
  pen.edit_threshold = pf.edit_threshold = 2;
  pen.q = 1;
  pen.algorithm = StringJoinAlgorithm::kPartEnum;
  pf.q = 5;
  pf.algorithm = StringJoinAlgorithm::kPrefixFilter;
  auto pen_result = StringSimilaritySelfJoin(strings, pen);
  auto pf_result = StringSimilaritySelfJoin(strings, pf);
  ASSERT_TRUE(pen_result.ok());
  ASSERT_TRUE(pf_result.ok());
  EXPECT_EQ(pen_result->pairs, pf_result->pairs);
}

TEST(StringJoinTest, PartEnumShapeOverride) {
  std::vector<std::string> strings = {"abcdef", "abcdez", "zzzzzz"};
  StringJoinOptions options;
  options.edit_threshold = 1;
  PartEnumParams shape;
  shape.n1 = 1;
  shape.n2 = 6;
  options.partenum_shape = shape;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, (std::vector<SetPair>{{0, 1}}));
}

TEST(StringJoinTest, StatsPhasesPopulated) {
  AddressOptions options;
  options.num_strings = 100;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  StringJoinOptions join_options;
  join_options.edit_threshold = 1;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.signatures_r, 0u);
  EXPECT_EQ(result->stats.results + result->stats.false_positives,
            result->stats.candidates);
  // The bag-hamming bitmap pre-filter sees every candidate.
  EXPECT_EQ(result->stats.bitmap_filter_checked, result->stats.candidates);
}

}  // namespace
}  // namespace ssjoin
