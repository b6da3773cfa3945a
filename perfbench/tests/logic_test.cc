// Tests of the benchmark's own logic: the percentile rule, the seeded
// generators and the self-time arithmetic.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 900), 10u);
  EXPECT_EQ(SamplesBeyond(99, 900), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 990), 10u);
  EXPECT_EQ(SamplesBeyond(999, 990), 9u);

  EXPECT_FALSE(Percentile(Ramp(99), 900).has_value());
  ASSERT_TRUE(Percentile(Ramp(100), 900).has_value());
  EXPECT_EQ(*Percentile(Ramp(100), 900), 90.0);
}

TEST(PercentileRule, NoP99BelowThousandSamples) {
  for (size_t n : {1u, 10u, 100u, 500u, 999u}) {
    EXPECT_FALSE(Percentile(Ramp(n), 990).has_value()) << n;
  }
  ASSERT_TRUE(Percentile(Ramp(1000), 990).has_value());
  EXPECT_EQ(*Percentile(Ramp(1000), 990), 990.0);
}

TEST(PercentileRule, MedianNeedsOneSample) {
  EXPECT_FALSE(Percentile({}, 500).has_value());
  EXPECT_EQ(*Percentile({7.0}, 500), 7.0);
  EXPECT_EQ(*Percentile(Ramp(5), 500), 3.0);
  EXPECT_EQ(*Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

std::vector<std::string> Take(AdhocStream* s, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(s->Next());
  return out;
}

TEST(Generator, AdhocStreamIsDeterministicPerSeed) {
  AdhocStream a(7, 30), b(7, 30), c(8, 30);
  const std::vector<std::string> ta = Take(&a, 300);
  EXPECT_EQ(ta, Take(&b, 300));
  EXPECT_NE(ta, Take(&c, 300));
}

TEST(Generator, AdhocStreamNeverRepeatsAText) {
  AdhocStream s(3, 30);
  std::set<std::string> seen;
  size_t recursive = 0;
  for (const std::string& t : Take(&s, 5000)) {
    EXPECT_TRUE(seen.insert(t).second) << t;
    recursive += t.find("relation Influencer") != std::string::npos ? 1 : 0;
  }
  // Two texts in five are recursive variants, three are SPJ.
  EXPECT_EQ(recursive, 2000u);
}

TEST(Generator, ServeReadSetAndWritesAreDeterministic) {
  const std::vector<std::string> a = ServeReadSet(5, 200, 32);
  EXPECT_EQ(a, ServeReadSet(5, 200, 32));
  EXPECT_NE(a, ServeReadSet(6, 200, 32));
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), 32u);
  for (const std::string& t : a) {
    EXPECT_EQ(t.find("master"), std::string::npos) << t;
  }
  SeededRng r1(9), r2(9);
  for (int i = 0; i < 1000; ++i) {
    const Repoint p = NextRepoint(&r1, 200);
    const Repoint q = NextRepoint(&r2, 200);
    EXPECT_EQ(p.composer, q.composer);
    EXPECT_EQ(p.master, q.master);
    EXPECT_LT(p.master, p.composer);  // keeps the lineage graph acyclic
    EXPECT_LT(p.composer, 200u);
  }
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const Interval parent{0, 100};
  EXPECT_EQ(SelfTime(parent, {}), 100);
  EXPECT_EQ(SelfTime(parent, {{10, 30}, {50, 60}}), 70);
  // Two parallel children over the same 40ns cover it once.
  EXPECT_EQ(SelfTime(parent, {{10, 50}, {10, 50}}), 60);
  // Partial overlap: [10, 50) and [30, 70) cover [10, 70).
  EXPECT_EQ(SelfTime(parent, {{30, 70}, {10, 50}}), 40);
  // A nested child adds nothing beyond its enclosing sibling.
  EXPECT_EQ(SelfTime(parent, {{10, 90}, {20, 30}}), 20);
  // Parts outside the parent are ignored.
  EXPECT_EQ(SelfTime(parent, {{-50, 20}, {90, 200}}), 70);
}

TEST(Digest, IgnoresRowOrderAndDuplicates) {
  using rodin::Value;
  const std::vector<rodin::Row> a = {{Value::Str("x"), Value::Int(1)},
                                     {Value::Str("y"), Value::Int(2)}};
  const std::vector<rodin::Row> b = {{Value::Str("y"), Value::Int(2)},
                                     {Value::Str("x"), Value::Int(1)},
                                     {Value::Str("x"), Value::Int(1)}};
  const std::vector<rodin::Row> c = {{Value::Str("x"), Value::Int(1)}};
  EXPECT_EQ(AnswerDigest(a), AnswerDigest(b));
  EXPECT_NE(AnswerDigest(a), AnswerDigest(c));
}

}  // namespace
}  // namespace perfbench
