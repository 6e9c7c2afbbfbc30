#include "xsp/trace/span.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace xsp::trace {
namespace {

TEST(Span, DurationIsEndMinusBegin) {
  Span s;
  s.begin = us(10);
  s.end = us(35);
  EXPECT_EQ(s.duration(), us(25));
}

TEST(Span, DurationSaturatesInsteadOfOverflowing) {
  // A decoded span may carry any two times; end - begin must not overflow.
  constexpr Ns kMin = std::numeric_limits<Ns>::min();
  constexpr Ns kMax = std::numeric_limits<Ns>::max();
  Span s;
  s.begin = kMin + 5;
  s.end = 10;
  EXPECT_EQ(s.duration(), kMax);
  s.begin = kMax;
  s.end = -2;
  EXPECT_EQ(s.duration(), kMin);
  // Differences that fit are exact, up to the edges.
  s.begin = kMin;
  s.end = -1;
  EXPECT_EQ(s.duration(), kMax);
  s.begin = 0;
  s.end = kMin;
  EXPECT_EQ(s.duration(), kMin);
  s.begin = 7;
  s.end = 3;
  EXPECT_EQ(s.duration(), -4);
}

TEST(Span, DefaultsAreEmpty) {
  Span s;
  EXPECT_EQ(s.id, kNoSpan);
  EXPECT_EQ(s.parent, kNoSpan);
  EXPECT_EQ(s.kind, SpanKind::kRegular);
  EXPECT_EQ(s.correlation_id, 0u);
  EXPECT_TRUE(s.tags.empty());
  EXPECT_TRUE(s.metrics.empty());
}

TEST(Span, LevelNamesMatchPaperNumbering) {
  EXPECT_STREQ(level_name(kModelLevel), "model");
  EXPECT_STREQ(level_name(kLayerLevel), "layer");
  EXPECT_STREQ(level_name(kLibraryLevel), "library");
  EXPECT_STREQ(level_name(kKernelLevel), "gpu_kernel");
  EXPECT_STREQ(level_name(kApplicationLevel), "application");
  EXPECT_STREQ(level_name(42), "custom");
}

TEST(Span, KindNames) {
  EXPECT_STREQ(kind_name(SpanKind::kRegular), "regular");
  EXPECT_STREQ(kind_name(SpanKind::kLaunch), "launch");
  EXPECT_STREQ(kind_name(SpanKind::kExecution), "execution");
}

TEST(Span, LevelsAreOrderedTopDown) {
  // Parent reconstruction relies on "one level higher" meaning level - 1,
  // with absent levels skipped. The ML-library level (Section III-E) sits
  // between layer and kernel.
  EXPECT_EQ(kModelLevel, kApplicationLevel + 1);
  EXPECT_EQ(kLayerLevel, kModelLevel + 1);
  EXPECT_EQ(kLibraryLevel, kLayerLevel + 1);
  EXPECT_EQ(kKernelLevel, kLibraryLevel + 1);
}

}  // namespace
}  // namespace xsp::trace
