#include "provenance/annotation.h"

#include <gtest/gtest.h>

namespace prox {
namespace {

TEST(AnnotationRegistryTest, AddDomainIsIdempotent) {
  AnnotationRegistry reg;
  DomainId a = reg.AddDomain("user");
  DomainId b = reg.AddDomain("movie");
  DomainId c = reg.AddDomain("user");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.num_domains(), 2u);
  EXPECT_EQ(reg.domain_name(a), "user");
}

TEST(AnnotationRegistryTest, FindDomain) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("page");
  auto found = reg.FindDomain("page");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), d);
  EXPECT_EQ(reg.FindDomain("nope").status().code(), StatusCode::kNotFound);
}

TEST(AnnotationRegistryTest, AddAndLookup) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  auto a = reg.Add(d, "U1", 17);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(reg.name(a.value()), "U1");
  EXPECT_EQ(reg.domain(a.value()), d);
  EXPECT_EQ(reg.entity_row(a.value()), 17u);
  EXPECT_FALSE(reg.is_summary(a.value()));
  auto found = reg.Find("U1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), a.value());
}

TEST(AnnotationRegistryTest, RejectsDuplicateNames) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  ASSERT_TRUE(reg.Add(d, "U1").ok());
  EXPECT_EQ(reg.Add(d, "U1").status().code(), StatusCode::kAlreadyExists);
}

TEST(AnnotationRegistryTest, RejectsUnknownDomain) {
  AnnotationRegistry reg;
  EXPECT_EQ(reg.Add(5, "X").status().code(), StatusCode::kInvalidArgument);
}

TEST(AnnotationRegistryTest, SummaryAnnotationsAreFlagged) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  AnnotationId s = reg.AddSummary(d, "Female");
  EXPECT_TRUE(reg.is_summary(s));
  EXPECT_EQ(reg.name(s), "Female");
  EXPECT_EQ(reg.entity_row(s), kNoEntity);
}

TEST(AnnotationRegistryTest, SummaryNameCollisionsGetSuffix) {
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("user");
  ASSERT_TRUE(reg.Add(d, "Female").ok());
  AnnotationId s1 = reg.AddSummary(d, "Female");
  AnnotationId s2 = reg.AddSummary(d, "Female");
  EXPECT_EQ(reg.name(s1), "Female#2");
  EXPECT_EQ(reg.name(s2), "Female#3");
}

TEST(AnnotationRegistryTest, SummarySuffixesProbeOnPastTakenNames) {
  // The probe resumes from the last suffix it handed out for a name, and
  // still skips a "#k" that was registered by other means in between.
  AnnotationRegistry reg;
  DomainId d = reg.AddDomain("d");
  ASSERT_TRUE(reg.Add(d, "x").ok());
  ASSERT_TRUE(reg.Add(d, "x#3").ok());
  EXPECT_EQ(reg.name(reg.AddSummary(d, "x")), "x#2");
  EXPECT_EQ(reg.name(reg.AddSummary(d, "x")), "x#4");
  ASSERT_TRUE(reg.Add(d, "x#6").ok());
  EXPECT_EQ(reg.name(reg.AddSummary(d, "x")), "x#5");
  EXPECT_EQ(reg.name(reg.AddSummary(d, "x")), "x#7");
  // A suffixed name is a name of its own.
  EXPECT_EQ(reg.name(reg.AddSummary(d, "x#3")), "x#3#2");
  EXPECT_EQ(reg.name(reg.AddSummary(d, "y")), "y");
  EXPECT_EQ(reg.name(reg.AddSummary(d, "y")), "y#2");
  EXPECT_EQ(reg.size(), 10u);
}

TEST(AnnotationRegistryTest, AnnotationsInDomainFilters) {
  AnnotationRegistry reg;
  DomainId users = reg.AddDomain("user");
  DomainId movies = reg.AddDomain("movie");
  AnnotationId u1 = reg.Add(users, "U1").MoveValue();
  AnnotationId m1 = reg.Add(movies, "M1").MoveValue();
  AnnotationId u2 = reg.Add(users, "U2").MoveValue();
  EXPECT_EQ(reg.AnnotationsInDomain(users),
            (std::vector<AnnotationId>{u1, u2}));
  EXPECT_EQ(reg.AnnotationsInDomain(movies),
            (std::vector<AnnotationId>{m1}));
  EXPECT_EQ(reg.size(), 3u);
}

}  // namespace
}  // namespace prox
