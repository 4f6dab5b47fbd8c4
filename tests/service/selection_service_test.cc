#include "service/selection_service.h"

#include <gtest/gtest.h>

#include "datasets/movielens.h"
#include "ir/agg_expr.h"

namespace prox {
namespace {

Dataset SmallMovies() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 6;
  return MovieLensGenerator::Generate(config);
}

TEST(SelectionServiceTest, ListTitlesSortedAndComplete) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  auto titles = svc.ListTitles();
  EXPECT_EQ(titles.size(), 6u);
  EXPECT_TRUE(std::is_sorted(titles.begin(), titles.end()));
}

TEST(SelectionServiceTest, SearchIsCaseInsensitiveSubstring) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  auto all = svc.ListTitles();
  ASSERT_FALSE(all.empty());
  // Search for a lowercase fragment of the first title.
  std::string fragment = all[0].substr(0, 4);
  for (auto& c : fragment) c = std::tolower(c);
  auto hits = svc.SearchTitles(fragment);
  EXPECT_FALSE(hits.empty());
  EXPECT_NE(std::find(hits.begin(), hits.end(), all[0]), hits.end());
}

TEST(SelectionServiceTest, SelectByTitleKeepsOnlyThatMovie) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  auto titles = svc.ListTitles();
  SelectionCriteria criteria;
  criteria.titles = {titles[0]};
  auto selected = svc.Select(criteria);
  ASSERT_TRUE(selected.ok());
  const auto* agg =
      dynamic_cast<const ir::IrAggregateExpression*>(selected.value().get());
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->Groups().size(), 1u);
  EXPECT_EQ(ds.registry->name(agg->Groups()[0]), titles[0]);
  EXPECT_LT(selected.value()->Size(), ds.provenance->Size());
}

TEST(SelectionServiceTest, SelectByGenre) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  const EntityTable* movies = ds.ctx.TableFor(ds.domain("movie"));
  AttrId genre_attr = movies->FindAttribute("Genre").MoveValue();
  // Pick the first movie's genre and expect all returned groups to match.
  AnnotationId first =
      ds.registry->AnnotationsInDomain(ds.domain("movie"))[0];
  std::string genre =
      movies->ValueNameOf(ds.registry->entity_row(first), genre_attr);
  SelectionCriteria criteria;
  criteria.genres = {genre};
  auto selected = svc.Select(criteria);
  ASSERT_TRUE(selected.ok());
  const auto* agg =
      dynamic_cast<const ir::IrAggregateExpression*>(selected.value().get());
  for (AnnotationId g : agg->Groups()) {
    EXPECT_EQ(movies->ValueNameOf(ds.registry->entity_row(g), genre_attr),
              genre);
  }
}

TEST(SelectionServiceTest, SelectByYear) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  const EntityTable* movies = ds.ctx.TableFor(ds.domain("movie"));
  AttrId year_attr = movies->FindAttribute("Year").MoveValue();
  AnnotationId first =
      ds.registry->AnnotationsInDomain(ds.domain("movie"))[0];
  int year = std::stoi(
      movies->ValueNameOf(ds.registry->entity_row(first), year_attr));
  SelectionCriteria criteria;
  criteria.year = year;
  auto selected = svc.Select(criteria);
  ASSERT_TRUE(selected.ok());
  const auto* agg =
      dynamic_cast<const ir::IrAggregateExpression*>(selected.value().get());
  for (AnnotationId g : agg->Groups()) {
    EXPECT_EQ(movies->ValueNameOf(ds.registry->entity_row(g), year_attr),
              std::to_string(year));
  }
}

TEST(SelectionServiceTest, UnknownTitleIsError) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  SelectionCriteria criteria;
  criteria.titles = {"No Such Movie (1900)"};
  EXPECT_EQ(svc.Select(criteria).status().code(), StatusCode::kNotFound);
}

TEST(SelectionServiceTest, EmptyMatchIsError) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  SelectionCriteria criteria;
  criteria.year = 1800;
  EXPECT_EQ(svc.Select(criteria).status().code(), StatusCode::kNotFound);
}

TEST(SelectionServiceTest, EmptyCriteriaSelectsEverything) {
  Dataset ds = SmallMovies();
  SelectionService svc(&ds);
  auto selected = svc.Select(SelectionCriteria{});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value()->Size(), ds.provenance->Size());
}

}  // namespace
}  // namespace prox
