#include "datasets/movielens.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ir/agg_expr.h"

namespace prox {

namespace {

const char* const kGenders[] = {"M", "F"};
const char* const kAgeRanges[] = {"18-24", "25-34", "35-44", "45-49", "50+"};
const char* const kOccupations[] = {
    "academic", "artist",     "clerical",  "student",  "doctor",
    "engineer", "executive",  "homemaker", "lawyer",   "tradesman"};
const char* const kGenres[] = {"Comedy", "Drama", "Action", "Romance",
                               "Sci-Fi", "Thriller"};
const char* const kTitleAdjectives[] = {"Blue",  "Silent", "Last",  "Golden",
                                        "Hidden", "Broken", "Lucky", "Wild"};
const char* const kTitleNouns[] = {"Jasmine", "Point",  "River", "Summer",
                                   "Garden",  "Letter", "Horizon", "Echo"};

}  // namespace

Dataset MovieLensGenerator::Generate(const MovieLensConfig& config) {
  Rng rng(config.seed);
  Dataset ds;
  ds.registry = std::make_unique<AnnotationRegistry>();
  ds.ctx.registry = ds.registry.get();
  ds.agg = config.agg;
  ds.phi.fallback = PhiKind::kOr;  // Table 5.1: logical OR

  DomainId user_domain = ds.registry->AddDomain("user");
  DomainId movie_domain = ds.registry->AddDomain("movie");
  DomainId year_domain = ds.registry->AddDomain("year");
  ds.domains["user"] = user_domain;
  ds.domains["movie"] = movie_domain;
  ds.domains["year"] = year_domain;
  DomainId stats_domain = 0;
  if (config.with_guards) {
    stats_domain = ds.registry->AddDomain("stats");
    ds.domains["stats"] = stats_domain;
  }

  // --- Users table: Gender, AgeRange, Occupation, ZipCode (Table 5.1). ---
  EntityTable users("Users");
  AttrId gender_attr = users.AddAttribute("Gender");
  AttrId age_attr = users.AddAttribute("AgeRange");
  AttrId occupation_attr = users.AddAttribute("Occupation");
  AttrId zip_attr = users.AddAttribute("ZipCode");
  std::vector<AnnotationId> user_anns;
  // Latent per-user bias group, derived from attributes, drives ratings.
  std::vector<double> user_bias;
  for (int u = 0; u < config.num_users; ++u) {
    int gi = static_cast<int>(rng.PickIndex(2));
    int ai = static_cast<int>(rng.PickIndex(5));
    int oi = static_cast<int>(rng.PickIndex(10));
    int zi = static_cast<int>(rng.PickIndex(12));
    uint32_t row = users
                       .AddRow({kGenders[gi], kAgeRanges[ai], kOccupations[oi],
                                "9" + std::to_string(1000 + zi)})
                       .MoveValue();
    AnnotationId ann =
        ds.registry->Add(user_domain, "UID" + std::to_string(100 + u), row)
            .MoveValue();
    user_anns.push_back(ann);
    // Same-gender/age users rate alike, giving attribute merges low cost.
    user_bias.push_back(0.8 * gi + 0.4 * ai - 1.0);
  }

  // --- Movies table: Genre, Year. Year annotations are shared. -----------
  EntityTable movies("Movies");
  AttrId genre_attr = movies.AddAttribute("Genre");
  AttrId year_attr = movies.AddAttribute("Year");
  (void)genre_attr;
  (void)year_attr;
  EntityTable years("Years");
  AttrId decade_attr = years.AddAttribute("Decade");
  (void)decade_attr;
  std::vector<AnnotationId> movie_anns;
  std::vector<AnnotationId> movie_year_ann;
  std::vector<double> movie_quality;
  std::vector<int> year_values;
  std::vector<AnnotationId> year_anns;
  for (int m = 0; m < config.num_movies; ++m) {
    int year = 1990 + static_cast<int>(rng.PickIndex(16));
    std::string genre = kGenres[rng.PickIndex(6)];
    std::string title = std::string(kTitleAdjectives[rng.PickIndex(8)]) + " " +
                        kTitleNouns[rng.PickIndex(8)] + " (" +
                        std::to_string(year) + ")";
    uint32_t row =
        movies.AddRow({genre, std::to_string(year)}).MoveValue();
    // Title collisions get a sequel suffix to keep names unique.
    while (ds.registry->Find(title).ok()) title += " II";
    AnnotationId ann = ds.registry->Add(movie_domain, title, row).MoveValue();
    movie_anns.push_back(ann);
    movie_quality.push_back(2.5 + 2.0 * rng.UniformDouble());

    // Intern the year annotation (shared across same-year movies).
    auto found = std::find(year_values.begin(), year_values.end(), year);
    AnnotationId year_ann;
    if (found == year_values.end()) {
      uint32_t year_row =
          years.AddRow({std::to_string((year / 10) * 10) + "s"}).MoveValue();
      year_ann = ds.registry
                     ->Add(year_domain, "Y" + std::to_string(year), year_row)
                     .MoveValue();
      year_values.push_back(year);
      year_anns.push_back(year_ann);
    } else {
      year_ann = year_anns[found - year_values.begin()];
    }
    movie_year_ann.push_back(year_ann);
  }

  // --- Ratings → provenance expression (Table 5.1 movie structure). ------
  ZipfSampler movie_pop(static_cast<size_t>(config.num_movies),
                        config.zipf_skew);
  auto expr = std::make_unique<ir::IrAggregateExpression>(
      config.agg, std::make_shared<ir::TermPool>());
  struct Rating {
    size_t movie;
    double score;
  };
  for (int u = 0; u < config.num_users; ++u) {
    int count = std::max<int64_t>(
        1, config.ratings_per_user + rng.UniformRange(-1, 1));
    std::set<size_t> rated;
    std::vector<Rating> user_ratings;
    for (int r = 0; r < count; ++r) {
      size_t m = movie_pop.Sample(&rng);
      if (!rated.insert(m).second) continue;  // no duplicate ratings
      double raw = movie_quality[m] + user_bias[u] + 0.8 * rng.Normal();
      double rating = std::clamp(std::round(raw), 1.0, 5.0);
      user_ratings.push_back(Rating{m, rating});

      ds.features[user_domain][user_anns[u]][movie_anns[m]] = rating;
    }
    std::optional<Guard> guard;
    if (config.with_guards) {
      // Example 2.2.1's activity guard: [S_u·U_u ⊗ NumRate > min_reviews].
      AnnotationId stats_ann =
          ds.registry
              ->Add(stats_domain, "S_" + ds.registry->name(user_anns[u]))
              .MoveValue();
      const double num_rate = static_cast<double>(user_ratings.size());
      guard = Guard(Monomial({stats_ann, user_anns[u]}), num_rate,
                    CompareOp::kGt, config.min_reviews);
    }
    for (const Rating& r : user_ratings) {
      const AnnotationId movie = movie_anns[r.movie];
      expr->AddTerm(Monomial({user_anns[u], movie, movie_year_ann[r.movie]}),
                    movie, AggValue{r.score, 1.0}, guard);
    }
  }
  expr->Canonicalize();
  ds.provenance = std::move(expr);

  // --- Constraints, valuation class and VAL-FUNC per Table 5.1. ----------
  ds.constraints.SetRule(user_domain,
                         std::make_unique<SharedAttributeRule>(
                             std::vector<AttrId>{gender_attr, age_attr,
                                                 occupation_attr, zip_attr}));
  ds.constraints.SetRule(
      movie_domain, std::make_unique<SharedAttributeRule>(
                        std::vector<AttrId>{genre_attr, year_attr}));
  ds.constraints.SetRule(year_domain,
                         std::make_unique<SharedAttributeRule>(
                             std::vector<AttrId>{decade_attr}));

  ds.ctx.tables.emplace(user_domain, std::move(users));
  ds.ctx.tables.emplace(movie_domain, std::move(movies));
  ds.ctx.tables.emplace(year_domain, std::move(years));

  if (config.attribute_valuations) {
    ds.valuation_class = std::make_unique<CancelSingleAttribute>();
  } else {
    ds.valuation_class = std::make_unique<CancelSingleAnnotation>();
  }
  ds.val_func = std::make_unique<EuclideanValFunc>();
  return ds;
}

}  // namespace prox
