#include "datasets/wikipedia.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/agg_expr.h"

namespace prox {

namespace {

const char* const kUserNames[] = {
    "SalubriousToxin", "Dubulge",      "DrBackInTheStreet", "JasperPunk",
    "Ebyabe",          "Smalljim",     "QuietCartographer", "VelvetLlama",
    "PixelMonk",       "RiverWarden",  "MossyKeyboard",     "OrbitFox",
    "InkedBadger",     "SolarRaven",   "PaperLantern",      "CobaltOtter",
    "DustyAtlas",      "MirrorFinch",  "HollowReed",        "BrassComet",
    "WanderingNoun",   "SilentVerb",   "CrispAutumn",       "NeonGlacier",
    "MarbleSwift",     "TangledWire",  "AmberSentry",       "FrostedPeak",
    "LunarHarbor",     "GingerSpruce"};

struct ConceptSpec {
  const char* name;
  const char* parent;
};

/// A WordNet-flavoured class backbone (cf. the <wordnet_singer> /
/// <wordnet_guitarist> concepts of Example 5.2.1).
const ConceptSpec kConcepts[] = {
    {"wordnet_entity", nullptr},
    {"wordnet_person", "wordnet_entity"},
    {"wordnet_artist", "wordnet_person"},
    {"wordnet_singer", "wordnet_artist"},
    {"wordnet_guitarist", "wordnet_artist"},
    {"wordnet_scientist", "wordnet_person"},
    {"wordnet_physicist", "wordnet_scientist"},
    {"wordnet_chemist", "wordnet_scientist"},
    {"wordnet_location", "wordnet_entity"},
    {"wordnet_city", "wordnet_location"},
    {"wordnet_country", "wordnet_location"},
    {"wordnet_work", "wordnet_entity"},
    {"wordnet_book", "wordnet_work"},
    {"wordnet_film", "wordnet_work"},
};

/// Leaf concepts pages can denote.
const char* const kLeafConcepts[] = {
    "wordnet_singer", "wordnet_guitarist", "wordnet_physicist",
    "wordnet_chemist", "wordnet_city",     "wordnet_country",
    "wordnet_book",    "wordnet_film"};

const char* const kPageStems[] = {
    "Adele",        "CelineDion",  "LoriBlack",   "AlecBaillie",
    "MarieCurie",   "NielsBohr",   "RosalindF",   "LinusP",
    "Lisbon",       "Kyoto",       "Andorra",     "Bhutan",
    "Dune",         "Solaris",     "Metropolis",  "Stalker",
    "EmmyNoether",  "JoanBaez",    "MilesD",      "Reykjavik"};

}  // namespace

Dataset WikipediaGenerator::Generate(const WikipediaConfig& config) {
  Rng rng(config.seed);
  Dataset ds;
  ds.registry = std::make_unique<AnnotationRegistry>();
  ds.ctx.registry = ds.registry.get();
  ds.agg = AggKind::kSum;  // Table 5.1: SUM over edit types
  ds.phi.fallback = PhiKind::kOr;

  DomainId user_domain = ds.registry->AddDomain("wiki_user");
  DomainId page_domain = ds.registry->AddDomain("page");
  ds.domains["wiki_user"] = user_domain;
  ds.domains["page"] = page_domain;

  // --- Taxonomy (YAGO/WordNet substitute). --------------------------------
  Taxonomy tax;
  for (const auto& spec : kConcepts) {
    if (spec.parent == nullptr) {
      tax.AddRoot(spec.name);
    } else {
      tax.AddConcept(spec.name, tax.Find(spec.parent).MoveValue())
          .MoveValue();
    }
  }

  // --- Users table: IsRegistered, Gender, ContributionLevel. --------------
  EntityTable users("WikiUsers");
  AttrId reg_attr = users.AddAttribute("IsRegistered");
  AttrId gender_attr = users.AddAttribute("Gender");
  AttrId level_attr = users.AddAttribute("ContributionLevel");
  std::vector<AnnotationId> user_anns;
  std::vector<int> user_level;  // 0=Reviewer, 1=Contributor, 2=TopContributor
  const char* const kLevels[] = {"Reviewer", "Contributor", "TopContributor"};
  for (int u = 0; u < config.num_users; ++u) {
    int level = static_cast<int>(rng.PickIndex(3));
    bool registered = level > 0 || rng.Bernoulli(0.6);
    const char* gender = rng.Bernoulli(0.5) ? "Male" : "Female";
    uint32_t row =
        users
            .AddRow({registered ? "Registered" : "Anonymous", gender,
                     kLevels[level]})
            .MoveValue();
    std::string name = u < 30 ? kUserNames[u] : "Wikian" + std::to_string(u);
    while (ds.registry->Find(name).ok()) name += "_";
    AnnotationId ann = ds.registry->Add(user_domain, name, row).MoveValue();
    user_anns.push_back(ann);
    user_level.push_back(level);
  }

  // --- Pages, each denoting a leaf concept. -------------------------------
  std::vector<AnnotationId> page_anns;
  for (int p = 0; p < config.num_pages; ++p) {
    std::string leaf = kLeafConcepts[rng.PickIndex(8)];
    std::string title = p < 20 ? kPageStems[p]
                               : "Page" + std::to_string(p);
    while (ds.registry->Find(title).ok()) title += "_";
    AnnotationId ann =
        ds.registry->Add(page_domain, title, kNoEntity).MoveValue();
    page_anns.push_back(ann);
    ds.ctx.concept_of[ann] = tax.Find(leaf).MoveValue();
  }

  // --- Edits → provenance (SUM of edit types per page). -------------------
  ZipfSampler page_pop(static_cast<size_t>(config.num_pages),
                       config.zipf_skew);
  auto expr = std::make_unique<ir::IrAggregateExpression>(
      AggKind::kSum, std::make_shared<ir::TermPool>());
  for (int u = 0; u < config.num_users; ++u) {
    int count = std::max<int64_t>(
        1, config.edits_per_user + rng.UniformRange(-1, 1));
    std::set<size_t> edited;
    for (int e = 0; e < count; ++e) {
      size_t p = page_pop.Sample(&rng);
      if (!edited.insert(p).second) continue;
      // Top contributors make major edits more often.
      double major_prob = 0.3 + 0.25 * user_level[u];
      double edit_type = rng.Bernoulli(major_prob) ? 1.0 : 0.0;
      expr->AddTerm(Monomial({user_anns[u], page_anns[p]}), page_anns[p],
                    AggValue{edit_type, 1.0});

      ds.features[user_domain][user_anns[u]][page_anns[p]] = edit_type;
      ds.features[page_domain][page_anns[p]][user_anns[u]] = edit_type;
    }
  }
  expr->Canonicalize();
  ds.provenance = std::move(expr);

  // --- Constraints, valuations, VAL-FUNC per Table 5.1. -------------------
  ds.constraints.SetRule(user_domain,
                         std::make_unique<SharedAttributeRule>(
                             std::vector<AttrId>{reg_attr, gender_attr,
                                                 level_attr}));
  ds.constraints.SetRule(page_domain,
                         std::make_unique<TaxonomyAncestorRule>());

  ds.ctx.tables.emplace(user_domain, std::move(users));
  ds.ctx.taxonomy = std::move(tax);

  ds.valuation_class = std::make_unique<CancelSingleAnnotation>(
      std::vector<DomainId>{}, /*taxonomy_consistent=*/true);
  ds.val_func = std::make_unique<EuclideanValFunc>();
  return ds;
}

}  // namespace prox
