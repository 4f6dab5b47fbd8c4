#ifndef PROX_TESTS_IR_GOLDEN_RUN_H_
#define PROX_TESTS_IR_GOLDEN_RUN_H_

// Frozen summarizer outcomes shared by the IR and kernel golden suites.
// Each tests/ir/golden/<case>.txt holds one serial run's summary text,
// /v1/summarize body, final distance (as its IEEE-754 bit pattern) and
// final size, one "### <field>" header per value. The files are the
// reference: nothing in the build regenerates them.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "engine/codec.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {
namespace golden {

struct GoldenRun {
  std::string expression;  // summary->ToString
  std::string json;        // /v1/summarize body (groups, steps, distances)
  uint64_t final_distance_bits = 0;
  int64_t final_size = 0;
};

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Captures the four golden fields of a finished run.
inline GoldenRun Capture(const SummaryOutcome& outcome,
                         const AnnotationRegistry& registry) {
  GoldenRun run;
  run.expression = outcome.summary->ToString(registry);
  run.json = WriteJson(engine::SummaryOutcomeToJson(outcome, registry));
  run.final_distance_bits = DoubleBits(outcome.final_distance);
  run.final_size = outcome.final_size;
  return run;
}

/// Reads tests/ir/golden/<name>.txt; fails the test when it is missing or
/// lacks a field.
inline GoldenRun ReadGolden(const std::string& name) {
  const std::string path =
      std::string(PROX_IR_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::map<std::string, std::string> fields;
  std::string line, header;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      header = line.substr(4);
    } else if (!header.empty()) {
      fields[header] = line;
      header.clear();
    }
  }
  for (const char* key :
       {"expression", "json", "final_distance_bits", "final_size"}) {
    EXPECT_EQ(fields.count(key), 1u) << path << " lacks " << key;
  }
  GoldenRun run;
  run.expression = fields["expression"];
  run.json = fields["json"];
  run.final_distance_bits =
      std::strtoull(fields["final_distance_bits"].c_str(), nullptr, 16);
  run.final_size = std::strtoll(fields["final_size"].c_str(), nullptr, 10);
  return run;
}

/// Byte-for-byte comparison of a run against its golden file.
inline void ExpectMatchesGolden(const GoldenRun& run, const std::string& name) {
  const GoldenRun golden = ReadGolden(name);
  ASSERT_FALSE(golden.expression.empty());
  ASSERT_FALSE(golden.json.empty());
  EXPECT_EQ(run.expression, golden.expression);
  EXPECT_EQ(run.json, golden.json);
  EXPECT_EQ(run.final_distance_bits, golden.final_distance_bits);
  EXPECT_EQ(run.final_size, golden.final_size);
}

/// The golden cases' summarizer run: the dataset regenerated from its
/// seed/config (summarization registers summary annotations, so a dataset
/// cannot be reused across runs), six greedy steps at equal weights.
template <typename Generator, typename Config>
GoldenRun RunFamily(const Config& config, int threads) {
  Dataset ds = Generator::Generate(config);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 6;
  options.phi = ds.phi;
  options.threads = threads;
  Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                        &ds.constraints, &oracle, &valuations, options);
  return Capture(summarizer.Run().MoveValue(), *ds.registry);
}

}  // namespace golden
}  // namespace prox

#endif  // PROX_TESTS_IR_GOLDEN_RUN_H_
