/// \file pg_mine.cpp
/// Analyst-side companion to pg_publish: load a PG release from files
/// (codes CSV + recoding sidecar), train the perturbation-aware decision
/// tree and — when given the labelled evaluation data — report its
/// classification error. Demonstrates that a release is fully
/// minable without the publisher's in-memory state.
///
/// Usage:
///   pg_mine <codes.csv> <recoding.txt> --p <retention> --us <|U^s|>
///     [--categories 0,25] [--nominal 0,1,0,...]
///     [--eval <microdata.csv> --schema SPEC]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pgpub.h"

using namespace pgpub;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "pg_mine: %s\n", message.c_str());
  return 2;
}

Result<std::vector<int32_t>> ParseIntList(const std::string& spec) {
  std::vector<int32_t> out;
  for (const std::string& field : Split(spec, ',')) {
    ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
    out.push_back(static_cast<int32_t>(v));
  }
  return out;
}

Result<Schema> ParseSchema(const std::string& spec) {
  Schema schema;
  for (const std::string& field : Split(spec, ',')) {
    std::vector<std::string> parts = Split(std::string(Trim(field)), ':');
    if (parts.size() != 3) {
      return Status::InvalidArgument("bad attribute spec: " + field);
    }
    Attribute attr;
    attr.name = parts[0];
    attr.type = ToLower(parts[1]) == "numeric" ? AttributeType::kNumeric
                                               : AttributeType::kCategorical;
    const std::string role = ToLower(parts[2]);
    attr.role = role == "qi" ? AttributeRole::kQuasiIdentifier
                             : (role == "sensitive" ? AttributeRole::kSensitive
                                                    : AttributeRole::kRegular);
    schema.AddAttribute(std::move(attr));
  }
  return schema;
}

}  // namespace

int main(int argc, char** argv) {
  std::string codes_path, recoding_path, eval_path, schema_spec;
  std::string categories_spec = "0,25";
  std::string nominal_spec;
  double p = -1.0;
  int us = 50;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--p") {
      const char* v = next();
      if (!v) return Fail("--p needs a value");
      p = std::atof(v);
    } else if (arg == "--us") {
      const char* v = next();
      if (!v) return Fail("--us needs a value");
      us = std::atoi(v);
    } else if (arg == "--categories") {
      const char* v = next();
      if (!v) return Fail("--categories needs a value");
      categories_spec = v;
    } else if (arg == "--nominal") {
      const char* v = next();
      if (!v) return Fail("--nominal needs a value");
      nominal_spec = v;
    } else if (arg == "--eval") {
      const char* v = next();
      if (!v) return Fail("--eval needs a value");
      eval_path = v;
    } else if (arg == "--schema") {
      const char* v = next();
      if (!v) return Fail("--schema needs a value");
      schema_spec = v;
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag: " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2 || p < 0.0) {
    std::fprintf(
        stderr,
        "usage: %s <codes.csv> <recoding.txt> --p P [--us N] "
        "[--categories 0,25] [--nominal 0,1,...] [--eval data.csv "
        "--schema SPEC]\n",
        argv[0]);
    return 2;
  }
  codes_path = positional[0];
  recoding_path = positional[1];

  auto recoding = LoadRecoding(recoding_path);
  if (!recoding.ok()) return Fail(recoding.status().ToString());

  auto category_starts = ParseIntList(categories_spec);
  if (!category_starts.ok()) return Fail(category_starts.status().ToString());
  CategoryMap categories(*category_starts, us);

  std::vector<bool> nominal(recoding->qi_attrs.size(), false);
  if (!nominal_spec.empty()) {
    auto flags = ParseIntList(nominal_spec);
    if (!flags.ok()) return Fail(flags.status().ToString());
    if (flags->size() != nominal.size()) {
      return Fail("--nominal needs one flag per QI attribute");
    }
    for (size_t i = 0; i < nominal.size(); ++i) nominal[i] = (*flags)[i] != 0;
  }

  auto dataset =
      LoadPublishedDataset(codes_path, *recoding, categories, nominal);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  std::printf("loaded %zu published tuples (%zu QI attributes, m = %d)\n",
              dataset->num_rows(), dataset->attributes.size(),
              categories.num_categories());

  Reconstructor reconstructor(p, categories.Weights());
  TreeOptions tree_options;
  tree_options.reconstructor = &reconstructor;
  tree_options.min_leaf_rows =
      std::max<size_t>(20, static_cast<size_t>(1.2 / (p * p)));
  tree_options.min_split_rows = 2 * tree_options.min_leaf_rows;
  tree_options.significance_chi2 = 10.0;
  auto tree = DecisionTree::Train(*dataset, tree_options);
  if (!tree.ok()) return Fail(tree.status().ToString());
  std::printf("decision tree: %zu nodes, depth %d\n", tree->num_nodes(),
              tree->depth());

  if (eval_path.empty()) {
    std::printf("(no --eval data given; trained tree only)\n");
    return 0;
  }
  if (schema_spec.empty()) return Fail("--eval needs --schema");
  auto schema = ParseSchema(schema_spec);
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto table = LoadCsv(eval_path, *schema);
  if (!table.ok()) return Fail(table.status().ToString());
  auto sens = table->schema().SensitiveIndex();
  if (!sens.ok()) return Fail(sens.status().ToString());

  const std::vector<int> qi = table->schema().QiIndices();
  if (qi.size() != recoding->qi_attrs.size()) {
    return Fail("evaluation schema QI count does not match the recoding");
  }
  std::vector<int32_t> truth = categories.Map(table->column(*sens));
  EvalResult tree_eval = EvaluateTree(*tree, *table, qi, truth);
  std::printf("evaluated on %zu rows:\n", table->num_rows());
  std::printf("  decision tree error : %.4f\n", tree_eval.error());
  std::printf("  majority floor      : %.4f\n",
              MajorityBaselineError(truth, categories.num_categories()));
  return 0;
}
