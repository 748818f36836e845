// fslint rule-engine tests: each rule is exercised against a fixture file in
// tools/fslint/testdata/, presented to the engine under a virtual src/ path
// so src-scoped rules apply. Assertions are exact (rule, path, line) sets,
// so a heuristic regression moves a known diagnostic and fails loudly.
//
// The FaultCatalog tests are the runtime leg of the fault-point-registry
// rule: the names extracted from the real src/ tree must match the
// docs/ROBUSTNESS.md catalog AND, once armed, FaultRegistry::ListPoints().

#include "lint.h"

#include <gtest/gtest.h>

#include "lock_graph.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"

namespace fslint {
namespace {

#ifndef FS_SOURCE_DIR
#error "FS_SOURCE_DIR must point at the repository root"
#endif

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::filesystem::path Testdata() {
  return std::filesystem::path(FS_SOURCE_DIR) / "tools" / "fslint" /
         "testdata";
}

// Loads a fixture and lints it under a virtual repo path.
std::vector<Finding> LintFixture(const std::string& fixture,
                                 const std::string& virtual_path,
                                 const Options& options = Options()) {
  FileInput input{virtual_path, ReadFile(Testdata() / fixture)};
  return Lint({input}, options);
}

// (rule, path, line) triples, order-insensitive.
std::multiset<std::string> Keys(const std::vector<Finding>& findings) {
  std::multiset<std::string> out;
  for (const Finding& f : findings) {
    out.insert(f.rule + " " + f.path + ":" + std::to_string(f.line));
  }
  return out;
}

TEST(FslintRawSyncTest, FlagsRawPrimitivesAndHonorsSuppressions) {
  std::vector<Finding> findings =
      LintFixture("raw_sync.cc", "src/fixture/raw_sync.cc");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                "raw-sync src/fixture/raw_sync.cc:6",
                "raw-sync src/fixture/raw_sync.cc:9",  // lock_guard
                "raw-sync src/fixture/raw_sync.cc:9",  // its mutex argument
                // line 13 (allow above) and line 15 (allow inline): silent.
                "suppression src/fixture/raw_sync.cc:17",  // no justification
                "raw-sync src/fixture/raw_sync.cc:18",  // ...so not silenced
            }));
}

TEST(FslintRawSyncTest, RuleIsScopedToCheckedTrees) {
  // The same content outside src/tests/bench/examples (e.g. tools/) only
  // reports the unjustified suppression, which is scope-independent.
  std::vector<Finding> findings =
      LintFixture("raw_sync.cc", "tools/fixture/raw_sync.cc");
  EXPECT_EQ(Keys(findings), (std::multiset<std::string>{
                                "suppression tools/fixture/raw_sync.cc:17"}));
}

TEST(FslintLockedSuffixTest, RequiresAnnotationAndSuffixBidirectionally) {
  std::vector<Finding> findings =
      LintFixture("locked_suffix.h", "src/fixture/locked_suffix.h");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // *Locked without FS_REQUIRES:
                "locked-suffix src/fixture/locked_suffix.h:14",
                "locked-suffix src/fixture/locked_suffix.h:15",
                // FS_REQUIRES without the *Locked suffix:
                "locked-suffix src/fixture/locked_suffix.h:16",
                // lines 17/18 are properly annotated; line 20 is suppressed.
            }));
}

TEST(FslintGuardedMemberTest, FlagsUnannotatedMutableMembersOnly) {
  std::vector<Finding> findings =
      LintFixture("guarded_member.h", "src/fixture/guarded_member.h");
  // stale_ is the only member that is mutable, non-atomic, unannotated,
  // and unsuppressed; struct Plain has no mutex so stays silent.
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                "guarded-member src/fixture/guarded_member.h:20"}));
}

TEST(FslintDeterminismTest, FlagsEntropyWallClockAndBareSleeps) {
  std::vector<Finding> findings =
      LintFixture("determinism.cc", "src/fixture/determinism.cc");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                "determinism src/fixture/determinism.cc:11",  // random_device
                "determinism src/fixture/determinism.cc:12",  // rand()
                "determinism src/fixture/determinism.cc:13",  // ::time()
                "determinism src/fixture/determinism.cc:14",  // system_clock
                "determinism src/fixture/determinism.cc:15",  // sleep_for
                // line 21's sleep carries a justified allow: silent.
            }));
}

TEST(FslintDeterminismTest, RuleIsScopedToSrcOnly) {
  // Tests and benchmarks legitimately sleep and seed from entropy.
  std::vector<Finding> findings =
      LintFixture("determinism.cc", "tests/fixture/determinism.cc");
  EXPECT_EQ(Keys(findings), std::multiset<std::string>{});
}

TEST(FslintHeaderHygieneTest, FlagsNamespaceScopeUsingDirectivesInHeaders) {
  std::vector<Finding> findings =
      LintFixture("header_hygiene.h", "src/fixture/header_hygiene.h");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                "header-hygiene src/fixture/header_hygiene.h:7",
                "header-hygiene src/fixture/header_hygiene.h:10",
                // line 15 is inside a function body: allowed.
            }));
}

TEST(FslintFaultRegistryTest, FlagsDuplicatesUncataloguedAndOrphans) {
  Options options;
  options.catalog_path = "tools/fslint/testdata/fault_catalog.md";
  options.fault_catalog =
      ParseFaultCatalog(ReadFile(Testdata() / "fault_catalog.md"));
  std::vector<Finding> findings = LintFixture(
      "fault_registry.cc", "src/fixture/fault_registry.cc", options);
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // "fixture.duplicate" is declared at two sites:
                "fault-point-registry src/fixture/fault_registry.cc:9",
                "fault-point-registry src/fixture/fault_registry.cc:11",
                // "fixture.uncatalogued" is missing from the catalog:
                "fault-point-registry src/fixture/fault_registry.cc:13",
                // "fixture.orphan" is catalogued but never declared:
                "fault-point-registry tools/fslint/testdata/"
                "fault_catalog.md:9",
            }));
}

TEST(FslintFaultRegistryTest, CatalogParserReadsTheRealCatalog) {
  std::vector<CatalogEntry> catalog = ParseFaultCatalog(
      ReadFile(std::filesystem::path(FS_SOURCE_DIR) / "docs/ROBUSTNESS.md"));
  EXPECT_GE(catalog.size(), 20u);
  for (const CatalogEntry& entry : catalog) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_GT(entry.line, 0);
  }
}

TEST(FslintMetricRegistryTest, FlagsDuplicatesUncataloguedAndOrphans) {
  Options options;
  options.metric_catalog_path = "tools/fslint/testdata/metric_catalog.md";
  options.metric_catalog =
      ParseMetricCatalog(ReadFile(Testdata() / "metric_catalog.md"));
  std::vector<Finding> findings = LintFixture(
      "metric_registry.cc", "src/fixture/metric_registry.cc", options);
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // "fixture.metric.duplicate" is declared at two sites:
                "metric-name-registry src/fixture/metric_registry.cc:10",
                "metric-name-registry src/fixture/metric_registry.cc:12",
                // "fixture.span.uncatalogued" is missing from the catalog:
                "metric-name-registry src/fixture/metric_registry.cc:14",
                // "fixture.metric.orphan" / "fixture.span.orphan" are
                // catalogued but never declared:
                "metric-name-registry tools/fslint/testdata/"
                "metric_catalog.md:10",
                "metric-name-registry tools/fslint/testdata/"
                "metric_catalog.md:16",
            }));
}

TEST(FslintMetricRegistryTest, CatalogParserReadsTheRealCatalog) {
  std::vector<CatalogEntry> catalog = ParseMetricCatalog(ReadFile(
      std::filesystem::path(FS_SOURCE_DIR) / "docs/OBSERVABILITY.md"));
  EXPECT_GE(catalog.size(), 30u);
  for (const CatalogEntry& entry : catalog) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_GT(entry.line, 0);
  }
}

TEST(FslintLockCycleTest, FlagsMutualNestingAsCyclePlusUndeclaredEdges) {
  std::vector<Finding> findings =
      LintFixture("lock_cycle.cc", "src/fixture/lock_cycle.cc");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // Forward()'s second acquisition anchors the cycle witness:
                "lock-cycle src/fixture/lock_cycle.cc:13",
                // ...and each direction of the nesting is also undeclared:
                "lock-order-undeclared src/fixture/lock_cycle.cc:13",
                "lock-order-undeclared src/fixture/lock_cycle.cc:18",
            }));
}

TEST(FslintLockOrderTest, FlagsAcquisitionContradictingDeclaredOrder) {
  std::vector<Finding> findings = LintFixture(
      "lock_order_contradiction.cc", "src/fixture/lock_order_contradiction.cc");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // The observed b_ -> a_ edge closes a cycle with the
                // declared a_ -> b_ edge and contradicts it:
                "lock-cycle src/fixture/lock_order_contradiction.cc:14",
                "lock-order-contradiction "
                "src/fixture/lock_order_contradiction.cc:14",
                // dangling_'s annotation names no known mutex:
                "lock-order-contradiction "
                "src/fixture/lock_order_contradiction.cc:20",
            }));
}

TEST(FslintLockOrderTest, FlagsUndeclaredNestingDirectAndThroughCalls) {
  std::vector<Finding> findings = LintFixture(
      "lock_order_undeclared.cc", "src/fixture/lock_order_undeclared.cc");
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // Direct nesting in Nest():
                "lock-order-undeclared src/fixture/lock_order_undeclared.cc:13",
                // Outer() picks up inner_ inside Leaf(); the finding sits on
                // the call site. AcquireAudited()'s pair is suppressed.
                "lock-order-undeclared src/fixture/lock_order_undeclared.cc:33",
            }));
  for (const Finding& f : findings) {
    if (f.line == 33) {
      EXPECT_NE(f.message.find("calls Caller::Leaf"), std::string::npos)
          << f.message;
    }
  }
}

TEST(FslintLockOrderTest, LockGraphOnlyCoversSrc) {
  // The same mutual-nesting content outside src/ contributes no symbols.
  std::vector<Finding> findings =
      LintFixture("lock_cycle.cc", "tools/fixture/lock_cycle.cc");
  EXPECT_EQ(Keys(findings), std::multiset<std::string>{});
}

// ---------------------------------------------------------------------------
// Layering.
// ---------------------------------------------------------------------------

LayeringConfig RealLayeringConfig(std::vector<Finding>* config_findings) {
  return ParseLayeringConfig(
      "tools/fslint/layering.toml",
      ReadFile(std::filesystem::path(FS_SOURCE_DIR) / "tools" / "fslint" /
               "layering.toml"),
      config_findings);
}

TEST(FslintLayeringTest, FlagsIncludesClimbingTheModuleDag) {
  std::vector<Finding> config_findings;
  Options options;
  options.layering = RealLayeringConfig(&config_findings);
  EXPECT_EQ(Keys(config_findings), std::multiset<std::string>{});

  std::vector<Finding> findings = LintFixture(
      "layering_violation.cc", "src/spanner/layering_violation.cc", options);
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                // frontend/ and rtcache/ are above spanner in the DAG;
                // common/, self, system, and non-module includes pass.
                "layering src/spanner/layering_violation.cc:9",
                "layering src/spanner/layering_violation.cc:10",
            }));
}

TEST(FslintLayeringTest, FlagsFilesInUndeclaredModules) {
  std::vector<Finding> config_findings;
  Options options;
  options.layering = RealLayeringConfig(&config_findings);
  std::vector<Finding> findings = LintFixture(
      "layering_violation.cc", "src/mystery/layering_violation.cc", options);
  EXPECT_EQ(Keys(findings),
            (std::multiset<std::string>{
                "layering src/mystery/layering_violation.cc:1"}));
}

TEST(FslintLayeringTest, UnrestrictedModulesMayIncludeAnything) {
  std::vector<Finding> config_findings;
  Options options;
  options.layering = RealLayeringConfig(&config_findings);
  std::vector<Finding> findings = LintFixture(
      "layering_violation.cc", "src/sim/layering_violation.cc", options);
  EXPECT_EQ(Keys(findings), std::multiset<std::string>{});
}

TEST(FslintLayeringTest, ConfigParserRejectsMalformedAndDanglingEntries) {
  std::vector<Finding> findings;
  LayeringConfig config = ParseLayeringConfig("cfg.toml",
                                              "root = \"src\"\n"
                                              "stray = 1\n"            // 2
                                              "[module.a]\n"
                                              "deps = [\"ghost\"]\n"   // 4
                                              "[module.a]\n"           // 5
                                              "[badline\n",            // 6
                                              &findings);
  EXPECT_TRUE(config.loaded());
  EXPECT_EQ(Keys(findings), (std::multiset<std::string>{
                                "layering cfg.toml:2",  // entry outside module
                                "layering cfg.toml:3",  // dangling dep 'ghost'
                                "layering cfg.toml:5",  // duplicate module
                                "layering cfg.toml:6",  // malformed header
                            }));
}

// ---------------------------------------------------------------------------
// Whole-tree sweep: the real src/ must be clean under every pass, and the
// lock graph must contain the orders the annotations declare. This is the
// "every nested mutex pair has a declared order" cross-check.
// ---------------------------------------------------------------------------

TEST(FslintTreeSweepTest, RealSrcTreeIsCleanAndGraphMatchesAnnotations) {
  std::vector<FileInput> inputs;
  std::filesystem::path root(FS_SOURCE_DIR);
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    inputs.push_back({std::filesystem::relative(entry.path(), root)
                          .generic_string(),
                      ReadFile(entry.path())});
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const FileInput& a, const FileInput& b) {
              return a.path < b.path;
            });
  ASSERT_GE(inputs.size(), 50u);

  std::vector<Finding> config_findings;
  Options options;
  options.fault_catalog =
      ParseFaultCatalog(ReadFile(root / "docs" / "ROBUSTNESS.md"));
  options.metric_catalog =
      ParseMetricCatalog(ReadFile(root / "docs" / "OBSERVABILITY.md"));
  options.layering = RealLayeringConfig(&config_findings);
  EXPECT_EQ(Keys(config_findings), std::multiset<std::string>{});
  LockGraph graph;
  options.lock_graph_out = &graph;

  std::vector<Finding> findings = Lint(inputs, options);
  EXPECT_EQ(Keys(findings), std::multiset<std::string>{})
      << "real src/ tree must lint clean";

  // The graph reflects the seeded annotations: every observed edge is
  // sanctioned by the declared closure, and the known nestings are present.
  EXPECT_GE(graph.nodes.size(), 10u);
  std::set<std::string> want_observed{
      "Database::data_mu_ -> TimestampOracle::mu_",
      "Frontend::mu_ -> Database::data_mu_",
      "Frontend::mu_ -> IndexCatalog::mu_",
      "Frontend::mu_ -> QueryMatcher::mu_",
  };
  for (const LockEdge& e : graph.edges) {
    if (e.observed) {
      EXPECT_TRUE(e.covered) << e.from << " -> " << e.to
                             << " observed but not declared";
      want_observed.erase(e.from + " -> " + e.to);
    }
  }
  EXPECT_EQ(want_observed, std::set<std::string>{})
      << "expected nesting missing from the lock graph";

  // Determinism: the parallel scan must not depend on worker count.
  Options serial = options;
  LockGraph serial_graph;
  serial.lock_graph_out = &serial_graph;
  serial.jobs = 1;
  std::vector<Finding> serial_findings = Lint(inputs, serial);
  EXPECT_EQ(Keys(serial_findings), Keys(findings));
  EXPECT_EQ(LockGraphToJson(serial_graph), LockGraphToJson(graph));
  Options wide = options;
  wide.jobs = 8;
  EXPECT_EQ(Keys(Lint(inputs, wide)), Keys(findings));
}

// ---------------------------------------------------------------------------
// Runtime cross-check: code literals <-> docs catalog <-> FaultRegistry.
// ---------------------------------------------------------------------------

std::set<std::string> FaultPointNamesInSrc() {
  std::set<std::string> names;
  std::filesystem::path src = std::filesystem::path(FS_SOURCE_DIR) / "src";
  for (const auto& entry : std::filesystem::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    SourceFile file =
        Lex(entry.path().string(), ReadFile(entry.path()));
    for (const StringLiteral& lit : ExtractFaultPoints(file)) {
      // fslint's own uniqueness rule guarantees single declaration sites;
      // here we only need the name set.
      names.insert(lit.value);
    }
  }
  return names;
}

TEST(FaultPointCrossCheckTest, CodeCatalogAndRegistryAgree) {
  std::set<std::string> in_code = FaultPointNamesInSrc();
  ASSERT_FALSE(in_code.empty());

  std::set<std::string> in_docs;
  for (const CatalogEntry& entry : ParseFaultCatalog(ReadFile(
           std::filesystem::path(FS_SOURCE_DIR) / "docs/ROBUSTNESS.md"))) {
    in_docs.insert(entry.name);
  }
  // Bidirectional: every declared point is catalogued, every catalogued
  // point exists in code.
  EXPECT_EQ(in_code, in_docs);

  // Arming registers names the binary never executed; the registry's view
  // must then cover the whole catalog.
  firestore::FaultRegistry& registry = firestore::FaultRegistry::Global();
  for (const std::string& name : in_code) {
    firestore::FaultConfig config;
    config.probability = 0.0;  // never fires even if somehow evaluated
    registry.Arm(name, config);
  }
  registry.DisarmAll();
  std::vector<std::string> listed = registry.ListPoints();
  std::set<std::string> in_registry(listed.begin(), listed.end());
  for (const std::string& name : in_code) {
    EXPECT_TRUE(in_registry.count(name) != 0u)
        << name << " missing from FaultRegistry::ListPoints()";
  }
}

}  // namespace
}  // namespace fslint
