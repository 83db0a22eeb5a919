// Tests for pgaslint — the project's determinism & declared-effects
// static analysis (tools/pgaslint).
//
// The corpus here is the rule-by-rule contract: for every rule, one
// seeded violation the linter must catch (with the right rule name,
// line, and message) and one `pgaslint:allow(...)` suppression that
// must silence it. Plus the supporting machinery: lexer behavior
// (comments/strings never trigger rules), path scoping, the rule
// filter, and allowlist parsing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pgaslint/lint.hpp"

namespace pgaslint {
namespace {

std::vector<Finding> lint(const std::string& path, const std::string& code,
                          Options opts = {}) {
  return lintFile(path, code, opts);
}

/// The single finding of a run expected to produce exactly one.
Finding only(const std::vector<Finding>& findings) {
  EXPECT_EQ(findings.size(), 1u);
  return findings.empty() ? Finding{} : findings.front();
}

// ---------------------------------------------------------------------------
// Rule corpus: each rule catches its seeded violation
// ---------------------------------------------------------------------------

TEST(PgaslintCorpusTest, NondetRandCatchesRandomDevice) {
  const auto f = only(lint("src/util/rng.cpp",
                           "void seed() {\n"
                           "  std::random_device rd;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "nondet-rand");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("random_device"), std::string::npos);
  EXPECT_NE(f.message.find("seed-deterministic"), std::string::npos);
}

TEST(PgaslintCorpusTest, NondetRandCatchesCRand) {
  const auto f = only(lint("src/emb/workload.cpp",
                           "int draw() { return rand(); }\n"));
  EXPECT_EQ(f.rule, "nondet-rand");
  EXPECT_EQ(f.line, 1);
}

TEST(PgaslintCorpusTest, NondetClockCatchesSteadyClock) {
  const auto f = only(lint("src/sim/simulator.cpp",
                           "void tick() {\n"
                           "  auto t = std::chrono::steady_clock::now();\n"
                           "  (void)t;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "nondet-clock");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("steady_clock"), std::string::npos);
}

TEST(PgaslintCorpusTest, UnorderedIterCatchesRangeFor) {
  const auto f = only(lint("src/trace/report.cpp",
                           "void dump(const std::unordered_map<int, int>& m) "
                           "{\n"
                           "  for (const auto& kv : m) { (void)kv; }\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "unordered-iter");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("implementation-defined"), std::string::npos);
}

TEST(PgaslintCorpusTest, UnorderedIterCatchesBeginCall) {
  const auto findings = lint("src/trace/report.cpp",
                             "std::unordered_set<int> seen;\n"
                             "auto it = seen.begin();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(PgaslintCorpusTest, UnorderedKeyedAccessIsAllowed) {
  // Only the visit order is implementation-defined: find/count/[] are
  // deterministic and stay clean.
  EXPECT_TRUE(lint("src/trace/report.cpp",
                   "std::unordered_map<int, int> m;\n"
                   "int f(int k) { return m.count(k) ? m[k] : 0; }\n")
                  .empty());
}

TEST(PgaslintCorpusTest, FuncHotPathCatchesStdFunction) {
  const auto f = only(lint("src/sim/event.hpp",
                           "struct Ev {\n"
                           "  std::function<void()> cb;\n"
                           "};\n"));
  EXPECT_EQ(f.rule, "func-hot-path");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("EventFn"), std::string::npos);
}

TEST(PgaslintCorpusTest, PtrKeyOrderedCatchesPointerSet) {
  const auto f = only(lint("src/fault/injector.cpp",
                           "void dedup() {\n"
                           "  std::set<fabric::Link*> seen;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "ptr-key-ordered");
  EXPECT_EQ(f.line, 2);
  EXPECT_NE(f.message.find("allocation addresses"), std::string::npos);
}

TEST(PgaslintCorpusTest, PtrKeyOrderedCatchesPointerKeyedMap) {
  const auto f = only(lint("tests/some_test.cpp",
                           "std::map<Stream*, int> depth;\n"));
  EXPECT_EQ(f.rule, "ptr-key-ordered");
}

TEST(PgaslintCorpusTest, ValueKeyedMapIsAllowed) {
  EXPECT_TRUE(lint("src/fault/injector.cpp",
                   "std::map<int, std::string> by_id;\n"
                   "std::set<std::string> names;\n")
                  .empty());
}

TEST(PgaslintCorpusTest, KernelMemEffectsCatchesUndeclaredKernel) {
  const auto f = only(lint("src/emb/rogue.cpp",
                           "gpu::KernelDesc build() {\n"
                           "  gpu::KernelDesc desc;\n"
                           "  desc.name = \"emb_rogue_lookup\";\n"
                           "  return desc;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "kernel-mem-effects");
  EXPECT_EQ(f.line, 3);
  EXPECT_NE(f.message.find("emb_rogue_lookup"), std::string::npos);
  EXPECT_NE(f.message.find("mem_effects"), std::string::npos);
}

TEST(PgaslintCorpusTest, KernelMemEffectsHonorsPureAllowlist) {
  Options opts;
  opts.pure_kernels = {"mlp_"};
  EXPECT_TRUE(lint("src/dlrm/mlp.cpp",
                   "gpu::KernelDesc build() {\n"
                   "  gpu::KernelDesc desc;\n"
                   "  desc.name = \"mlp_bottom\";\n"
                   "  return desc;\n"
                   "}\n",
                   opts)
                  .empty());
}

TEST(PgaslintCorpusTest, KernelMemEffectsSatisfiedByDeclaration) {
  EXPECT_TRUE(lint("src/emb/rogue.cpp",
                   "gpu::KernelDesc build() {\n"
                   "  gpu::KernelDesc desc;\n"
                   "  desc.name = \"emb_rogue_lookup\";\n"
                   "  desc.mem_effects.push_back(effect);\n"
                   "  return desc;\n"
                   "}\n")
                  .empty());
}

TEST(PgaslintCorpusTest, KernelMemEffectsCoversHierStagingKernels) {
  // The hierarchical all-to-all's leader gather/scatter builders
  // (src/emb/staging_kernel.cpp) are NOT on the pure-kernels allowlist:
  // they touch the leaders' staging buffers, so a builder that forgets
  // its staging-slot effect must be flagged like any other kernel.
  const auto f = only(lint("src/emb/staging_rogue.cpp",
                           "gpu::KernelDesc build(int node) {\n"
                           "  gpu::KernelDesc desc;\n"
                           "  desc.name = \"emb_hier_gather.node\" + "
                           "std::to_string(node);\n"
                           "  return desc;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "kernel-mem-effects");
  EXPECT_NE(f.message.find("emb_hier_gather"), std::string::npos);

  EXPECT_TRUE(lint("src/emb/staging_rogue.cpp",
                   "gpu::KernelDesc build(int node) {\n"
                   "  gpu::KernelDesc desc;\n"
                   "  desc.name = \"emb_hier_scatter.node\" + "
                   "std::to_string(node);\n"
                   "  desc.mem_effects.push_back(effect);\n"
                   "  return desc;\n"
                   "}\n")
                  .empty());
}

TEST(PgaslintCorpusTest, KernelMemEffectsCoversFailoverRebuildKernel) {
  // The leader-failover staging rebuild (DESIGN.md §13) replays the
  // standby leader's staging layout as a device kernel. Its writes are
  // exactly what the exchange after it is ordered behind, so a builder
  // that drops the declared effects silently un-orders the whole
  // failover path.
  const auto f = only(lint("src/emb/staging_rogue.cpp",
                           "gpu::KernelDesc build(int node) {\n"
                           "  gpu::KernelDesc desc;\n"
                           "  desc.name = \"emb_hier_rebuild.node\" + "
                           "std::to_string(node);\n"
                           "  return desc;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "kernel-mem-effects");
  EXPECT_NE(f.message.find("emb_hier_rebuild"), std::string::npos);

  // The real builder's shape — slot effects pushed in a loop — passes.
  EXPECT_TRUE(lint("src/emb/staging_rogue.cpp",
                   "gpu::KernelDesc build(int node) {\n"
                   "  gpu::KernelDesc desc;\n"
                   "  desc.name = \"emb_hier_rebuild.node\" + "
                   "std::to_string(node);\n"
                   "  for (const auto& slot : slots) {\n"
                   "    desc.mem_effects.push_back(\n"
                   "        {device, slot, simsan::AccessKind::kWrite, "
                   "\"\"});\n"
                   "  }\n"
                   "  return desc;\n"
                   "}\n")
                  .empty());
}

TEST(PgaslintCorpusTest, KernelMemEffectsFlagsComputedName) {
  const auto f = only(lint("src/emb/rogue.cpp",
                           "gpu::KernelDesc build(const std::string& name) "
                           "{\n"
                           "  gpu::KernelDesc desc;\n"
                           "  desc.name = name;\n"
                           "  return desc;\n"
                           "}\n"));
  EXPECT_EQ(f.rule, "kernel-mem-effects");
  EXPECT_NE(f.message.find("computed name"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Suppression: every rule is silenced by pgaslint:allow(<rule>)
// ---------------------------------------------------------------------------

struct SuppressionCase {
  const char* path;
  const char* violation;  // a one-line violating statement
  const char* rule;
};

const SuppressionCase kSuppressionCorpus[] = {
    {"src/a.cpp", "std::random_device rd;", "nondet-rand"},
    {"src/a.cpp", "auto t = std::chrono::steady_clock::now();",
     "nondet-clock"},
    {"src/sim/a.cpp", "std::function<void()> f;", "func-hot-path"},
    {"src/a.cpp", "std::set<Link*> seen;", "ptr-key-ordered"},
};

TEST(PgaslintSuppressionTest, AllowOnPrecedingLineSuppresses) {
  for (const auto& c : kSuppressionCorpus) {
    const std::string code = std::string("// rationale pgaslint:allow(") +
                             c.rule + ")\n" + c.violation + "\n";
    EXPECT_TRUE(lint(c.path, code).empty()) << c.rule;
  }
}

TEST(PgaslintSuppressionTest, TrailingAllowSuppresses) {
  for (const auto& c : kSuppressionCorpus) {
    const std::string code = std::string(c.violation) +
                             "  // pgaslint:allow(" + c.rule + ")\n";
    EXPECT_TRUE(lint(c.path, code).empty()) << c.rule;
  }
}

TEST(PgaslintSuppressionTest, AllowTwoLinesAboveDoesNotSuppress) {
  for (const auto& c : kSuppressionCorpus) {
    const std::string code = std::string("// pgaslint:allow(") + c.rule +
                             ")\n// another comment line\n" + c.violation +
                             "\n";
    const auto findings = lint(c.path, code);
    ASSERT_EQ(findings.size(), 1u) << c.rule;
    EXPECT_EQ(findings[0].rule, c.rule);
    EXPECT_EQ(findings[0].line, 3);
  }
}

TEST(PgaslintSuppressionTest, AllowOfDifferentRuleDoesNotSuppress) {
  const auto findings = lint("src/a.cpp",
                             "// pgaslint:allow(nondet-clock)\n"
                             "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-rand");
}

TEST(PgaslintSuppressionTest, AllowListSuppressesSeveralRules) {
  EXPECT_TRUE(
      lint("src/a.cpp",
           "// pgaslint:allow(nondet-rand, nondet-clock)\n"
           "auto x = rand() + std::chrono::steady_clock::now()"
           ".time_since_epoch().count();\n")
          .empty());
}

TEST(PgaslintSuppressionTest, UnorderedIterSuppressibleAtIterationSite) {
  // The declaration is fine; only the iteration needs the allow.
  EXPECT_TRUE(lint("src/a.cpp",
                   "std::unordered_map<int, int> m;\n"
                   "// order feeds an order-insensitive sum:"
                   " pgaslint:allow(unordered-iter)\n"
                   "int s() { int t = 0; for (auto& kv : m) t += kv.second;"
                   " return t; }\n")
                  .empty());
}

TEST(PgaslintSuppressionTest, KernelMemEffectsSuppressibleWithRationale) {
  EXPECT_TRUE(lint("src/dlrm/rogue.cpp",
                   "gpu::KernelDesc build(const std::string& name) {\n"
                   "  gpu::KernelDesc desc;\n"
                   "  // pure compute: pgaslint:allow(kernel-mem-effects)\n"
                   "  desc.name = name;\n"
                   "  return desc;\n"
                   "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Lexer: comments and string literals never trigger rules
// ---------------------------------------------------------------------------

TEST(PgaslintLexerTest, CommentsDoNotTrigger) {
  EXPECT_TRUE(lint("src/a.cpp",
                   "// rand() and std::random_device discussed here\n"
                   "/* steady_clock in a block comment */\n"
                   "int x = 0;\n")
                  .empty());
}

TEST(PgaslintLexerTest, StringLiteralsDoNotTrigger) {
  EXPECT_TRUE(lint("src/a.cpp",
                   "const char* a = \"rand\";\n"
                   "const char* b = \"std::set<Link*> in a string\";\n"
                   "char c = 'r';\n")
                  .empty());
}

TEST(PgaslintLexerTest, EscapedQuotesStayInsideTheLiteral) {
  EXPECT_TRUE(lint("src/a.cpp",
                   "const char* a = \"quoted \\\" rand() here\";\n"
                   "int x = 1'000'000;\n")
                  .empty());
}

TEST(PgaslintLexerTest, CodeAfterACommentOnTheSameLineStillTriggers) {
  const auto findings = lint("src/a.cpp",
                             "/* setup */ std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-rand");
}

// ---------------------------------------------------------------------------
// Scoping and the rule filter
// ---------------------------------------------------------------------------

TEST(PgaslintScopeTest, RuleScopesMatchTheDocumentedDirectories) {
  EXPECT_TRUE(ruleAppliesTo("nondet-rand", "src/emb/workload.cpp"));
  EXPECT_FALSE(ruleAppliesTo("nondet-rand", "bench/bench_micro.cpp"));
  EXPECT_FALSE(ruleAppliesTo("nondet-rand", "tests/util_test.cpp"));
  EXPECT_TRUE(ruleAppliesTo("unordered-iter", "bench/bench_micro.cpp"));
  EXPECT_FALSE(ruleAppliesTo("unordered-iter", "tests/util_test.cpp"));
  EXPECT_TRUE(ruleAppliesTo("func-hot-path", "src/sim/simulator.cpp"));
  EXPECT_FALSE(ruleAppliesTo("func-hot-path", "src/gpu/stream.cpp"));
  EXPECT_TRUE(ruleAppliesTo("ptr-key-ordered", "tests/util_test.cpp"));
  EXPECT_TRUE(ruleAppliesTo("ptr-key-ordered", "tools/pgaslint/lint.cpp"));
  EXPECT_TRUE(ruleAppliesTo("kernel-mem-effects", "src/emb/rogue.cpp"));
  EXPECT_FALSE(ruleAppliesTo("kernel-mem-effects", "bench/bench_cache.cpp"));
}

TEST(PgaslintScopeTest, AbsolutePathsScopeByDirectoryComponent) {
  EXPECT_TRUE(ruleAppliesTo("nondet-rand", "/root/repo/src/emb/workload.cpp"));
  EXPECT_TRUE(ruleAppliesTo("func-hot-path", "./src/sim/event.hpp"));
}

TEST(PgaslintScopeTest, OutOfScopeFilesProduceNoFindings) {
  // Benches legitimately measure wall-clock time.
  EXPECT_TRUE(lint("bench/bench_micro.cpp",
                   "auto t0 = std::chrono::steady_clock::now();\n"
                   "int r = rand();\n")
                  .empty());
}

TEST(PgaslintScopeTest, RuleFilterRestrictsToNamedRules) {
  Options opts;
  opts.rules = {"nondet-clock"};
  const auto findings = lint("src/a.cpp",
                             "std::random_device rd;\n"
                             "auto t = std::chrono::steady_clock::now();\n",
                             opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-clock");
}

TEST(PgaslintScopeTest, FindingsAreSortedByLine) {
  const auto findings = lint("src/a.cpp",
                             "auto t = std::chrono::steady_clock::now();\n"
                             "std::random_device rd;\n"
                             "int r = rand();\n");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
}

// ---------------------------------------------------------------------------
// Rule catalogue and allowlist parsing
// ---------------------------------------------------------------------------

TEST(PgaslintCatalogueTest, SixRulesEachWithADescription) {
  const auto& rules = allRules();
  EXPECT_EQ(rules.size(), 6u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(ruleDescription(rule).empty()) << rule;
  }
  EXPECT_TRUE(ruleDescription("no-such-rule").empty());
}

TEST(PgaslintCatalogueTest, ParseAllowlistSkipsCommentsAndBlanks) {
  const auto entries = parseAllowlist(
      "# pure-compute kernels\n"
      "mlp_\n"
      "\n"
      "  interaction  # trailing comment\n"
      "emb_cache_probe\r\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], "mlp_");
  EXPECT_EQ(entries[1], "interaction");
  EXPECT_EQ(entries[2], "emb_cache_probe");
}

}  // namespace
}  // namespace pgaslint
