// Tests for the tsglint analyzer library (src/analysis/): tokenizer
// corner cases, annotation parsing (tsg:hot, tsg:mo, NOLINT), and one
// known-bad fixture per rule under tests/lint_fixtures/, each of which
// must trip exactly its own rule.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/lexer.h"

namespace tsg {
namespace lint {
namespace {

std::string readFixture(const std::string& name) {
  const std::string path =
      std::string(TSG_REPO_ROOT) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> tokenTexts(const LexResult& r) {
  std::vector<std::string> out;
  out.reserve(r.tokens.size());
  for (const Token& t : r.tokens) {
    out.push_back(t.text);
  }
  return out;
}

std::set<std::string> rulesIn(const std::vector<Diagnostic>& diags) {
  std::set<std::string> rules;
  for (const Diagnostic& d : diags) {
    rules.insert(d.rule);
  }
  return rules;
}

// Runs every per-file pass over one fixture lent the given path.
std::vector<Diagnostic> runFilePasses(const std::string& path,
                                      const std::string& content) {
  const SourceFile f = buildSourceFile(path, lex(content));
  std::vector<Diagnostic> out;
  checkTraceLiteral(f, out);
  checkNakedThread(f, out);
  checkUnseededRng(f, out);
  checkMetricName(f, out);
  checkHotPath(f, out);
  checkAtomics(f, out);
  return out;
}

// ---------------------------------------------------------------- lexer ---

TEST(Lexer, RawStringSwallowsCommentAndQuoteLookalikes) {
  const LexResult r = lex(R"SRC(auto s = R"x(// not a comment " )" )x";)SRC");
  ASSERT_TRUE(r.comments.empty());
  const auto texts = tokenTexts(r);
  ASSERT_EQ(texts.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(r.tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(texts[3], "R\"x(// not a comment \" )\" )x\"");
}

TEST(Lexer, LineSpliceJoinsTokensButKeepsPhysicalLines) {
  const LexResult r = lex("int ab\\\ncd = 1;\nint next;");
  const auto texts = tokenTexts(r);
  ASSERT_GE(texts.size(), 4u);
  EXPECT_EQ(texts[1], "abcd");  // spliced identifier
  // The token after the splice lands on physical line 2.
  EXPECT_EQ(r.tokens[2].text, "=");
  EXPECT_EQ(r.tokens[2].line, 2);
  // `next` is on physical line 3.
  EXPECT_EQ(r.tokens[6].text, "next");
  EXPECT_EQ(r.tokens[6].line, 3);
}

TEST(Lexer, SplicedLineCommentConsumesBothLines) {
  const LexResult r = lex("// comment continues \\\nint x = 1;\nint y;");
  ASSERT_EQ(r.comments.size(), 1u);
  // Everything on the spliced line belongs to the comment...
  EXPECT_NE(r.comments[0].text.find("int x"), std::string::npos);
  // ...so the only tokens are `int y ;` from line 3.
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[1].text, "y");
}

TEST(Lexer, BlockCommentsDoNotNest) {
  const LexResult r = lex("/* outer /* inner */ int x;");
  ASSERT_EQ(r.comments.size(), 1u);
  EXPECT_EQ(r.comments[0].text, "/* outer /* inner */");
  const auto texts = tokenTexts(r);
  ASSERT_EQ(texts.size(), 3u);
  EXPECT_EQ(texts[0], "int");
}

TEST(Lexer, CharLiteralsDoNotOpenStrings) {
  const LexResult r = lex("char q = '\"'; char e = '\\''; int z;");
  ASSERT_EQ(r.tokens.size(), 13u);
  EXPECT_EQ(r.tokens[3].kind, TokenKind::kChar);
  EXPECT_EQ(r.tokens[8].kind, TokenKind::kChar);
  EXPECT_EQ(r.tokens[11].text, "z");
}

TEST(Lexer, LiteralPrefixesFuseIntoOneToken) {
  const LexResult r = lex("auto a = u8\"x\"; auto b = L'c';");
  EXPECT_EQ(r.tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(r.tokens[3].text, "u8\"x\"");
  EXPECT_EQ(r.tokens[8].kind, TokenKind::kChar);
  EXPECT_EQ(r.tokens[8].text, "L'c'");
}

TEST(Lexer, PpNumbersAndFusedPunctuators) {
  const LexResult r = lex("x = 1'000'000 + 1.5e-3; p->f(); a::b;");
  const auto texts = tokenTexts(r);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "1'000'000"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "1.5e-3"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
}

TEST(Lexer, StringContentsCannotSpoofRules) {
  const LexResult r = lex("const char* s = \"std::thread in a string\";");
  for (const Token& t : r.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "thread");
    }
  }
}

// ----------------------------------------------------------- annotations ---

TEST(SourceFile, HotRegionAttachesToNextBlock) {
  const SourceFile f = buildSourceFile("src/x/a.cc", lex(R"(
// tsg:hot
void hot() { int a = 0; }
void cold() { int b = 0; }
)"));
  ASSERT_EQ(f.hot_regions.size(), 1u);
  bool saw_a = false;
  for (std::size_t i = 0; i < f.lex.tokens.size(); ++i) {
    if (f.lex.tokens[i].text == "a") {
      saw_a = true;
      EXPECT_TRUE(f.isHot(i));
    }
    if (f.lex.tokens[i].text == "b") {
      EXPECT_FALSE(f.isHot(i));
    }
  }
  EXPECT_TRUE(saw_a);
}

TEST(SourceFile, TrailingHotMarkerAttachesToSameLineBlock) {
  const SourceFile f = buildSourceFile("src/x/a.cc", lex(R"(
void f() {
  for (int i = 0; i < 3; ++i) {  // tsg:hot
    step(i);
  }
  other();
}
)"));
  ASSERT_EQ(f.hot_regions.size(), 1u);
  for (std::size_t i = 0; i < f.lex.tokens.size(); ++i) {
    if (f.lex.tokens[i].text == "step") {
      EXPECT_TRUE(f.isHot(i));
    }
    if (f.lex.tokens[i].text == "other") {
      EXPECT_FALSE(f.isHot(i));
    }
  }
}

TEST(SourceFile, NolintSuppressionsParse) {
  const SourceFile f = buildSourceFile(
      "src/x/a.cc",
      lex("int x;  // NOLINT(tsg-naked-thread, tsg-metric-name)\n"));
  ASSERT_EQ(f.suppressions.size(), 1u);
  const auto& [line, rules] = *f.suppressions.begin();
  EXPECT_EQ(line, 1);
  EXPECT_TRUE(rules.count("naked-thread"));
  EXPECT_TRUE(rules.count("metric-name"));
}

TEST(Rules, NolintSuppressesOnTheDiagnosedLine) {
  const std::string src =
      "#include <thread>\n"
      "void f() {\n"
      "  std::thread t([] {});  // NOLINT(tsg-naked-thread)\n"
      "  t.join();\n"
      "}\n";
  // The per-file pass reports; Analyzer-level filtering removes it. Emulate
  // the filter here the way Analyzer::run does.
  const SourceFile f = buildSourceFile("src/x/a.cc", lex(src));
  std::vector<Diagnostic> out;
  checkNakedThread(f, out);
  ASSERT_EQ(out.size(), 1u);
  const auto it = f.suppressions.find(out[0].line);
  ASSERT_NE(it, f.suppressions.end());
  EXPECT_TRUE(it->second.count(out[0].rule));
}

TEST(Rules, MultiLineMoTagCoversTheFollowingStatement) {
  const std::string src =
      "#include <atomic>\n"
      "std::atomic<int> g{0};\n"
      "int f() {\n"
      "  // tsg:mo(gate flag; stale reads only delay one sample and the\n"
      "  // installer's release store publishes the table first)\n"
      "  return g.load(std::memory_order_relaxed);\n"
      "}\n";
  const std::vector<Diagnostic> out = runFilePasses("src/x/a.cc", src);
  EXPECT_TRUE(out.empty()) << out[0].message;
}

// ------------------------------------------------------------- fixtures ---

TEST(Fixtures, TraceLiteralTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/trace_literal.cc", readFixture("trace_literal.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"trace-literal"});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Fixtures, NakedThreadTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/naked_thread.cc", readFixture("naked_thread.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"naked-thread"});
  EXPECT_EQ(out.size(), 1u);
}

TEST(Fixtures, UnseededRngTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/unseeded_rng.cc", readFixture("unseeded_rng.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"unseeded-rng"});
  EXPECT_EQ(out.size(), 1u);
}

TEST(Fixtures, MetricNameTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/metric_name.cc", readFixture("metric_name.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"metric-name"});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Fixtures, HotPathTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/hot_path.cc", readFixture("hot_path.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"hot-path"});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Fixtures, HotPathFlagsClockReadsOnlyInHotRegions) {
  const auto out =
      runFilePasses("src/fixture/hot_clock.cc", readFixture("hot_clock.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"hot-path"});
  ASSERT_EQ(out.size(), 2u);
  // Both from the tsg:hot function; the cold function's reads pass.
  EXPECT_EQ(out[0].line, 15);
  EXPECT_EQ(out[1].line, 16);
  EXPECT_NE(out[0].message.find("clock read (ScopedCpuTimer)"),
            std::string::npos);
  EXPECT_NE(out[1].message.find("clock read (now)"), std::string::npos);
}

TEST(Fixtures, AtomicsTripsExactlyItsRule) {
  const auto out =
      runFilePasses("src/fixture/atomics.cc", readFixture("atomics.cc"));
  EXPECT_EQ(rulesIn(out), std::set<std::string>{"atomics"});
  EXPECT_EQ(out.size(), 2u);
}

TEST(Fixtures, LayeringBackEdgeIsFlagged) {
  std::vector<SourceFile> files;
  files.push_back(buildSourceFile("src/common/layering.cc",
                                  lex(readFixture("layering.cc"))));
  // Per-file passes stay silent on this fixture.
  std::vector<Diagnostic> file_out;
  checkTraceLiteral(files[0], file_out);
  checkNakedThread(files[0], file_out);
  checkUnseededRng(files[0], file_out);
  checkMetricName(files[0], file_out);
  checkHotPath(files[0], file_out);
  checkAtomics(files[0], file_out);
  EXPECT_TRUE(file_out.empty());

  std::vector<Diagnostic> out;
  checkLayering(files, "common:\nruntime: common\n", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "layering");
  EXPECT_EQ(out[0].file, "src/common/layering.cc");
}

TEST(Fixtures, DeclaredLayerCycleIsFlagged) {
  std::vector<SourceFile> files;
  std::vector<Diagnostic> out;
  checkLayering(files, "a: b\nb: a\n", out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].rule, "layering");
  EXPECT_NE(out[0].message.find("cycle"), std::string::npos);
}

TEST(Fixtures, LockOrderCycleIsFlagged) {
  std::vector<SourceFile> files;
  files.push_back(buildSourceFile("src/fixture/lock_order.cc",
                                  lex(readFixture("lock_order.cc"))));
  std::vector<Diagnostic> file_out;
  checkHotPath(files[0], file_out);
  checkAtomics(files[0], file_out);
  EXPECT_TRUE(file_out.empty());

  std::vector<Diagnostic> out;
  checkLockOrder(files, "", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "lock-order");
  EXPECT_NE(out[0].message.find("Pair.mu_a_"), std::string::npos);
  EXPECT_NE(out[0].message.find("Pair.mu_b_"), std::string::npos);
}

TEST(Fixtures, SeedContradictionIsFlagged) {
  // An edge discovered in code that contradicts the seed order closes a
  // cycle through the seed edge.
  std::vector<SourceFile> files;
  files.push_back(buildSourceFile("src/fixture/ab.cc", lex(R"(
struct Only {
  void backward() {
    std::lock_guard b(mu_b_);
    std::lock_guard a(mu_a_);
  }
  std::mutex mu_a_;
  std::mutex mu_b_;
};
)")));
  std::vector<Diagnostic> out;
  checkLockOrder(files, "Only.mu_a_ < Only.mu_b_\n", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "lock-order");
}

// ----------------------------------------------------------- file walks ---

TEST(Analyzer, CollectFilesSkipsFixtureDirectories) {
  Analyzer analyzer(AnalyzerOptions{TSG_REPO_ROOT, "", ""});
  const auto files = analyzer.collectFiles({"tests"});
  EXPECT_FALSE(files.empty());
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
  }
}

TEST(Analyzer, ModuleDerivation) {
  EXPECT_EQ(buildSourceFile("src/runtime/cluster.cc", {}).module(), "runtime");
  EXPECT_EQ(buildSourceFile("tools/tsglint.cc", {}).module(), "tools");
  EXPECT_EQ(buildSourceFile("tests/test_x.cc", {}).module(), "tests");
}

}  // namespace
}  // namespace lint
}  // namespace tsg
