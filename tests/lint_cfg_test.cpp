// Golden block/edge-structure tests for the lint CFG builder the
// path-sensitive rules run on: branch diamonds, loop back edges, switch
// fallthrough, early co_return, continue-in-loop, constant loops without
// exit edges, and suspension block splits.
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "lint/cfg.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"

namespace {

struct Built {
  std::unique_ptr<lint::SourceFile> file;
  lint::ScopeInfo scopes;
  lint::Cfg cfg;
};

/// Builds the CFG of the first function in `text`.
Built build(std::string text) {
  Built b;
  b.file = lint::SourceFile::from_text("src/t.cpp", std::move(text));
  EXPECT_NE(b.file, nullptr);
  b.scopes = lint::analyze_scopes(b.file->tokens());
  EXPECT_FALSE(b.scopes.funcs.empty());
  b.cfg = lint::build_cfg(b.file->tokens(), b.scopes, 0);
  return b;
}

/// Index of the (first) block whose token range contains identifier `id`.
int block_of(const Built& b, std::string_view id) {
  const auto& toks = b.file->tokens();
  for (std::size_t i = 0; i < b.cfg.blocks.size(); ++i) {
    const lint::CfgBlock& blk = b.cfg.blocks[i];
    for (std::size_t t = blk.begin; t < blk.end && t < toks.size(); ++t) {
      if (toks[t].ident(id)) return static_cast<int>(i);
    }
  }
  ADD_FAILURE() << "no block covers identifier '" << id << "'";
  return -1;
}

TEST(LintCfg, IfElseDiamond) {
  const auto b = build(
      "void f(int x) {\n"
      "  pre();\n"
      "  if (x) {\n"
      "    then_arm();\n"
      "  } else {\n"
      "    else_arm();\n"
      "  }\n"
      "  join_stmt();\n"
      "}\n");
  const int pre = block_of(b, "pre");
  const int hdr = block_of(b, "x");
  const int t = block_of(b, "then_arm");
  const int e = block_of(b, "else_arm");
  const int j = block_of(b, "join_stmt");
  EXPECT_EQ(pre, b.cfg.entry);
  EXPECT_TRUE(b.cfg.has_edge(pre, hdr));
  EXPECT_TRUE(b.cfg.has_edge(hdr, t));
  EXPECT_TRUE(b.cfg.has_edge(hdr, e));
  EXPECT_TRUE(b.cfg.has_edge(t, j));
  EXPECT_TRUE(b.cfg.has_edge(e, j));
  // With an else, the condition cannot jump straight to the join.
  EXPECT_FALSE(b.cfg.has_edge(hdr, j));
  EXPECT_TRUE(b.cfg.has_edge(j, b.cfg.exit));
}

TEST(LintCfg, IfWithoutElseFallsThrough) {
  const auto b = build(
      "void f(int x) {\n"
      "  if (x) {\n"
      "    then_arm();\n"
      "  }\n"
      "  join_stmt();\n"
      "}\n");
  const int hdr = block_of(b, "x");
  const int j = block_of(b, "join_stmt");
  EXPECT_TRUE(b.cfg.has_edge(hdr, j));
  EXPECT_TRUE(b.cfg.has_edge(block_of(b, "then_arm"), j));
}

TEST(LintCfg, WhileLoopBackEdgeAndExit) {
  const auto b = build(
      "void f(int n) {\n"
      "  while (cond(n)) {\n"
      "    body_stmt();\n"
      "  }\n"
      "  tail_stmt();\n"
      "}\n");
  const int hdr = block_of(b, "cond");
  const int body = block_of(b, "body_stmt");
  const int tail = block_of(b, "tail_stmt");
  EXPECT_TRUE(b.cfg.has_edge(hdr, body));
  EXPECT_TRUE(b.cfg.has_edge(body, hdr)) << "loop back edge";
  EXPECT_TRUE(b.cfg.has_edge(hdr, tail)) << "loop exit edge";
}

TEST(LintCfg, ConstantLoopHasNoExitEdge) {
  // `while (true)` server pumps exit only through explicit co_return; a
  // fall-through edge would fake a resource-leak path that cannot happen.
  const auto b = build(
      "sim::Task f() {\n"
      "  while (true) {\n"
      "    body_stmt();\n"
      "    if (closing()) {\n"
      "      co_return;\n"
      "    }\n"
      "  }\n"
      "}\n");
  const int hdr = block_of(b, "true");
  const int ret = block_of(b, "co_return");
  for (const int s : b.cfg.block(hdr).succ) {
    EXPECT_NE(s, b.cfg.exit) << "constant loop header must not reach exit";
  }
  EXPECT_TRUE(b.cfg.has_edge(ret, b.cfg.exit));
}

TEST(LintCfg, ForInfiniteAlsoHasNoExitEdge) {
  const auto b = build(
      "void f() {\n"
      "  for (;;) {\n"
      "    body_stmt();\n"
      "  }\n"
      "}\n");
  const int body = block_of(b, "body_stmt");
  ASSERT_FALSE(b.cfg.block(body).pred.empty());
  const int hdr = b.cfg.block(body).pred.front();
  for (const int s : b.cfg.block(hdr).succ) {
    EXPECT_NE(s, b.cfg.exit);
  }
}

TEST(LintCfg, SwitchFallthroughAndBreak) {
  const auto b = build(
      "void f(int k) {\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      arm_zero();\n"
      "    case 1:\n"
      "      arm_one();\n"
      "      break;\n"
      "    default:\n"
      "      arm_def();\n"
      "  }\n"
      "  tail_stmt();\n"
      "}\n");
  const int hdr = block_of(b, "k");
  const int a0 = block_of(b, "arm_zero");
  const int a1 = block_of(b, "arm_one");
  const int ad = block_of(b, "arm_def");
  const int tail = block_of(b, "tail_stmt");
  EXPECT_TRUE(b.cfg.has_edge(hdr, a0));
  EXPECT_TRUE(b.cfg.has_edge(hdr, a1));
  EXPECT_TRUE(b.cfg.has_edge(hdr, ad));
  EXPECT_TRUE(b.cfg.has_edge(a0, a1)) << "case 0 falls through into case 1";
  EXPECT_FALSE(b.cfg.has_edge(a1, ad)) << "break does not fall through";
  // All arms drain into the join ahead of tail_stmt (break target).
  const auto reaches_tail = [&](int from) {
    for (const int s : b.cfg.block(from).succ) {
      if (s == tail || b.cfg.has_edge(s, tail)) return true;
    }
    return false;
  };
  EXPECT_TRUE(reaches_tail(a1));
  EXPECT_TRUE(reaches_tail(ad));
  // With a default arm the header cannot skip the switch entirely.
  for (const int s : b.cfg.block(hdr).succ) {
    EXPECT_NE(s, tail);
  }
}

TEST(LintCfg, EarlyCoReturnEdgesToExit) {
  const auto b = build(
      "sim::Task f(bool e) {\n"
      "  pre();\n"
      "  if (e) {\n"
      "    bail();\n"
      "    co_return;\n"
      "  }\n"
      "  tail_stmt();\n"
      "}\n");
  const int bail = block_of(b, "bail");
  const int tail = block_of(b, "tail_stmt");
  EXPECT_TRUE(b.cfg.has_edge(bail, b.cfg.exit));
  EXPECT_FALSE(b.cfg.has_edge(bail, tail)) << "co_return never falls through";
}

TEST(LintCfg, ContinueEdgesToLoopHeader) {
  const auto b = build(
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (skip(i)) {\n"
      "      continue;\n"
      "    }\n"
      "    work();\n"
      "  }\n"
      "}\n");
  const int hdr = block_of(b, "n");
  const int cont = block_of(b, "continue");
  const int work = block_of(b, "work");
  EXPECT_TRUE(b.cfg.has_edge(cont, hdr)) << "continue jumps to the header";
  EXPECT_FALSE(b.cfg.has_edge(cont, work));
  EXPECT_TRUE(b.cfg.has_edge(work, hdr));
}

TEST(LintCfg, SuspensionAnnotatesAndSplitsBlock) {
  const auto b = build(
      "sim::Task f(S s) {\n"
      "  before();\n"
      "  co_await s.delay(1);\n"
      "  after();\n"
      "}\n");
  const int susp = block_of(b, "co_await");
  const int after = block_of(b, "after");
  EXPECT_TRUE(b.cfg.block(susp).suspends);
  EXPECT_NE(susp, after) << "a suspension ends its block";
  EXPECT_TRUE(b.cfg.has_edge(susp, after));
  EXPECT_FALSE(b.cfg.block(after).suspends);
}

TEST(LintCfg, NestedLambdaBodyIsExcluded) {
  // The lambda's co_await belongs to the lambda's own CFG; the enclosing
  // function's blocks must not be marked suspending by it.
  const auto b = build(
      "void f(S s) {\n"
      "  auto inner = [](S sim) -> sim::Task {\n"
      "    co_await sim.delay(1);\n"
      "  };\n"
      "  use(inner);\n"
      "}\n");
  for (const lint::CfgBlock& blk : b.cfg.blocks) {
    EXPECT_FALSE(blk.suspends);
  }
}

TEST(LintCfg, CacheBuildsOnceAndIsStable) {
  const auto sf = lint::SourceFile::from_text(
      "src/t.cpp", "void f() { a(); }\nvoid g() { b(); }\n");
  ASSERT_NE(sf, nullptr);
  const lint::ScopeInfo scopes = lint::analyze_scopes(sf->tokens());
  ASSERT_EQ(scopes.funcs.size(), 2u);
  const lint::CfgCache cache(sf->tokens(), scopes);
  const lint::Cfg* first = &cache.get(0);
  EXPECT_EQ(first, &cache.get(0)) << "same object on repeat lookup";
  EXPECT_NE(first, &cache.get(1));
}

}  // namespace
