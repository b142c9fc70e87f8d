// Golden tests for the whole-program layer underneath the interprocedural
// rules: cross-TU call-graph construction (definitions, arity ranges,
// receiver-type disambiguation, lambda bindings, the conservative ambiguity
// policy from callgraph.hpp), bottom-up function summaries, the
// content-hash summary cache, and the genuinely cross-file code flow that
// lint_test.cpp's fixture checks defer to here.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"
#include "lint/engine.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"
#include "lint/summary.hpp"
#include "lint/typestate.hpp"

namespace {

/// Files, scopes, and the graph built over them; the files own the text the
/// graph's string_views point into, so everything lives together.
struct Prog {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  std::vector<lint::ScopeInfo> scopes;
  lint::CallGraph graph;
};

Prog build_graph(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Prog p;
  std::vector<const lint::SourceFile*> fptrs;
  for (const auto& [rel, text] : sources) {
    p.files.push_back(lint::SourceFile::from_text(rel, text));
    EXPECT_NE(p.files.back(), nullptr);
    p.scopes.push_back(lint::analyze_scopes(p.files.back()->tokens()));
    fptrs.push_back(p.files.back().get());
  }
  p.graph = lint::CallGraph::build(fptrs, p.scopes);
  return p;
}

/// Same inputs, but runs the full summary layer on top of the graph.
struct Whole {
  Prog prog;
  std::vector<std::unique_ptr<lint::CfgCache>> cfgs;
  lint::ProgramInfo info;
};

Whole build_whole(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Whole w;
  w.prog = build_graph(sources);
  std::vector<const lint::SourceFile*> fptrs;
  std::vector<const lint::CfgCache*> cptrs;
  for (std::size_t i = 0; i < w.prog.files.size(); ++i) {
    fptrs.push_back(w.prog.files[i].get());
    w.cfgs.push_back(std::make_unique<lint::CfgCache>(
        w.prog.files[i]->tokens(), w.prog.scopes[i]));
    cptrs.push_back(w.cfgs.back().get());
  }
  w.info = lint::build_program(fptrs, w.prog.scopes, cptrs, "", nullptr);
  return w;
}

/// Def id of the unique definition named `name` (class-qualified defs match
/// on the unqualified name); fails the test when not exactly one.
int def_named(const lint::CallGraph& g, std::string_view name) {
  int found = -1;
  int count = 0;
  for (std::size_t i = 0; i < g.defs().size(); ++i) {
    if (g.defs()[i].name == name) {
      found = static_cast<int>(i);
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one def named '" << name << "'";
  return found;
}

/// The unique call site of `callee_name` in `file`; fails when absent.
const lint::CallSite* site_calling(const Prog& p, int file,
                                   std::string_view callee_name) {
  const lint::CallSite* found = nullptr;
  for (const lint::CallSite& s : p.graph.sites(file)) {
    if (s.callee_name == callee_name) {
      EXPECT_EQ(found, nullptr)
          << "more than one call to '" << callee_name << "'";
      found = &s;
    }
  }
  EXPECT_NE(found, nullptr) << "no call to '" << callee_name << "'";
  return found;
}

/// `def`'s protocol effects from the tables of rule id `rule`, each rendered
/// as "<param>:<event>,<event>..." (param -1: a named receiver).
std::vector<std::string> effects(const lint::ProgramInfo& info, int def,
                                 std::string_view rule) {
  std::vector<std::string> out;
  for (const lint::ProtocolEffect& e :
       info.summaries[static_cast<std::size_t>(def)].protocols) {
    const lint::TsProtocol& p = lint::typestate_protocols()[e.protocol];
    if (p.rule_name != rule) continue;
    std::string s = std::to_string(e.recv_param) + ":";
    for (std::size_t k = 0; k < e.events.size(); ++k) {
      if (k > 0) s += ",";
      s += std::string(p.events[static_cast<std::size_t>(e.events[k])]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

lint::ScanResult analyze_texts(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const lint::AnalyzeOptions& opts) {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  for (const auto& [rel, text] : sources) {
    files.push_back(lint::SourceFile::from_text(rel, text));
  }
  return lint::analyze(std::move(files), opts);
}

// ---------------------------------------------------------------------------
// Graph construction.

TEST(LintCallGraph, DefsCaptureArityAndKind) {
  const auto p = build_graph({{"src/a.cpp",
                               "void plain(int a, int b = 1) {\n"
                               "  use(a, b);\n"
                               "}\n"
                               "sim::Task coro() {\n"
                               "  co_return;\n"
                               "}\n"
                               "void outer() {\n"
                               "  auto bound = [](int x) { use(x); };\n"
                               "  bound(2);\n"
                               "}\n"}});
  const int plain = def_named(p.graph, "plain");
  EXPECT_EQ(p.graph.defs()[plain].arity_min, 1);
  EXPECT_EQ(p.graph.defs()[plain].arity_max, 2);
  EXPECT_FALSE(p.graph.defs()[plain].is_lambda);
  EXPECT_FALSE(p.graph.defs()[plain].returns_async);

  const int coro = def_named(p.graph, "coro");
  EXPECT_TRUE(p.graph.defs()[coro].is_coroutine);
  EXPECT_TRUE(p.graph.defs()[coro].returns_async);

  const int bound = def_named(p.graph, "bound");
  EXPECT_TRUE(p.graph.defs()[bound].is_lambda);

  // The bound-lambda call resolves through the per-file binding table.
  const lint::CallSite* call = site_calling(p, 0, "bound");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->callee, bound);
  EXPECT_EQ(call->caller, def_named(p.graph, "outer"));
}

TEST(LintCallGraph, ArityDisambiguatesOverloads) {
  const auto p = build_graph({{"src/defs.cpp",
                               "void over(int a) {\n"
                               "  one(a);\n"
                               "}\n"
                               "void over(int a, int b) {\n"
                               "  two(a, b);\n"
                               "}\n"},
                              {"src/use.cpp",
                               "void call_one(int x) {\n"
                               "  over(x);\n"
                               "}\n"
                               "void call_two(int x) {\n"
                               "  over(x, x);\n"
                               "}\n"
                               "void call_none(int x) {\n"
                               "  over(x, x, x);\n"
                               "}\n"}});
  const lint::CallSite* one = nullptr;
  const lint::CallSite* two = nullptr;
  const lint::CallSite* none = nullptr;
  for (const lint::CallSite& s : p.graph.sites(1)) {
    if (s.callee_name != "over") continue;
    if (s.args.size() == 1) one = &s;
    if (s.args.size() == 2) two = &s;
    if (s.args.size() == 3) none = &s;
  }
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  ASSERT_NE(none, nullptr);
  ASSERT_GE(one->callee, 0);
  ASSERT_GE(two->callee, 0);
  EXPECT_EQ(p.graph.defs()[one->callee].arity_max, 1);
  EXPECT_EQ(p.graph.defs()[two->callee].arity_min, 2);
  // Three arguments fit neither overload: zero candidates, unresolved.
  EXPECT_EQ(none->callee, -1);
  EXPECT_EQ(p.graph.resolved_count(), 2u + 0u);  // the two `over` calls only
  EXPECT_EQ(p.graph.call_site_count(), 3u + 2u);  // + one()/two() externals
}

TEST(LintCallGraph, ReceiverTypeFiltersCandidates) {
  const auto p = build_graph({{"src/rings.cpp",
                               "void Ring::push(int v) {\n"
                               "  ring_store(v);\n"
                               "}\n"
                               "void Rob::push(int v) {\n"
                               "  rob_store(v);\n"
                               "}\n"},
                              {"src/use.cpp",
                               // Receiver is a parameter: its declared type
                               // filters the overload set down to one.
                               "void drive(Ring& r) {\n"
                               "  r.push(1);\n"
                               "}\n"
                               // Receiver is a local: the graph does not
                               // track local declarations, two same-arity
                               // candidates survive, the site stays opaque.
                               "void local_recv() {\n"
                               "  Ring r;\n"
                               "  r.push(2);\n"
                               "}\n"}});
  const lint::CallSite* typed = nullptr;
  const lint::CallSite* untyped = nullptr;
  for (const lint::CallSite& s : p.graph.sites(1)) {
    if (s.callee_name != "push") continue;
    if (typed == nullptr) typed = &s;
    else untyped = &s;
  }
  ASSERT_NE(typed, nullptr);
  ASSERT_NE(untyped, nullptr);
  ASSERT_GE(typed->callee, 0);
  EXPECT_EQ(p.graph.defs()[typed->callee].cls, "Ring");
  EXPECT_EQ(typed->recv, "r");
  EXPECT_EQ(untyped->callee, -1);
}

TEST(LintCallGraph, LambdaBindingCollisionStaysUnresolved) {
  const std::string caller =
      "void run() {\n"
      "  auto pump = []() { tick(); };\n"
      "  pump();\n"
      "}\n";
  // Alone, the binding resolves within its own file.
  const auto solo = build_graph({{"src/a.cpp", caller}});
  const lint::CallSite* call = site_calling(solo, 0, "pump");
  ASSERT_NE(call, nullptr);
  EXPECT_GE(call->callee, 0);
  EXPECT_TRUE(solo.graph.defs()[call->callee].is_lambda);

  // A free function of the same name anywhere in the scan makes the
  // binding ambiguous; the call goes opaque instead of picking a side.
  const auto clash = build_graph(
      {{"src/a.cpp", caller}, {"src/b.cpp", "void pump() {\n  spin();\n}\n"}});
  call = site_calling(clash, 0, "pump");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->callee, -1);
}

TEST(LintCallGraph, CalleesSortedAndDeduplicated) {
  const auto p = build_graph({{"src/a.cpp",
                               "void leaf_a() {\n"
                               "  wa();\n"
                               "}\n"
                               "void leaf_b() {\n"
                               "  wb();\n"
                               "}\n"
                               "void root() {\n"
                               "  leaf_b();\n"
                               "  leaf_a();\n"
                               "  leaf_a();\n"
                               "}\n"}});
  const int root = def_named(p.graph, "root");
  const std::vector<int> expect = {def_named(p.graph, "leaf_a"),
                                   def_named(p.graph, "leaf_b")};
  EXPECT_EQ(p.graph.callees(root), expect);
}

TEST(LintCallGraph, RootIdentAndGlobMatch) {
  const auto f = lint::SourceFile::from_text("t.cpp", "&gate *p a.b f(x)");
  ASSERT_NE(f, nullptr);
  const auto& toks = f->tokens();
  // `&gate` and `*p`: one identifier behind a leading & / *.
  EXPECT_EQ(lint::root_ident(toks, {0, 2}), "gate");
  EXPECT_EQ(lint::root_ident(toks, {2, 4}), "p");
  // Anything more complex is conservatively empty.
  EXPECT_EQ(lint::root_ident(toks, {4, 7}), "");
  EXPECT_EQ(lint::root_ident(toks, {7, 11}), "");

  EXPECT_TRUE(lint::glob_match("*", "anything"));
  EXPECT_TRUE(lint::glob_match("*ring*", "tx_ring_buf"));
  EXPECT_FALSE(lint::glob_match("*ring*", "robq"));
  EXPECT_TRUE(lint::glob_match("rob_", "rob_"));
}

// ---------------------------------------------------------------------------
// Summaries.

TEST(LintSummary, PairingEffectsBottomUp) {
  const auto w = build_whole({{"src/a.cpp",
                               "void grab(Sem* gate) {\n"
                               "  gate->acquire();\n"
                               "}\n"
                               "void put_back(Sem* gate) {\n"
                               "  gate->release();\n"
                               "}\n"
                               "void probe(Sem* gate) {\n"
                               "  gate->acquire();\n"
                               "  gate->release();\n"
                               "}\n"}});
  const auto& g = w.info.graph;
  const int grab = def_named(g, "grab");
  using V = std::vector<std::string>;
  EXPECT_EQ(effects(w.info, grab, "resource-pairing"), V{"0:acquire"});
  ASSERT_EQ(w.info.summaries[grab].protocols.size(), 1u);
  EXPECT_EQ(w.info.summaries[grab].protocols[0].lines,
            std::vector<std::uint32_t>{2});
  EXPECT_EQ(effects(w.info, def_named(g, "put_back"), "resource-pairing"),
            V{"0:release"});
  // Balanced on its only path: callers splice the whole pair, so the
  // object ends where it started.
  EXPECT_EQ(effects(w.info, def_named(g, "probe"), "resource-pairing"),
            V{"0:acquire,release"});
}

TEST(LintSummary, StatusParamsAndAsyncPropagation) {
  const auto w = build_whole({{"src/a.cpp",
                               "void fill(PutStatus& st, Store* s) {\n"
                               "  st = s->put_sync(1);\n"
                               "}\n"
                               "sim::Task job() {\n"
                               "  co_return;\n"
                               "}\n"
                               "auto relay() {\n"
                               "  return job();\n"
                               "}\n"}});
  const auto& g = w.info.graph;
  // The assignment is a write of the PutStatus parameter, and nothing
  // happens to the Store as far as any protocol is concerned.
  const int fill = def_named(g, "fill");
  EXPECT_EQ(effects(w.info, fill, "unchecked-status-path"),
            std::vector<std::string>{"0:write"});
  EXPECT_EQ(w.info.summaries[fill].protocols.size(), 1u);

  // `auto relay()` declares nothing; its asyncness arrives by propagation
  // from the return site's resolved callee.
  const int relay = def_named(g, "relay");
  EXPECT_TRUE(g.defs()[relay].returns_auto);
  EXPECT_TRUE(w.info.summaries[relay].returns_async);
}

// ---------------------------------------------------------------------------
// The cross-file code flow (deferred here from lint_test.cpp, which only
// checks fixture paths within one file).

namespace {
const std::pair<std::string, std::string> kHelperFile = {
    "src/cf_helper.cpp",
    "void cf_grab(Sem* gate) {\n"
    "  gate->acquire();\n"
    "}\n"
    "void cf_put(Sem* gate) {\n"
    "  gate->release();\n"
    "}\n"};
const std::pair<std::string, std::string> kCallerFile = {
    "src/cf_caller.cpp",
    "sim::Task cf_leak(Sem* gate, bool err) {\n"
    "  cf_grab(gate);\n"
    "  if (err) {\n"
    "    co_return;\n"
    "  }\n"
    "  cf_put(gate);\n"
    "}\n"};
}  // namespace

TEST(LintCrossFile, CodeFlowStepsIntoTheCalleeFile) {
  const auto res = analyze_texts({kHelperFile, kCallerFile},
                                 {.jobs = 1, .summaries = true,
                                  .cache_path = ""});
  ASSERT_EQ(res.findings.size(), 1u);
  const lint::Finding& f = res.findings[0];
  EXPECT_EQ(f.rule, "resource-pairing");
  EXPECT_EQ(f.file, "src/cf_caller.cpp");
  EXPECT_EQ(f.line, 2u);  // anchored at the cf_grab() call, not inside it
  ASSERT_FALSE(f.path.empty());
  // One step walks the reviewer into the helper's own acquire line.
  bool into_helper = false;
  for (const lint::PathStep& s : f.path) {
    if (s.file == "src/cf_helper.cpp") {
      EXPECT_EQ(s.line, 2u);
      into_helper = true;
    }
  }
  EXPECT_TRUE(into_helper);
}

TEST(LintCrossFile, SilentWithoutSummaries) {
  const auto res = analyze_texts({kHelperFile, kCallerFile},
                                 {.jobs = 1, .summaries = false,
                                  .cache_path = ""});
  EXPECT_TRUE(res.findings.empty());
  EXPECT_FALSE(res.stats.summaries);
  EXPECT_EQ(res.stats.defs, 0u);
}

// ---------------------------------------------------------------------------
// Summary cache: keyed on per-file content hashes, invalidated by any edit.

TEST(LintSummaryCache, HitOnSameContentMissAfterEdit) {
  const std::string cache =
      ::testing::TempDir() + "snacc-lint-callgraph-test.cache";
  std::remove(cache.c_str());
  const lint::AnalyzeOptions opts{.jobs = 1, .summaries = true,
                                  .cache_path = cache};

  const auto cold = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_FALSE(cold.stats.cache_hit);
  ASSERT_EQ(cold.findings.size(), 1u);

  // Same content: the table loads instead of recomputing, findings match.
  const auto warm = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.findings, cold.findings);
  EXPECT_EQ(warm.stats.defs, cold.stats.defs);
  EXPECT_EQ(warm.stats.resolved_calls, cold.stats.resolved_calls);

  // Touch one file: the content hash changes, the cache must not serve the
  // stale table. The edit releases on the error path, so the finding is
  // gone -- a stale hit would still report it.
  auto fixed = kCallerFile;
  const std::string::size_type at = fixed.second.find("co_return;");
  ASSERT_NE(at, std::string::npos);
  fixed.second.insert(at, "cf_put(gate);\n    ");
  const auto edited = analyze_texts({kHelperFile, fixed}, opts);
  EXPECT_FALSE(edited.stats.cache_hit);
  EXPECT_TRUE(edited.findings.empty());

  std::remove(cache.c_str());
}

// The staleness case that matters for correctness: the CALLER's file is
// byte-identical, only the callee changed. The caller's finding exists
// purely through the callee's summary, so a cache keyed on anything less
// than every file's content would serve the stale table and keep (or
// miss) the finding.
TEST(LintSummaryCache, CalleeEditRecomputesCallerFacts) {
  const std::string cache =
      ::testing::TempDir() + "snacc-lint-callee-edit.cache";
  std::remove(cache.c_str());
  const lint::AnalyzeOptions opts{.jobs = 1, .summaries = true,
                                  .cache_path = cache};

  const auto cold = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_FALSE(cold.stats.cache_hit);
  ASSERT_EQ(cold.findings.size(), 1u);

  // cf_grab now releases what it acquires (a balanced probe): the caller's
  // leak is gone, with the caller file untouched.
  auto balanced = kHelperFile;
  const std::string grab = "gate->acquire();";
  const std::string::size_type at = balanced.second.find(grab);
  ASSERT_NE(at, std::string::npos);
  balanced.second.insert(at + grab.size(), "\n  gate->release();");
  const auto edited = analyze_texts({balanced, kCallerFile}, opts);
  EXPECT_FALSE(edited.stats.cache_hit);
  EXPECT_TRUE(edited.findings.empty());

  // The edited world then warms up under its own key.
  const auto warm = analyze_texts({balanced, kCallerFile}, opts);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_TRUE(warm.findings.empty());

  std::remove(cache.c_str());
}

// A corrupt or truncated cache file must behave exactly like no cache:
// recompute, report the same findings, and leave a loadable table behind.
TEST(LintSummaryCache, CorruptCacheRecovers) {
  const std::string cache = ::testing::TempDir() + "snacc-lint-corrupt.cache";
  const lint::AnalyzeOptions opts{.jobs = 1, .summaries = true,
                                  .cache_path = cache};
  const auto clean = analyze_texts({kHelperFile, kCallerFile},
                                   {.jobs = 1, .summaries = true,
                                    .cache_path = ""});

  // Garbage with a valid-looking magic line, then binary noise.
  {
    std::FILE* f = std::fopen(cache.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("snacc-lint-cache v3\n\x01\xff not a summary table\n", f);
    std::fclose(f);
  }
  const auto res = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_FALSE(res.stats.cache_hit);
  EXPECT_EQ(res.findings, clean.findings);

  // The garbage was replaced by a valid table on the way out.
  const auto warm = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.findings, clean.findings);

  // A stale-magic (older format) file is likewise recomputed, not parsed.
  {
    std::FILE* f = std::fopen(cache.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("snacc-lint-cache v1\n", f);
    std::fclose(f);
  }
  const auto old_magic = analyze_texts({kHelperFile, kCallerFile}, opts);
  EXPECT_FALSE(old_magic.stats.cache_hit);
  EXPECT_EQ(old_magic.findings, clean.findings);

  std::remove(cache.c_str());
}

// ---------------------------------------------------------------------------
// Typestate protocol effects across files, and their cache round-trip.

namespace {
const std::pair<std::string, std::string> kTsHelperFile = {
    "src/ts_cf_helper.cpp",
    "void ts_cf_shutdown(sim::Mailbox<int>& mb) {\n"
    "  mb.close();\n"
    "}\n"};
const std::pair<std::string, std::string> kTsCallerFile = {
    "src/ts_cf_caller.cpp",
    "sim::Task ts_cf_racer(sim::Mailbox<int>& mb) {\n"
    "  ts_cf_shutdown(mb);\n"
    "  mb.push(1);\n"
    "  co_return;\n"
    "}\n"};
}  // namespace

TEST(LintCrossFile, TypestateEffectStepsIntoTheCalleeFile) {
  const auto res = analyze_texts({kTsHelperFile, kTsCallerFile},
                                 {.jobs = 1, .summaries = true,
                                  .cache_path = ""});
  ASSERT_EQ(res.findings.size(), 1u);
  const lint::Finding& f = res.findings[0];
  EXPECT_EQ(f.rule, "ts-mailbox");
  EXPECT_EQ(f.file, "src/ts_cf_caller.cpp");
  EXPECT_EQ(f.line, 3u);  // the push, with the close spliced from the callee
  bool into_helper = false;
  for (const lint::PathStep& s : f.path) {
    if (s.file == "src/ts_cf_helper.cpp") {
      EXPECT_EQ(s.line, 2u);  // the close() inside ts_cf_shutdown
      into_helper = true;
    }
  }
  EXPECT_TRUE(into_helper);

  // And per the conservative degradation contract, the finding does not
  // exist without the program layer.
  const auto bare = analyze_texts({kTsHelperFile, kTsCallerFile},
                                  {.jobs = 1, .summaries = false,
                                   .cache_path = ""});
  EXPECT_TRUE(bare.findings.empty());
}

// Protocol effects survive the save/load cycle: a warm (cache-hit) scan
// reproduces the typestate finding byte-for-byte, including its cross-file
// path steps -- the "T" records carry protocol, receiver binding, event
// order and callee lines.
TEST(LintSummaryCache, TypestateEffectsRoundTripThroughCache) {
  const std::string cache = ::testing::TempDir() + "snacc-lint-ts.cache";
  std::remove(cache.c_str());
  const lint::AnalyzeOptions opts{.jobs = 1, .summaries = true,
                                  .cache_path = cache};

  const auto cold = analyze_texts({kTsHelperFile, kTsCallerFile}, opts);
  EXPECT_FALSE(cold.stats.cache_hit);
  ASSERT_EQ(cold.findings.size(), 1u);
  EXPECT_EQ(cold.findings[0].rule, "ts-mailbox");

  const auto warm = analyze_texts({kTsHelperFile, kTsCallerFile}, opts);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.findings, cold.findings);

  std::remove(cache.c_str());
}

}  // namespace
