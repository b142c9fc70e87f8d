// Self-tests for the snacc-lint analysis engine: golden findings over the
// fixture tree (true positives AND near-misses per rule), tokenizer
// behaviour, suppression/stale bookkeeping, SARIF output shape, and
// determinism across worker counts.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lint/engine.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "lint/source.hpp"
#include "lint/token.hpp"

namespace {

std::string fixture_src() {
  return std::string(LINT_FIXTURE_DIR) + "/src";
}

lint::ScanResult scan_fixtures(unsigned jobs = 0, bool summaries = true) {
  lint::Options opts;
  opts.roots = {fixture_src()};
  opts.jobs = jobs;
  opts.summaries = summaries;
  return lint::scan(opts);
}

std::size_t count(const std::vector<lint::Finding>& fs, std::string_view file,
                  std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(), [&](const lint::Finding& f) {
        return f.file == file && f.rule == rule;
      }));
}

bool has(const std::vector<lint::Finding>& fs, std::string_view file,
         std::string_view rule, std::uint32_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const lint::Finding& f) {
    return f.file == file && f.rule == rule && f.line == line;
  });
}

// ---------------------------------------------------------------------------
// Golden findings over the fixture tree.

TEST(LintFixtures, ScansWholeTree) {
  const auto res = scan_fixtures();
  EXPECT_TRUE(res.error.empty()) << res.error;
  EXPECT_EQ(res.files_scanned, 27u);
  EXPECT_EQ(res.findings.size(), 52u);
}

TEST(LintFixtures, GoldenPositives) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_TRUE(has(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature", 8));
  EXPECT_TRUE(has(fs, "src/nondet.cpp", "nondeterminism", 8));    // rand()
  EXPECT_TRUE(has(fs, "src/nondet.cpp", "nondeterminism", 20));   // map order
  EXPECT_TRUE(has(fs, "src/doorbell.cpp", "raw-doorbell", 8));
  EXPECT_TRUE(has(fs, "src/poll.cpp", "unbounded-poll", 13));
  EXPECT_TRUE(has(fs, "src/lambda_event.cpp", "lambda-event", 15));
  // dangling-capture: ref capture after suspend, [&] header, T&& param.
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 23));
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 31));
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 42));
  EXPECT_TRUE(has(fs, "src/async.cpp", "discarded-async", 14));
  EXPECT_TRUE(has(fs, "src/snacc/escape.cpp", "value-escape", 8));
  EXPECT_TRUE(has(fs, "src/stale.cpp", "stale-suppression", 5));
  // unchecked-put: 2-arg put, nested-comma args, replicated 2-arg write.
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-put", 14));
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-put", 15));
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-put", 16));
  // resource-pairing: early co_return, continue-skips-release, switch arm.
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 10));
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 21));
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 34));
  // use-after-move: branch leak, straight line, loop back edge.
  EXPECT_TRUE(has(fs, "src/use_move.cpp", "use-after-move", 14));
  EXPECT_TRUE(has(fs, "src/use_move.cpp", "use-after-move", 21));
  EXPECT_TRUE(has(fs, "src/use_move.cpp", "use-after-move", 29));
  // unchecked-status-path: one branch, early exit, switch default.
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 10));
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 20));
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 31));
  // cross-domain-touch: wrong-domain spawn, direct call, make_unique handoff.
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 25));
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 32));
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 38));
  // Interprocedural positives: resource pair split across helpers (branch
  // leak, continue-skips-release), status filled by-reference one call
  // deep (one branch, early exit), bound-lambda / auto-relay discards,
  // and wrapper-level domain coupling.
  EXPECT_TRUE(has(fs, "src/interproc_resource.cpp", "resource-pairing", 29));
  EXPECT_TRUE(has(fs, "src/interproc_resource.cpp", "resource-pairing", 40));
  EXPECT_TRUE(
      has(fs, "src/interproc_status.cpp", "unchecked-status-path", 26));
  EXPECT_TRUE(
      has(fs, "src/interproc_status.cpp", "unchecked-status-path", 36));
  EXPECT_TRUE(has(fs, "src/interproc_async.cpp", "discarded-async", 28));
  EXPECT_TRUE(has(fs, "src/interproc_async.cpp", "discarded-async", 32));
  EXPECT_TRUE(has(fs, "src/interproc_domain.cpp", "cross-domain-touch", 36));
  EXPECT_TRUE(has(fs, "src/interproc_domain.cpp", "cross-domain-touch", 44));
  // resource-pairing's parked-forever obligation: a credit acquired through
  // a callee (22, 35) or directly (68) is still held where a `while (true)`
  // pump suspends with no path back to function exit.
  EXPECT_TRUE(has(fs, "src/summary_leak.cpp", "resource-pairing", 22));
  EXPECT_TRUE(has(fs, "src/summary_leak.cpp", "resource-pairing", 35));
  EXPECT_TRUE(has(fs, "src/summary_leak.cpp", "resource-pairing", 68));
  // Typestate protocols, intraprocedural: mailbox shutdown ordering (push
  // after close, push/pop after close_rx), the WAL commit obligation
  // (early bail, break-skips-commit), blind/raced NVMe retires, and the
  // credit double-acquire (branch, loop back-edge).
  EXPECT_TRUE(has(fs, "src/ts_mailbox.cpp", "ts-mailbox", 12));
  EXPECT_TRUE(has(fs, "src/ts_mailbox.cpp", "ts-mailbox", 19));
  EXPECT_TRUE(has(fs, "src/ts_mailbox.cpp", "ts-mailbox", 30));
  EXPECT_TRUE(has(fs, "src/ts_wal.cpp", "ts-kv-wal", 12));
  EXPECT_TRUE(has(fs, "src/ts_wal.cpp", "ts-kv-wal", 23));
  EXPECT_TRUE(has(fs, "src/ts_nvme.cpp", "ts-nvme-cid", 13));
  EXPECT_TRUE(has(fs, "src/ts_nvme.cpp", "ts-nvme-cid", 24));
  EXPECT_TRUE(has(fs, "src/ts_nvme.cpp", "ts-nvme-cid", 36));
  EXPECT_TRUE(has(fs, "src/ts_credit.cpp", "ts-credit", 16));
  EXPECT_TRUE(has(fs, "src/ts_credit.cpp", "ts-credit", 25));
  // Typestate protocols, interprocedural: the close/put/acquire happens
  // inside a helper whose summary carries the protocol effect.
  EXPECT_TRUE(has(fs, "src/interproc_ts.cpp", "ts-mailbox", 37));
  EXPECT_TRUE(has(fs, "src/interproc_ts.cpp", "ts-kv-wal", 44));
  EXPECT_TRUE(has(fs, "src/interproc_ts.cpp", "ts-credit", 55));
}

TEST(LintFixtures, GoldenCounts) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_EQ(count(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature"), 1u);
  EXPECT_EQ(count(fs, "src/nondet.cpp", "nondeterminism"), 2u);
  EXPECT_EQ(count(fs, "src/doorbell.cpp", "raw-doorbell"), 1u);
  EXPECT_EQ(count(fs, "src/poll.cpp", "unbounded-poll"), 1u);
  EXPECT_EQ(count(fs, "src/lambda_event.cpp", "lambda-event"), 1u);
  EXPECT_EQ(count(fs, "src/coro.cpp", "dangling-capture"), 3u);
  EXPECT_EQ(count(fs, "src/async.cpp", "discarded-async"), 1u);
  EXPECT_EQ(count(fs, "src/snacc/escape.cpp", "value-escape"), 1u);
  EXPECT_EQ(count(fs, "src/stale.cpp", "stale-suppression"), 2u);
  EXPECT_EQ(count(fs, "src/kv_put.cpp", "unchecked-put"), 3u);
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "resource-pairing"), 3u);
  EXPECT_EQ(count(fs, "src/use_move.cpp", "use-after-move"), 3u);
  EXPECT_EQ(count(fs, "src/status_path.cpp", "unchecked-status-path"), 3u);
  EXPECT_EQ(count(fs, "src/domain_touch.cpp", "cross-domain-touch"), 3u);
  EXPECT_EQ(count(fs, "src/interproc_resource.cpp", "resource-pairing"), 2u);
  EXPECT_EQ(count(fs, "src/interproc_status.cpp", "unchecked-status-path"),
            2u);
  EXPECT_EQ(count(fs, "src/interproc_async.cpp", "discarded-async"), 2u);
  EXPECT_EQ(count(fs, "src/interproc_domain.cpp", "cross-domain-touch"), 2u);
  EXPECT_EQ(count(fs, "src/summary_leak.cpp", "resource-pairing"), 3u);
  EXPECT_EQ(count(fs, "src/ts_mailbox.cpp", "ts-mailbox"), 3u);
  EXPECT_EQ(count(fs, "src/ts_wal.cpp", "ts-kv-wal"), 2u);
  EXPECT_EQ(count(fs, "src/ts_nvme.cpp", "ts-nvme-cid"), 3u);
  EXPECT_EQ(count(fs, "src/ts_credit.cpp", "ts-credit"), 2u);
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-mailbox"), 1u);
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-kv-wal"), 1u);
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-credit"), 1u);
}

// Near-misses: code shaped like a violation that must NOT be flagged.
TEST(LintFixtures, NearMissesStaySilent) {
  const auto& fs = scan_fixtures().findings;
  // Accessor *named* like a quantity is not a parameter.
  EXPECT_EQ(count(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature"), 1u);
  // "rand()" inside a string literal (line 12) or a comment (line 14).
  EXPECT_FALSE(has(fs, "src/nondet.cpp", "nondeterminism", 12));
  EXPECT_FALSE(has(fs, "src/nondet.cpp", "nondeterminism", 14));
  // kDoorbellBase inside the exempt spec header.
  EXPECT_EQ(count(fs, "src/nvme/spec.hpp", "raw-doorbell"), 0u);
  // A poll loop bounded by closed().
  EXPECT_EQ(count(fs, "src/poll_ok.cpp", "unbounded-poll"), 0u);
  // Container .at(index) without a lambda argument (line 20).
  EXPECT_FALSE(has(fs, "src/lambda_event.cpp", "lambda-event", 20));
  // dangling-capture near-misses: a non-coroutine ref-capture lambda
  // (sync_ok), a capture used only before/within the first awaited
  // statement (spawn_early), and lvalue-ref params of a named coroutine
  // (pump) -- the three positives above must be the only findings.
  EXPECT_EQ(count(fs, "src/coro.cpp", "dangling-capture"), 3u);
  // discarded-async near-misses: co_await, stored, (void)-cast, passed to
  // spawn(), and the async/sync-ambiguous name.
  EXPECT_EQ(count(fs, "src/async.cpp", "discarded-async"), 1u);
  // ->value() pointer receiver (line 14) and the suppressed escape (20).
  EXPECT_FALSE(has(fs, "src/snacc/escape.cpp", "value-escape", 14));
  EXPECT_FALSE(has(fs, "src/snacc/escape.cpp", "value-escape", 20));
  // The policy'd raw directory is waved through wholesale.
  EXPECT_EQ(count(fs, "src/mem/policy_ok.cpp", "value-escape"), 0u);
  // unchecked-put near-misses: status-checked calls, a 1-arg put, and a
  // 2-arg write on a non-replicated receiver -- only the 3 positives flag.
  EXPECT_EQ(count(fs, "src/kv_put.cpp", "unchecked-put"), 3u);
  // resource-pairing near-misses: release-on-every-path, acquire-only
  // handoff (gated), while(true) pump with cross-iteration re-acquire.
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "resource-pairing"), 3u);
  // use-after-move near-misses: reassignment, same-statement ternary arms,
  // member move, per-iteration redeclaration, move-of-moved transfer, and
  // a helper moving its own by-value copy.
  EXPECT_EQ(count(fs, "src/use_move.cpp", "use-after-move"), 3u);
  // unchecked-status-path near-misses: immediate check, both-branch check,
  // non-PutStatus out-param, fill-in-loop-check-after.
  EXPECT_EQ(count(fs, "src/status_path.cpp", "unchecked-status-path"), 3u);
  // cross-domain-touch near-misses: same-domain pair, a Mailbox-mediated
  // statement, and two aliases of one cluster index.
  EXPECT_EQ(count(fs, "src/domain_touch.cpp", "cross-domain-touch"), 3u);
  // Interprocedural near-misses: all-path release via helpers, acquire-only
  // handoff, balanced helper on a branch (interproc_resource); check-by-
  // helper on every path, a helper that never writes, int out-param
  // (interproc_status); awaited/stored/(void)-cast/passed-on calls
  // (interproc_async);
  // same-domain args, boundary-mediated statement, unresolved helper
  // (interproc_domain); release-before-park and bounded pump
  // (summary_leak) -- the positives per file must be the only findings.
  EXPECT_EQ(count(fs, "src/interproc_resource.cpp", "resource-pairing"), 2u);
  EXPECT_EQ(count(fs, "src/interproc_status.cpp", "unchecked-status-path"),
            2u);
  EXPECT_EQ(count(fs, "src/interproc_async.cpp", "discarded-async"), 2u);
  EXPECT_EQ(count(fs, "src/interproc_domain.cpp", "cross-domain-touch"), 2u);
  EXPECT_EQ(count(fs, "src/summary_leak.cpp", "resource-pairing"), 3u);
  // Typestate near-misses. Mailbox: post-close drain, push on the branch
  // that did not close, two distinct objects, an untracked receiver, and a
  // consumed allow() -- only the 3 positives flag.
  EXPECT_EQ(count(fs, "src/ts_mailbox.cpp", "ts-mailbox"), 3u);
  // WAL: commit-on-every-path, the put-only handoff half (gate unarmed),
  // a bare commit, and a put on a non-KvStore receiver.
  EXPECT_EQ(count(fs, "src/ts_wal.cpp", "ts-kv-wal"), 2u);
  // NVMe: the three legal completions each unlock retire, and the retry
  // loop that re-completes after every reopen_head.
  EXPECT_EQ(count(fs, "src/ts_nvme.cpp", "ts-nvme-cid"), 3u);
  // Credit: release-then-reacquire cycles, the acquire-only handoff
  // (gate unarmed even though the loop re-acquires), and a receiver
  // outside the protocol's type/glob set.
  EXPECT_EQ(count(fs, "src/ts_credit.cpp", "ts-credit"), 2u);
  EXPECT_FALSE(has(fs, "src/ts_credit.cpp", "ts-credit", 42));
  // Interprocedural typestate near-misses: push-before-close ordering, the
  // opaque conditional-close helper, and commit-on-every-path -- the 3
  // positives must be the only findings.
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-mailbox"), 1u);
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-kv-wal"), 1u);
  EXPECT_EQ(count(fs, "src/interproc_ts.cpp", "ts-credit"), 1u);
  // The typestate protocols must not leak onto the older fixtures' stand-in
  // objects (resource_pair.cpp shares the rob_/credits vocabulary).
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "ts-nvme-cid"), 0u);
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "ts-credit"), 0u);
  EXPECT_EQ(count(fs, "src/summary_leak.cpp", "ts-credit"), 0u);
  EXPECT_EQ(count(fs, "src/interproc_resource.cpp", "ts-credit"), 0u);
  // The new fixtures must not trip any pre-existing rule.
  for (const char* file :
       {"src/resource_pair.cpp", "src/use_move.cpp", "src/status_path.cpp",
        "src/domain_touch.cpp", "src/interproc_resource.cpp",
        "src/interproc_status.cpp", "src/interproc_async.cpp",
        "src/interproc_domain.cpp", "src/summary_leak.cpp",
        "src/ts_mailbox.cpp", "src/ts_wal.cpp", "src/ts_nvme.cpp",
        "src/ts_credit.cpp", "src/interproc_ts.cpp"}) {
    for (const char* rule :
         {"dangling-capture", "unchecked-put", "unbounded-poll",
          "nondeterminism", "stale-suppression", "resource-pairing"}) {
      if (std::string_view(file) == "src/resource_pair.cpp" &&
          std::string_view(rule) == "resource-pairing") {
        continue;  // its own three positives
      }
      if (std::string_view(file) == "src/interproc_resource.cpp" &&
          std::string_view(rule) == "resource-pairing") {
        continue;
      }
      if (std::string_view(file) == "src/summary_leak.cpp" &&
          std::string_view(rule) == "resource-pairing") {
        continue;
      }
      EXPECT_EQ(count(fs, file, rule), 0u) << file << " " << rule;
    }
  }
}

// --no-summaries parity: without the program layer every interprocedural
// positive disappears (the facts literally do not exist at function scope)
// and the intraprocedural findings are byte-identical to the full scan's.
// summary_leak.cpp keeps only its direct acquire (sl_direct).
TEST(LintFixtures, NoSummariesDegradesCleanly) {
  const auto full = scan_fixtures();
  const auto bare = scan_fixtures(/*jobs=*/0, /*summaries=*/false);
  ASSERT_TRUE(bare.error.empty()) << bare.error;

  for (const char* file :
       {"src/interproc_resource.cpp", "src/interproc_status.cpp",
        "src/interproc_async.cpp", "src/interproc_domain.cpp",
        "src/interproc_ts.cpp"}) {
    std::size_t n = 0;
    for (const lint::Finding& f : bare.findings) n += f.file == file;
    EXPECT_EQ(n, 0u) << file << " must be silent under --no-summaries";
  }
  EXPECT_EQ(count(bare.findings, "src/summary_leak.cpp", "resource-pairing"),
            1u);
  EXPECT_TRUE(has(bare.findings, "src/summary_leak.cpp", "resource-pairing",
                  68));
  EXPECT_EQ(bare.findings.size(), full.findings.size() - 13u);

  // Every finding the bare scan produces is also in the full scan,
  // unchanged -- summaries only ever add precision, never perturb the
  // intraprocedural rules.
  for (const lint::Finding& f : bare.findings) {
    EXPECT_NE(std::find(full.findings.begin(), full.findings.end(), f),
              full.findings.end())
        << f.file << ":" << f.line << " " << f.rule;
  }
  EXPECT_FALSE(bare.stats.summaries);
  EXPECT_EQ(bare.stats.defs, 0u);
}

// A consumed suppression must not be reported stale; only the marker in
// stale.cpp silences nothing.
TEST(LintFixtures, SuppressionBookkeeping) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_EQ(count(fs, "src/poll.cpp", "stale-suppression"), 0u);
  EXPECT_EQ(count(fs, "src/snacc/escape.cpp", "stale-suppression"), 0u);
  // Consumed typestate allows: the post-close push in ts_mailbox.cpp and
  // the cross-iteration re-acquire in resource_pair.cpp both silence a
  // real finding, so neither is stale.
  EXPECT_EQ(count(fs, "src/ts_mailbox.cpp", "stale-suppression"), 0u);
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "stale-suppression"), 0u);
  // stale.cpp carries one dead token-rule marker and one dead typestate
  // marker (the commit on every path means ts-kv-wal has nothing to
  // silence): the stale check covers protocol rules like any other.
  EXPECT_EQ(count(fs, "src/stale.cpp", "stale-suppression"), 2u);
  EXPECT_TRUE(has(fs, "src/stale.cpp", "stale-suppression", 10));
  // And the suppressed sites themselves stay silent.
  EXPECT_FALSE(has(fs, "src/poll.cpp", "unbounded-poll", 23));
  EXPECT_EQ(count(fs, "src/stale.cpp", "ts-kv-wal"), 0u);
}

// ---------------------------------------------------------------------------
// Tokenizer.

TEST(LintTokenizer, CommentsStringsAndPreprocessorExcluded) {
  const std::string text =
      "#include <cstdlib> // rand()\n"
      "const char* s = \"rand()\";\n"
      "auto r = R\"(rand())\";\n"
      "/* rand() */ int x = 0;\n";
  const auto sf = lint::SourceFile::from_text("t.cpp", text);
  ASSERT_NE(sf, nullptr);
  for (const lint::Token& t : sf->tokens()) {
    EXPECT_FALSE(t.ident("rand")) << "rand leaked from non-code context";
    EXPECT_FALSE(t.ident("include")) << "preprocessor leaked";
  }
  const auto strings =
      std::count_if(sf->tokens().begin(), sf->tokens().end(),
                    [](const lint::Token& t) { return t.kind == lint::Tok::kString; });
  EXPECT_EQ(strings, 2);  // the plain literal and the raw string
}

TEST(LintTokenizer, PunctuatorsAndLines) {
  const auto sf = lint::SourceFile::from_text(
      "t.cpp", "a->b;\nns::f(x);\nauto y = a <=> b;\n");
  ASSERT_NE(sf, nullptr);
  bool arrow = false, scope = false;
  for (const lint::Token& t : sf->tokens()) {
    if (t.is("->")) {
      arrow = true;
      EXPECT_EQ(t.line, 1u);
    }
    if (t.is("::")) {
      scope = true;
      EXPECT_EQ(t.line, 2u);
    }
  }
  EXPECT_TRUE(arrow);
  EXPECT_TRUE(scope);
}

// analyze() over in-memory buffers: the same engine path the scan driver
// uses, minus the filesystem.
TEST(LintEngine, AnalyzeInMemory) {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  files.push_back(lint::SourceFile::from_text(
      "src/x.cpp", "int f() { return rand(); }\n"));
  files.push_back(lint::SourceFile::from_text(
      "src/y.cpp",
      "// snacc-lint: allow(nondeterminism): seeding the demo harness\n"
      "int g() { return rand(); }\n"));
  const auto res = lint::analyze(std::move(files), 1);
  EXPECT_EQ(res.findings.size(), 1u);
  EXPECT_TRUE(has(res.findings, "src/x.cpp", "nondeterminism", 1));
  EXPECT_EQ(count(res.findings, "src/y.cpp", "nondeterminism"), 0u);
  EXPECT_EQ(count(res.findings, "src/y.cpp", "stale-suppression"), 0u);
}

// ---------------------------------------------------------------------------
// SARIF output.

TEST(LintSarif, ShapeAndContent) {
  const auto res = scan_fixtures();
  const std::string sarif = lint::to_sarif(res.findings);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("snacc-lint"), std::string::npos);
  // Every rule is in the driver table even when it has no results, and
  // engine-level stale-suppression findings resolve a ruleIndex too.
  for (const char* rule :
       {"bare-uint-signature", "nondeterminism", "raw-doorbell",
        "unbounded-poll", "lambda-event", "unchecked-put",
        "dangling-capture", "discarded-async", "value-escape",
        "resource-pairing", "use-after-move", "unchecked-status-path",
        "ts-mailbox", "ts-kv-wal", "ts-nvme-cid", "ts-credit",
        "stale-suppression"}) {
    EXPECT_NE(sarif.find(rule), std::string::npos) << rule;
  }
  EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
  EXPECT_NE(sarif.find("src/coro.cpp"), std::string::npos);
  // With stats, the run carries the phase/rule wall-times and the
  // whole-program counters as properties.
  EXPECT_EQ(sarif.find("\"properties\""), std::string::npos);
  const std::string with_stats = lint::to_sarif(res.findings, &res.stats);
  EXPECT_NE(with_stats.find("\"properties\""), std::string::npos);
  EXPECT_NE(with_stats.find("\"phaseWallMs\""), std::string::npos);
  EXPECT_NE(with_stats.find("\"ruleWallMs\""), std::string::npos);
  EXPECT_NE(with_stats.find("\"resolvedCalls\""), std::string::npos);
}

// Path-sensitive findings carry their execution path, and the SARIF
// rendering exposes it as codeFlows/threadFlows code scanning can walk.
TEST(LintSarif, CodeFlowsShape) {
  const auto res = scan_fixtures();

  // Every flow-rule finding has a path; token-level findings have none.
  // cross-domain-touch and discarded-async carry a path only on their
  // interprocedural (summary-driven) variants.
  for (const lint::Finding& f : res.findings) {
    const bool ts_rule = f.rule.rfind("ts-", 0) == 0 ||
                         f.rule == "use-after-move" ||
                         f.rule == "resource-pairing" ||
                         f.rule == "unchecked-status-path";
    const bool path_optional =
        f.rule == "cross-domain-touch" || f.rule == "discarded-async";
    if (!path_optional) {
      EXPECT_EQ(!f.path.empty(), ts_rule)
          << f.rule << " at " << f.file << ":" << f.line;
    }
    if (f.path.empty()) continue;
    // The interprocedural token rules anchor at the path's source (the
    // call); typestate error rows such as use-after-move anchor at their
    // sink (the read / the illegal event). Typestate obligations
    // (resource-pairing, unchecked-status-path, ts-kv-wal) anchor mid-path
    // (the last event before the exit or parking step), so only the
    // containment of the anchor is pinned for them. Every step carries a
    // human-readable note.
    if (f.rule == "use-after-move") {
      EXPECT_EQ(f.path.back().line, f.line);
    } else if (ts_rule) {
      const bool anchored =
          std::any_of(f.path.begin(), f.path.end(),
                      [&](const lint::PathStep& s) { return s.line == f.line; });
      EXPECT_TRUE(anchored) << f.rule << " at " << f.file << ":" << f.line;
    } else {
      EXPECT_EQ(f.path.front().line, f.line);
    }
    EXPECT_GE(f.path.size(), 2u) << "a path needs at least source and sink";
    for (const lint::PathStep& s : f.path) {
      EXPECT_GT(s.line, 0u);
      EXPECT_FALSE(s.note.empty());
    }
  }
  // Interprocedural findings point into the callee's body with an explicit
  // per-step artifact (the callee may live in another file; see the
  // call-graph tests for the genuinely cross-file case).
  bool callee_step = false;
  for (const lint::Finding& f : res.findings) {
    for (const lint::PathStep& s : f.path) {
      if (!s.file.empty()) callee_step = true;
    }
  }
  EXPECT_TRUE(callee_step)
      << "expected at least one callee-side path step with its own artifact";

  const std::string sarif = lint::to_sarif(res.findings);
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("\"threadFlows\""), std::string::npos);
  // One threadFlow location per path step, each with a message.
  const auto occurrences = [&](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t at = sarif.find(needle); at != std::string::npos;
         at = sarif.find(needle, at + needle.size()))
      ++n;
    return n;
  };
  std::size_t steps = 0, flows = 0;
  for (const lint::Finding& f : res.findings) {
    if (f.path.empty()) continue;
    ++flows;
    steps += f.path.size();
  }
  EXPECT_EQ(occurrences("\"codeFlows\""), flows);
  EXPECT_EQ(occurrences("\"threadFlows\""), flows);
  EXPECT_NE(sarif.find("function exit with 'gate' still held"),
            std::string::npos);
  EXPECT_NE(sarif.find("suspends here with no path back to function exit"),
            std::string::npos);
  EXPECT_GE(occurrences("\"message\""), steps);
}

// ---------------------------------------------------------------------------
// Parallel scans are deterministic.

TEST(LintEngine, DeterministicAcrossJobCounts) {
  const auto one = scan_fixtures(1);
  const auto eight = scan_fixtures(8);
  ASSERT_TRUE(one.error.empty());
  ASSERT_TRUE(eight.error.empty());
  // Finding equality includes the execution path, so this also pins the
  // flow rules' codeFlows across worker counts -- make sure they fired,
  // including the two-pass (scope -> program -> rules) interprocedural
  // pipeline whose program build is sequential by construction.
  EXPECT_GT(count(one.findings, "src/resource_pair.cpp", "resource-pairing"),
            0u);
  EXPECT_GT(count(one.findings, "src/use_move.cpp", "use-after-move"), 0u);
  EXPECT_GT(
      count(one.findings, "src/status_path.cpp", "unchecked-status-path"),
      0u);
  EXPECT_GT(count(one.findings, "src/summary_leak.cpp", "resource-pairing"),
            0u);
  EXPECT_GT(
      count(one.findings, "src/interproc_resource.cpp", "resource-pairing"),
      0u);
  EXPECT_GT(count(one.findings, "src/ts_mailbox.cpp", "ts-mailbox"), 0u);
  EXPECT_GT(count(one.findings, "src/interproc_ts.cpp", "ts-kv-wal"), 0u);
  EXPECT_TRUE(one.findings == eight.findings);
  EXPECT_EQ(one.stats.defs, eight.stats.defs);
  EXPECT_EQ(one.stats.call_sites, eight.stats.call_sites);
  EXPECT_EQ(one.stats.resolved_calls, eight.stats.resolved_calls);

  // And the same for the degraded single-pass pipeline.
  const auto bare1 = scan_fixtures(1, /*summaries=*/false);
  const auto bare8 = scan_fixtures(8, /*summaries=*/false);
  EXPECT_TRUE(bare1.findings == bare8.findings);
}

// ---------------------------------------------------------------------------
// Docs stay in sync with the rule catalog.

// Every rule the binary knows (including the engine-level stale-suppression
// pass) must be documented by name in docs/STATIC_ANALYSIS.md, and the
// catalog itself must be the full 17+1 set (11 hand-written rules, 6
// typestate rule ids over 7 protocol tables, plus the stale-suppression
// pass).
TEST(LintCatalog, DocsListEveryRule) {
  const auto catalog = lint::rule_catalog();
  EXPECT_EQ(catalog.size(), 18u);
  std::ifstream in(LINT_DOCS_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << LINT_DOCS_FILE;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string docs = ss.str();
  for (const lint::RuleMeta& m : catalog) {
    EXPECT_NE(docs.find(m.name), std::string::npos)
        << "rule '" << m.name << "' missing from docs/STATIC_ANALYSIS.md";
    EXPECT_FALSE(m.description.empty()) << m.name;
  }
}

}  // namespace
