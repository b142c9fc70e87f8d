// liblint: the rule API.
//
// A rule sees one tokenized file at a time (tokens + scope analysis) plus
// the cross-file symbol table of async (Task/Future-returning) function
// names. Rules run over the *shared* token stream -- each file is read and
// tokenized exactly once no matter how many rules are enabled -- and append
// raw findings; suppression filtering, the baseline, and stale-suppression
// accounting happen in the engine afterwards.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/cfg.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"

namespace lint {

struct ProgramInfo;  // callgraph + summaries, see summary.hpp

struct RuleContext {
  const SourceFile& file;
  const ScopeInfo& scopes;
  const std::set<std::string, std::less<>>& async_fns;
  /// Lazily-built per-function CFGs (see cfg.hpp); flow rules share one
  /// cache per file so the CFG parse runs at most once per function.
  const CfgCache& cfgs;
  /// Whole-program layer (call graph + function summaries). Null under
  /// `--no-summaries`; every rule must degrade to its intraprocedural
  /// behaviour when absent.
  const ProgramInfo* prog = nullptr;
  /// Index of `file` in the scanned file list; -1 when `prog` is null.
  int file_index = -1;
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  /// One-line description, used in --help and the SARIF rule metadata.
  virtual std::string_view description() const = 0;
  virtual void run(const RuleContext& ctx, std::vector<Finding>* out) const = 0;
};

/// All built-in rules, in catalog order. The `stale-suppression` check is
/// not listed here: it is an engine-level pass over suppression usage.
const std::vector<std::unique_ptr<Rule>>& all_rules();

/// One row of the complete rule catalog: every registered rule *plus* the
/// engine-level `stale-suppression` check. This is the single source of
/// truth behind `--list-rules`, the SARIF driver rule table, and the docs
/// drift test -- none of them may hard-code a rule name.
struct RuleMeta {
  std::string_view name;
  std::string_view description;
};
const std::vector<RuleMeta>& rule_catalog();

/// Per-directory policy for the value-escape rule: path prefixes where
/// `.value()` is the sanctioned convention, with the reason documented in
/// docs/STATIC_ANALYSIS.md. Exposed for the docs self-test.
struct PolicyEntry {
  std::string_view prefix;
  std::string_view reason;
};
const std::vector<PolicyEntry>& value_escape_policy();

// --- helpers shared by the rules and the summary layer ---------------------

bool starts_with(std::string_view s, std::string_view prefix);

/// Token ranges of `scopes.funcs[idx]`'s direct child lambdas: a lambda body
/// is its own FuncScope with its own CFG, so the parent's scans skip it.
std::vector<std::pair<std::size_t, std::size_t>> child_ranges(
    const ScopeInfo& scopes, int idx);
bool in_ranges(const std::vector<std::pair<std::size_t, std::size_t>>& rs,
               std::size_t i);

/// Free-standing use of the identifier at `i`: not a member access (`x.v`)
/// or part of a qualified name.
bool plain_use(const std::vector<Token>& toks, std::size_t i);

/// Display name of a resolved callee (lambdas bound to a name carry it) and
/// the scan-root-relative path of its file, for cross-file PathSteps.
std::string callee_name(const ProgramInfo& prog, int def);
const std::string& callee_file(const ProgramInfo& prog, int def);

}  // namespace lint
