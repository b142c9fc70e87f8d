// liblint: bottom-up function summaries over the call graph.
//
// A FuncSummary abstracts what a function does to the outside world in the
// vocabulary the interprocedural rules speak:
//   * protocols  -- the typestate events the function performs
//                   unconditionally on each tracked object (ProtocolEffect),
//                   keyed to a parameter when the object is one (so callers
//                   substitute their argument);
//   * params     -- parameters used as method-call receivers ("touched", the
//                   hook that lets a component inherit its domain through a
//                   wrapper);
//   * returns_async -- the function returns a Task/Future, declared or
//                   propagated through `auto` return sites.
//
// Summaries are computed bottom-up: a local pass per function, then a
// fixpoint propagation that forwards facts through resolved call edges
// (touch/async facts first, then protocol effects with callee events
// spliced in at call sites). Everything is conservative on ambiguity: an
// unresolved call contributes nothing, so `--no-summaries` is strictly less
// precise, never differently wrong.
//
// The whole table can be cached keyed by file content hashes: the cache is
// all-or-nothing (any changed file invalidates it), which is trivially
// sound -- a changed callee re-propagates through every caller.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"

namespace lint {

struct ParamEffect {
  /// Parameter is the receiver of a method call somewhere below this
  /// function (directly or through a resolved callee).
  bool touched = false;
  int touch_def = -1;  ///< def id where the concrete method call lives
  std::uint32_t touch_line = 0;
};

/// Typestate events a function performs on one tracked object, in program
/// order -- the protocol-effect field of the summary. Only *unconditional*
/// sequences are recorded: every event lies in a block that is on every
/// entry-to-exit path and in no cycle, so the order is fixed and a caller
/// can splice the sequence in at the call site. Anything conditional,
/// looped, or longer than a small cap makes the whole key opaque, and
/// objects the function owns (declared inside it, or parameters taken by
/// value) never escape into its summary.
struct ProtocolEffect {
  std::size_t protocol = 0;  ///< typestate_protocols() index
  /// Receiver is the function's parameter #recv_param; -1 for a named
  /// receiver (member/global), which substitutes into callers textually.
  int recv_param = -1;
  std::string recv;         ///< receiver identifier as written
  std::vector<int> events;  ///< protocol event ids, in execution order
  std::vector<std::uint32_t> lines;  ///< parallel to `events`, for code flows
};

struct FuncSummary {
  bool returns_async = false;
  /// Parallel to the FuncScope's params; empty when params are unreliable.
  std::vector<ParamEffect> params;
  std::vector<ProtocolEffect> protocols;
};

struct ProgramInfo {
  CallGraph graph;
  std::vector<FuncSummary> summaries;  ///< parallel to graph.defs()
  /// Scan-root-relative path per file index (for cross-file PathSteps).
  std::vector<std::string> file_rels;
};

/// Builds the whole-program layer: call graph + propagated summaries.
/// `files`, `scopes`, `cfgs` are parallel per-file vectors; `cfgs` entries
/// are consulted (and lazily built) sequentially. When `cache_path` is
/// non-empty, a cache keyed by per-file content hashes is consulted first
/// and rewritten after a recompute; `cache_hit` (optional) reports whether
/// the summary table was loaded instead of computed.
ProgramInfo build_program(const std::vector<const SourceFile*>& files,
                          const std::vector<ScopeInfo>& scopes,
                          const std::vector<const CfgCache*>& cfgs,
                          const std::string& cache_path, bool* cache_hit);

/// One typestate event attributed to a CFG block: a direct event on a
/// tracked object (`recv.verb()` or one of the plain-use forms, see
/// typestate.hpp), or a callee's ProtocolEffect spliced in at a call site
/// (callee_def >= 0, with the event's line inside that callee).
struct TsEventRef {
  std::size_t protocol = 0;
  int event = 0;
  std::string recv;  ///< caller-side receiver identifier
  std::uint32_t line = 0;
  std::size_t tok = 0;  ///< ordering position within the block
  int callee_def = -1;
  std::uint32_t callee_line = 0;
};

/// Per-CFG-block typestate events of `scopes.funcs[func_idx]` for every
/// protocol whose bit is set in `protocols` (bit p = typestate_protocols()
/// index p), from one token pass over the function. With `prog == nullptr`
/// only direct events appear (`--no-summaries`).
std::vector<std::vector<TsEventRef>> typestate_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx,
    std::uint32_t protocols);

}  // namespace lint
