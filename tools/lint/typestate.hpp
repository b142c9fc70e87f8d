// liblint: declarative typestate protocols.
//
// A protocol is a small state machine over one *tracked object*: states,
// events (method verbs observed as `recv.verb(...)` / `recv->verb(...)` on
// the object, plus the plain-use forms below), legal transitions, error
// rows with messages, and obligations ("this state must not reach function
// exit"). The typestate engine (typestate.cpp) compiles each table onto the
// existing per-function CFGs as reachable <object, state-at-block-entry>
// facts and reports every error with the full event trace attached
// (Finding::path -> SARIF codeFlows). Several tables may share one rule id;
// each generated rule runs all tables that carry its name.
//
// Semantics, chosen so tables stay tiny and conservative:
//   * state 0 is the initial state and doubles as "unknown": every object
//     starts there, so an error row can only fire after the machine has
//     *witnessed* the events that led into the error's source state (a
//     function that only ever pushes can never reach "closed");
//   * an event with no transition row for the current state leaves the
//     state unchanged (stay), including after an error fires -- so
//     `close(); push(); push();` reports both pushes;
//   * an obligation state must not reach function exit, nor be held at a
//     suspension point from which function exit is unreachable (the
//     coroutine parks there forever);
//   * error rows and obligations may carry a gate event: they are armed
//     only when the function (with callee effects substituted) performs the
//     gate event on the same object somewhere -- so one half of a
//     deliberate cross-coroutine handoff stays silent.
//
// Objects are tracked by declared type (a parameter or local whose type
// names the protocol's type, template arguments and ref/pointer decorations
// skipped) or by receiver-identifier glob, plus -- interprocedurally --
// any receiver a resolved callee's protocol effect substitutes in (the
// callee typed it, so the caller trusts it). See "Protocol authoring
// guide" in docs/STATIC_ANALYSIS.md.
#pragma once

#include <array>
#include <memory>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"

namespace lint {

/// Event names the engine also observes on a tracked object `x` without a
/// method call; a table opts in by listing the name among its events:
///   declare  `x`'s declaration in the function body
///   fill     `&x` passed as a call argument
///   write    `x = ...` or `*x = ...`
///   move     `std::move(x)`
///   check    any other plain read of `x`; a read in the same statement
///            after a `move` of `x` is not one (only one arm of a
///            conditional operator runs)
/// When a resolved callee has a protocol effect on the argument `x` is
/// passed as, the spliced effect replaces these forms at that argument --
/// except `move`, which stays as written.
inline constexpr std::array<std::string_view, 5> kTsFormEvents = {
    "declare", "fill", "write", "move", "check"};

/// `from` --event--> `to`. Unlisted (state, event) pairs stay put.
struct TsTransition {
  int from = 0;
  int event = 0;
  int to = 0;
};

/// Observing `event` while the object may be in `state` is a finding.
/// The state still follows the transition table afterwards (stay, unless a
/// transition row exists), so repeated violations each report once.
struct TsError {
  int state = 0;
  int event = 0;
  /// Event index that must also occur on the object somewhere in the same
  /// function for this row to arm; -1 for always armed.
  int gate_event = -1;
  std::string_view message;
};

/// `state` reachable at function exit, or at the end of a suspending block
/// that cannot reach function exit, is a finding (reported at the last
/// event that entered the state on the witness path).
struct TsObligation {
  int state = 0;
  /// Same gating as TsError::gate_event; -1 for always armed.
  int gate_event = -1;
  std::string_view message;
};

struct TsProtocol {
  /// e.g. "ts-mailbox"; also the allow() key. Tables may share one.
  std::string_view rule_name;
  /// One line for the rule catalog; the first table of a rule id gives it.
  std::string_view description;
  std::vector<std::string_view> states;  ///< display names; [0] is initial
  /// Method verbs and kTsFormEvents names, unique per table.
  std::vector<std::string_view> events;
  /// Tracked-object selectors: declared type names (last identifier of the
  /// template-less type, `sim::Mailbox<int>& mb` -> "Mailbox") and receiver
  /// identifier globs ('*' wildcard).
  std::vector<std::string_view> type_names;
  std::vector<std::string_view> recv_globs;
  std::vector<TsTransition> transitions;
  std::vector<TsError> errors;
  std::vector<TsObligation> obligations;
  /// Scan-root-relative path prefixes this protocol checks; empty means
  /// everywhere (same mechanism as the unchecked-put scope).
  std::vector<std::string_view> path_prefixes;
};

/// The production protocol tables, in rule-catalog order. Indices into this
/// vector are the `protocol` ids used by ProtocolEffect / TsEventRef.
/// Exposed for the docs drift test.
const std::vector<TsProtocol>& typestate_protocols();

/// One checker Rule per distinct rule id, in first-table order.
std::vector<std::unique_ptr<Rule>> make_typestate_rules();

}  // namespace lint
