// The typestate engine: compiles the declarative protocol tables
// (typestate.hpp) onto the per-function CFGs and reports violations with
// the full event trace attached.
//
// The solver is a worklist reachability pass over <block, state-at-entry>
// nodes, one tracked object at a time. Transitions are deterministic per
// (state, event), so applying a block's event chain to a single entry
// state yields a single exit state plus the ordered list of steps taken --
// which makes the reachable-node set exactly the may-analysis fixpoint
// *and* gives every node a BFS tree parent for witness-path
// reconstruction. Errors fire on an event observed in a reachable error
// state; obligations fire on an obligation state reachable at the CFG
// exit, or left by a suspending block that cannot reach the exit. Both
// carry the event chain from function entry as PathSteps (cross-file steps
// when an event was spliced in from a callee's protocol effect).
//
// Event extraction, the interprocedural lift and `--no-summaries`
// degradation live in summary.cpp (typestate_events / ProtocolEffect):
// with summaries off the engine sees direct events only, so a finding
// whose witness spans a call disappears -- strictly less precise, never
// differently wrong.
#include "lint/typestate.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "lint/summary.hpp"

namespace lint {

namespace {

/// Deterministic next state for `event` in `state`: the transition row if
/// one exists, else stay. Error rows do not move the state by themselves.
int step(const TsProtocol& p, int state, int event) {
  for (const TsTransition& t : p.transitions) {
    if (t.from == state && t.event == event) return t.to;
  }
  return state;
}

const TsError* error_row(const TsProtocol& p, int state, int event) {
  for (const TsError& e : p.errors) {
    if (e.state == state && e.event == event) return &e;
  }
  return nullptr;
}

/// How an event reads in messages: `'x.verb()'` for a method event, the
/// plain-use form spelled out otherwise.
std::string event_text(const TsProtocol& p, int event, const std::string& obj) {
  const std::string_view ev = p.events[static_cast<std::size_t>(event)];
  if (ev == kTsFormEvents[0]) return "'" + obj + "' declared";
  if (ev == kTsFormEvents[1]) return "'&" + obj + "' passed to a call";
  if (ev == kTsFormEvents[2]) return "'" + obj + "' written";
  if (ev == kTsFormEvents[3]) return "'std::move(" + obj + ")'";
  if (ev == kTsFormEvents[4]) return "'" + obj + "' read";
  return "'" + obj + "." + std::string(ev) + "()'";
}

class TypestateRule final : public Rule {
 public:
  TypestateRule(std::string_view name, std::uint32_t tables)
      : name_(name), tables_(tables) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    const auto& ps = typestate_protocols();
    for (std::size_t p = 0; p < ps.size(); ++p) {
      if ((tables_ >> p) & 1u) return ps[p].description;
    }
    return {};
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& ps = typestate_protocols();
    std::uint32_t sel = 0;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      if (((tables_ >> p) & 1u) == 0) continue;
      bool in_scope = ps[p].path_prefixes.empty();
      for (const std::string_view pre : ps[p].path_prefixes) {
        in_scope |= starts_with(ctx.file.rel(), pre);
      }
      if (in_scope) sel |= std::uint32_t{1} << p;
    }
    if (sel == 0) return;
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (f.body_end <= f.body_begin) continue;
      const Cfg& cfg = ctx.cfgs.get(static_cast<int>(fi));
      const auto evs =
          typestate_events(ctx.prog, ctx.file_index, ctx.file, ctx.scopes,
                           cfg, static_cast<int>(fi), sel);
      std::set<std::pair<std::size_t, std::string>> objects;
      for (const auto& v : evs) {
        for (const TsEventRef& e : v) objects.emplace(e.protocol, e.recv);
      }
      std::vector<bool> reach;  // blocks reaching exit, built on first need
      for (const auto& [p, obj] : objects) {
        check_object(ctx, ps[p], p, cfg, evs, obj, &reach, out);
      }
    }
  }

 private:
  void check_object(const RuleContext& ctx, const TsProtocol& p,
                    std::size_t proto, const Cfg& cfg,
                    const std::vector<std::vector<TsEventRef>>& evs,
                    const std::string& obj, std::vector<bool>* reach,
                    std::vector<Finding>* out) const {
    const std::size_t nb = cfg.blocks.size();
    const std::size_t ns = p.states.size();
    // The per-object chain of each block, in execution order.
    std::vector<std::vector<const TsEventRef*>> chains(nb);
    std::vector<bool> has_event(p.events.size(), false);
    for (std::size_t b = 0; b < nb; ++b) {
      for (const TsEventRef& e : evs[b]) {
        if (e.protocol != proto || e.recv != obj) continue;
        chains[b].push_back(&e);
        has_event[static_cast<std::size_t>(e.event)] = true;
      }
    }
    const auto armed = [&](int gate) {
      return gate < 0 || has_event[static_cast<std::size_t>(gate)];
    };
    const auto run_chain = [&](std::size_t b, int s) {
      for (const TsEventRef* e : chains[b]) s = step(p, s, e->event);
      return s;
    };

    // Reachable <block, entry-state> nodes, BFS from (entry, initial) with
    // tree parents for witness reconstruction. Deterministic: queue order
    // and successor order are fixed.
    const auto id = [ns](int b, int s) {
      return static_cast<std::size_t>(b) * ns + static_cast<std::size_t>(s);
    };
    std::vector<bool> seen(nb * ns, false);
    std::vector<std::size_t> parent(nb * ns, SIZE_MAX);
    std::vector<std::size_t> queue;
    seen[id(cfg.entry, 0)] = true;
    queue.push_back(id(cfg.entry, 0));
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t node = queue[qi];
      const int b = static_cast<int>(node / ns);
      const int s = run_chain(static_cast<std::size_t>(b),
                              static_cast<int>(node % ns));
      for (const int succ : cfg.block(b).succ) {
        const std::size_t nid = id(succ, s);
        if (seen[nid]) continue;
        seen[nid] = true;
        parent[nid] = node;
        queue.push_back(nid);
      }
    }

    // Witness trace to (and through) `node`: the event chain from function
    // entry, one PathStep per event (plus a cross-file step for spliced
    // callee events), stopping after `upto` events of the final block
    // (SIZE_MAX: all of them).
    const auto trace = [&](std::size_t node,
                           std::size_t upto) -> std::vector<PathStep> {
      std::vector<std::size_t> nodes;
      for (std::size_t n = node; n != SIZE_MAX; n = parent[n]) {
        nodes.push_back(n);
      }
      std::reverse(nodes.begin(), nodes.end());
      std::vector<PathStep> steps;
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const auto& chain = chains[nodes[k] / ns];
        int s = static_cast<int>(nodes[k] % ns);
        const std::size_t stop =
            (k + 1 == nodes.size() && upto != SIZE_MAX) ? upto : chain.size();
        for (std::size_t e = 0; e < stop && e < chain.size(); ++e) {
          const TsEventRef& ev = *chain[e];
          const int to = step(p, s, ev.event);
          const std::string what = event_text(p, ev.event, obj);
          std::string note =
              ev.callee_def >= 0
                  ? "call into '" + callee_name(*ctx.prog, ev.callee_def) +
                        "' performs " + what
                  : what;
          if (to != s) {
            note += ": '" + obj + "' " + std::string(p.states[s]) + " -> " +
                    std::string(p.states[to]);
          } else {
            note += " ('" + obj + "' stays " + std::string(p.states[s]) + ")";
          }
          steps.push_back({ev.line, std::move(note)});
          if (ev.callee_def >= 0 && ev.callee_line != 0) {
            steps.push_back({ev.callee_line,
                             "performed here inside '" +
                                 callee_name(*ctx.prog, ev.callee_def) + "'",
                             callee_file(*ctx.prog, ev.callee_def)});
          }
          s = to;
        }
      }
      return steps;
    };

    // Error rows: walk every reachable entry state through each block's
    // chain; an armed error row on the current state reports once per
    // (line, row).
    std::set<std::pair<std::uint32_t, const TsError*>> reported;
    for (std::size_t b = 0; b < nb; ++b) {
      if (chains[b].empty()) continue;
      for (std::size_t s0 = 0; s0 < ns; ++s0) {
        const std::size_t node = id(static_cast<int>(b), static_cast<int>(s0));
        if (!seen[node]) continue;
        int s = static_cast<int>(s0);
        for (std::size_t e = 0; e < chains[b].size(); ++e) {
          const TsEventRef& ev = *chains[b][e];
          const TsError* row = error_row(p, s, ev.event);
          if (row != nullptr && armed(row->gate_event) &&
              reported.emplace(ev.line, row).second) {
            const std::string what = event_text(p, ev.event, obj);
            Finding fd{ctx.file.rel(), ev.line, std::string(p.rule_name),
                       what + " while '" + obj + "' is " +
                           std::string(p.states[s]) + " on some path: " +
                           std::string(row->message),
                       {}};
            fd.path = trace(node, e);
            std::string last = what + " in state " + std::string(p.states[s]);
            if (ev.callee_def >= 0) {
              last += " (via '" + callee_name(*ctx.prog, ev.callee_def) + "')";
            }
            fd.path.push_back({ev.line, std::move(last)});
            out->push_back(std::move(fd));
          }
          s = step(p, s, ev.event);
        }
      }
    }

    // Obligations: an armed obligation state reachable at the CFG exit or,
    // failing that, left by a suspending block from which the exit is
    // unreachable (the coroutine parks there forever). Reported at the
    // last caller-side event of the witness path, with the full trace.
    for (const TsObligation& ob : p.obligations) {
      if (ob.state == 0 || !armed(ob.gate_event)) continue;
      const std::string state(p.states[ob.state]);
      const std::string held = "'" + obj + "' still " + state;
      std::size_t node = id(cfg.exit, ob.state);
      std::string where = "can reach function exit";
      PathStep last{cfg.block(cfg.exit).line, "function exit with " + held};
      if (!seen[node]) {
        node = SIZE_MAX;
        if (reach->empty()) *reach = blocks_reaching_exit(cfg);
        for (std::size_t b = 0; b < nb && node == SIZE_MAX; ++b) {
          if (!cfg.blocks[b].suspends || (*reach)[b]) continue;
          for (std::size_t s0 = 0; s0 < ns && node == SIZE_MAX; ++s0) {
            const std::size_t n = id(static_cast<int>(b), static_cast<int>(s0));
            if (seen[n] && run_chain(b, static_cast<int>(s0)) == ob.state) {
              node = n;
            }
          }
        }
        if (node == SIZE_MAX) continue;
        where = "can park forever at a suspension point";
        last = {cfg.block(static_cast<int>(node / ns)).line,
                "suspends here with no path back to function exit, " + held};
      }
      std::vector<PathStep> steps = trace(node, SIZE_MAX);
      std::uint32_t at = cfg.block(cfg.entry).line == 0
                             ? 1
                             : cfg.block(cfg.entry).line;
      for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        if (it->file.empty()) {
          at = it->line;
          break;
        }
      }
      Finding fd{ctx.file.rel(), at, std::string(p.rule_name),
                 "'" + obj + "' " + where + " still " + state + ": " +
                     std::string(ob.message),
                 {}};
      fd.path = std::move(steps);
      if (last.line == 0) last.line = at;
      fd.path.push_back(std::move(last));
      out->push_back(std::move(fd));
    }
  }

  std::string_view name_;
  std::uint32_t tables_;  ///< bit p: typestate_protocols()[p] runs here
};

}  // namespace

const std::vector<TsProtocol>& typestate_protocols() {
  static const std::vector<TsProtocol> kProtocols = [] {
    std::vector<TsProtocol> ps;

    {
      // Zero-copy payload hand-off (PAPER.md Sec. 4): stages pass
      // Payload/Chunk values on with std::move, which leaves the source
      // empty. A read before the object is written or redeclared sees that
      // empty value. A second move is a transfer, not a read.
      TsProtocol p;
      p.rule_name = "use-after-move";
      p.description =
          "moved-from Payload/Chunk read on some path before reassignment";
      enum { kLive, kMoved };
      enum { kDeclare, kFill, kWrite, kMove, kCheck };
      p.states = {"live", "moved"};
      p.events = {"declare", "fill", "write", "move", "check"};
      p.type_names = {"Payload", "Chunk"};
      p.transitions = {{kLive, kMove, kMoved},
                       {kMoved, kDeclare, kLive},
                       {kMoved, kFill, kLive},
                       {kMoved, kWrite, kLive}};
      p.errors = {
          {kMoved, kCheck, -1,
           "a moved-from payload is empty; reassign before reading or "
           "restructure the branch"},
      };
      ps.push_back(std::move(p));
    }

    {
      // sim::Mailbox producer/consumer shutdown ordering (docs/MODEL.md
      // "Domains & conservative sync"): close() is the producer's shutdown
      // marker, close_rx() the consumer's hangup; pop() after close is the
      // legal drain, push() after either end closed drops the value.
      TsProtocol p;
      p.rule_name = "ts-mailbox";
      p.description =
          "Mailbox lifecycle: no push after close/close_rx, no pop after "
          "hanging up the receive end";
      enum { kLive, kClosed, kRxClosed };
      enum { kPush, kPop, kClose, kCloseRx };
      p.states = {"live", "closed", "rx-closed"};
      p.events = {"push", "pop", "close", "close_rx"};
      p.type_names = {"Mailbox"};
      p.recv_globs = {"*mailbox*", "mb", "mbox*"};
      p.transitions = {{kLive, kClose, kClosed}, {kLive, kCloseRx, kRxClosed}};
      p.errors = {
          {kClosed, kPush, -1,
           "the producer already marked shutdown, so the value is silently "
           "dropped and the consumer's drain ends before it"},
          {kRxClosed, kPush, -1,
           "the consumer hung up, so the push fails after one link latency "
           "and the value is dropped"},
          {kRxClosed, kPop, -1,
           "this side already closed the receive end; nothing can arrive "
           "after the hangup propagates"},
      };
      ps.push_back(std::move(p));
    }

    {
      // KV WAL group-commit barrier (docs/DURABILITY.md): put() appends and
      // indexes but the record is volatile until a commit() flush barrier;
      // acknowledging without the barrier loses the record on a crash.
      TsProtocol p;
      p.rule_name = "ts-kv-wal";
      p.description =
          "KV WAL barrier: every put must be followed by a commit flush "
          "barrier on every path to function exit";
      enum { kClean, kDirty };
      enum { kPut, kCommit };
      p.states = {"clean", "dirty"};
      p.events = {"put", "commit"};
      p.type_names = {"KvStore"};
      p.recv_globs = {"*store*", "kv*"};
      p.transitions = {{kClean, kPut, kDirty}, {kDirty, kCommit, kClean}};
      p.obligations = {
          {kDirty, kCommit,
           "a put on this path is never followed by a commit flush barrier, "
           "so the record is acknowledged but volatile and a crash loses it "
           "(docs/DURABILITY.md)"},
      };
      p.path_prefixes = {"src/", "examples/"};
      ps.push_back(std::move(p));
    }

    {
      // NVMe command lifecycle through the reorder buffer (PAPER.md
      // Fig. 4c): a slot/cid is allocated at submission and may be retired
      // only after its completion was observed (complete CQE, wait_head, or
      // a fail_head poison). reopen_head re-arms the head for resubmission,
      // so a retire after it needs a fresh completion.
      TsProtocol p;
      p.rule_name = "ts-nvme-cid";
      p.description =
          "NVMe cid lifecycle: no retire without an observed completion "
          "(complete/wait_head/fail_head) since the slot was allocated";
      enum { kIdle, kAllocated, kRetirable };
      enum { kAlloc, kComplete, kWaitHead, kRetire, kFailHead, kReopenHead };
      p.states = {"idle", "allocated", "head-completed"};
      p.events = {"alloc",  "complete",  "wait_head",
                  "retire", "fail_head", "reopen_head"};
      p.type_names = {"ReorderBuffer"};
      p.recv_globs = {"rob*"};
      p.transitions = {
          {kIdle, kAlloc, kAllocated},
          {kIdle, kWaitHead, kRetirable},
          {kAllocated, kComplete, kRetirable},
          {kAllocated, kWaitHead, kRetirable},
          {kAllocated, kFailHead, kRetirable},
          {kRetirable, kRetire, kIdle},
          {kRetirable, kReopenHead, kAllocated},
      };
      p.errors = {
          {kAllocated, kRetire, -1,
           "in-order retirement requires the head completion first "
           "(PAPER.md Fig. 4c); complete, wait_head or fail_head the slot "
           "before retiring"},
      };
      ps.push_back(std::move(p));
    }

    {
      // Streamer issue-credit / quarantine discipline: a held credit must
      // be released (or the command quarantined, which releases it) before
      // this path acquires again -- a second acquire on a held semaphore
      // parks the coroutine against itself. Gated on the function also
      // releasing the object, so acquire-only handoff halves stay silent
      // (same pairing gate as resource-pairing).
      TsProtocol p;
      p.rule_name = "ts-credit";
      p.description =
          "credit discipline: no re-acquire while the same credit is still "
          "held on some path (fault-retry exits included)";
      enum { kUnheld, kHeld, kReleased };
      enum { kAcquire, kRelease };
      p.states = {"unheld", "held", "released"};
      p.events = {"acquire", "release"};
      p.type_names = {"Semaphore"};
      p.recv_globs = {"*credit*", "*mutex*"};
      p.transitions = {
          {kUnheld, kAcquire, kHeld},
          {kHeld, kRelease, kReleased},
          {kReleased, kAcquire, kHeld},
      };
      p.errors = {
          {kHeld, kAcquire, kRelease,
           "a second acquire on a held semaphore parks this path against "
           "itself and can deadlock the issue window; release or quarantine "
           "first, or make the cross-coroutine handoff explicit in its own "
           "function"},
      };
      ps.push_back(std::move(p));
    }

    // Resource pairing, one table per known acquire/release verb pair:
    //   * credit objects (issue_credits_, alloc_mutex_, exec_slots_,
    //     window, RateServer): acquire -> release;
    //   * descriptor rings: read_ring->alloc pairs with free_oldest on the
    //     retirement path;
    //   * the reorder buffer: rob_.alloc -> rob_.retire.
    // The obligation is gated on the release verb: a function that only
    // acquires is one half of a deliberate cross-coroutine handoff (credits
    // acquired in the submitter, released at retirement) and stays silent.
    const auto pairing = [&ps](std::string_view glob, std::string_view acquire,
                               std::string_view release,
                               std::string_view description) {
      TsProtocol p;
      p.rule_name = "resource-pairing";
      p.description = description;
      enum { kFree, kHeld };
      enum { kAcquire, kRelease };
      p.states = {"free", "held"};
      p.events = {acquire, release};
      p.recv_globs = {glob};
      p.transitions = {{kFree, kAcquire, kHeld}, {kHeld, kRelease, kFree}};
      p.obligations = {
          {kHeld, kRelease,
           "release on every path (early return/continue?) and before "
           "parking, or split the handoff into its own function"},
      };
      ps.push_back(std::move(p));
    };
    pairing("*", "acquire", "release",
            "acquire/release, ring alloc/free_oldest or rob_ alloc/retire "
            "pair still held at function exit, or at a suspension that "
            "never returns, on some path");
    pairing("*ring*", "alloc", "free_oldest", {});
    pairing("rob_", "alloc", "retire", {});

    {
      // PutStatus out-param discipline (docs/DURABILITY.md): a status a
      // durable write filled (`&st`) or that was assigned must be read on
      // every path before the function ends. Gated on the declaration: only
      // a function that owns the status answers for it -- writing a
      // caller's out-param is the callee's whole job.
      TsProtocol p;
      p.rule_name = "unchecked-status-path";
      p.description =
          "PutStatus filled through an out-param or assigned, but not read "
          "on some path to function exit";
      enum { kClean, kFilled };
      enum { kDeclare, kFill, kWrite, kCheck };
      p.states = {"clean", "filled"};
      p.events = {"declare", "fill", "write", "check"};
      p.type_names = {"PutStatus"};
      p.transitions = {{kClean, kFill, kFilled},
                       {kClean, kWrite, kFilled},
                       {kFilled, kCheck, kClean},
                       {kFilled, kDeclare, kClean}};
      p.obligations = {
          {kFilled, kDeclare,
           "a failed durable write would go unnoticed; check the status on "
           "every path (docs/DURABILITY.md)"},
      };
      p.path_prefixes = {"src/", "examples/"};
      ps.push_back(std::move(p));
    }

    return ps;
  }();
  return kProtocols;
}

std::vector<std::unique_ptr<Rule>> make_typestate_rules() {
  const auto& ps = typestate_protocols();
  std::vector<std::pair<std::string_view, std::uint32_t>> ids;
  for (std::size_t p = 0; p < ps.size(); ++p) {
    auto it = std::find_if(ids.begin(), ids.end(), [&](const auto& id) {
      return id.first == ps[p].rule_name;
    });
    if (it == ids.end()) it = ids.insert(ids.end(), {ps[p].rule_name, 0});
    it->second |= std::uint32_t{1} << p;
  }
  std::vector<std::unique_ptr<Rule>> out;
  for (const auto& [name, tables] : ids) {
    out.push_back(std::make_unique<TypestateRule>(name, tables));
  }
  return out;
}

}  // namespace lint
