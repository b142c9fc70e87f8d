#include "lint/summary.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "lint/rules.hpp"
#include "lint/typestate.hpp"

namespace lint {

namespace {

// --- typestate events ------------------------------------------------------

constexpr std::uint32_t bit(std::size_t p) { return std::uint32_t{1} << p; }

/// Lookup tables over every protocol, built once: which (protocol, event)
/// pairs a method verb names, which protocols track a declared type, and
/// each protocol's event id per plain-use form (-1 when not listed).
struct EventIndex {
  std::map<std::string_view, std::vector<std::pair<std::size_t, int>>,
           std::less<>>
      verbs;
  std::map<std::string_view, std::uint32_t, std::less<>> types;
  std::vector<std::array<int, kTsFormEvents.size()>> forms;
  std::uint32_t form_tables = 0;  ///< protocols listing any form event
};

const EventIndex& event_index() {
  static const EventIndex kIndex = [] {
    EventIndex idx;
    const auto& ps = typestate_protocols();
    for (std::size_t p = 0; p < ps.size(); ++p) {
      auto& forms = idx.forms.emplace_back();
      forms.fill(-1);
      for (std::size_t e = 0; e < ps[p].events.size(); ++e) {
        const std::string_view name = ps[p].events[e];
        idx.verbs[name].emplace_back(p, static_cast<int>(e));
        for (std::size_t k = 0; k < kTsFormEvents.size(); ++k) {
          if (name != kTsFormEvents[k]) continue;
          forms[k] = static_cast<int>(e);
          idx.form_tables |= bit(p);
        }
      }
      for (const std::string_view t : ps[p].type_names) idx.types[t] |= bit(p);
    }
    return idx;
  }();
  return kIndex;
}

enum Form { kDeclare, kFill, kWrite, kMove, kCheck };

/// A direct event; for a plain-use form inside an argument of a resolved
/// call, also that argument -- a callee effect on it replaces the event.
struct DirectEvent {
  TsEventRef ev;
  const CallSite* site = nullptr;
  int arg = -1;
};

/// One function's direct events (computed once) plus what is needed to
/// splice callee effects in later rounds.
struct FuncEvents {
  std::vector<std::vector<DirectEvent>> blocks;
  std::vector<const CallSite*> calls;  ///< resolved call sites
  std::vector<std::size_t> call_block;  ///< parallel to `calls`
  /// Typed objects the function owns: body locals and by-value parameters.
  /// Their events never lift into callers' summaries.
  std::set<std::string_view> owned;
};

/// Collects identifiers declared in [lo, hi) with a tracked type name:
/// `TypeName [<...>] [&|&&|*]* name` followed by a declarator terminator.
/// Handles both parameter lists (`sim::Mailbox<int>& mb,`) and body-local
/// declarations (`KvStore store(dev);`), whose name tokens land in `decls`.
/// Objects the function owns -- body locals (`decls` non-null) and
/// parameters taken by value (no `&`, `&&` or `*`) -- land in `owned`.
void collect_typed(const std::vector<Token>& toks, std::size_t lo,
                   std::size_t hi, std::uint32_t sel,
                   std::map<std::string_view, std::uint32_t>* typed,
                   std::set<std::size_t>* decls,
                   std::set<std::string_view>* owned) {
  const auto& types = event_index().types;
  hi = std::min(hi, toks.size());
  for (std::size_t i = lo; i < hi; ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const auto t = types.find(toks[i].text);
    if (t == types.end() || (t->second & sel) == 0) continue;
    std::size_t j = i + 1;
    if (j < hi && toks[j].is("<")) {
      int depth = 1;
      ++j;
      while (j < hi && depth > 0) {
        if (toks[j].is("<")) ++depth;
        else if (toks[j].is(">")) --depth;
        else if (toks[j].is(">>")) depth -= 2;
        else if (toks[j].is(";")) break;  // comparison, not a template
        ++j;
      }
      if (depth > 0) continue;
    }
    const std::size_t type_end = j;
    while (j < hi && (toks[j].is("&") || toks[j].is("&&") || toks[j].is("*")))
      ++j;
    if (j >= hi || toks[j].kind != Tok::kIdent) continue;
    if (j + 1 < toks.size() &&
        (toks[j + 1].is(";") || toks[j + 1].is("=") || toks[j + 1].is("{") ||
         toks[j + 1].is("(") || toks[j + 1].is(",") || toks[j + 1].is(")"))) {
      (*typed)[toks[j].text] |= t->second & sel;
      if (decls != nullptr) decls->insert(j);
      if (decls != nullptr || j == type_end) owned->insert(toks[j].text);
    }
  }
}

/// The direct events of one function for the protocols in `sel`, in one
/// token pass. `sites` (null without summaries) supplies the resolved calls
/// whose effects later replace plain-use forms and splice in.
FuncEvents direct_ts_events(const std::vector<Token>& toks,
                            const ScopeInfo& scopes, int func_idx,
                            const Cfg& cfg, std::uint32_t sel,
                            const std::vector<CallSite>* sites, int def_id) {
  const EventIndex& idx = event_index();
  const auto& protos = typestate_protocols();
  const FuncScope& f = scopes.funcs[static_cast<std::size_t>(func_idx)];
  FuncEvents fe;
  fe.blocks.resize(cfg.blocks.size());
  for (std::size_t k = 0; sites != nullptr && k < sites->size(); ++k) {
    const CallSite& s = (*sites)[k];
    if (s.caller != def_id || s.callee < 0) continue;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      const CfgBlock& blk = cfg.blocks[b];
      if (s.name_tok >= blk.begin && s.name_tok < blk.end) {
        fe.calls.push_back(&s);
        fe.call_block.push_back(b);
        break;
      }
    }
  }

  std::map<std::string_view, std::uint32_t> typed;
  std::set<std::size_t> decls;
  if (f.param_open != SIZE_MAX && f.param_close != SIZE_MAX) {
    collect_typed(toks, f.param_open + 1, f.param_close + 1, sel, &typed,
                  nullptr, &fe.owned);
  }
  collect_typed(toks, f.body_begin + 1, f.body_end, sel, &typed, &decls,
                &fe.owned);

  std::map<std::string_view, std::uint32_t> tracked_memo;
  const auto tracked = [&](std::string_view recv) {
    const auto [it, fresh] = tracked_memo.try_emplace(recv, 0);
    if (fresh) {
      const auto t = typed.find(recv);
      std::uint32_t m = t == typed.end() ? 0 : t->second;
      for (std::size_t p = 0; p < protos.size(); ++p) {
        if ((sel & bit(p)) == 0 || (m & bit(p)) != 0) continue;
        for (const std::string_view g : protos[p].recv_globs) {
          if (glob_match(g, recv)) m |= bit(p);
        }
      }
      it->second = m & sel;
    }
    return it->second;
  };
  // Plain-use forms only matter for objects some form table tracks. When
  // those tables track by type alone, a function without such a typed
  // object skips the per-identifier lookups below entirely.
  std::uint32_t form_sel = idx.form_tables & sel;
  bool form_globs = false;
  for (std::size_t p = 0; p < protos.size(); ++p) {
    if ((form_sel & bit(p)) != 0) form_globs |= !protos[p].recv_globs.empty();
  }
  if (!form_globs) {
    std::uint32_t typed_forms = 0;
    for (const auto& [name, m] : typed) typed_forms |= m;
    form_sel &= typed_forms;
  }
  bool moves = false;  // some selected table observes `move`
  for (std::size_t p = 0; p < protos.size(); ++p) {
    moves |= (form_sel & bit(p)) != 0 && idx.forms[p][kMove] >= 0;
  }
  const auto enclosing_arg = [&](std::size_t i, std::string_view recv)
      -> std::pair<const CallSite*, int> {
    for (const CallSite* s : fe.calls) {
      for (std::size_t a = 0; a < s->args.size(); ++a) {
        const auto& [ab, ae] = s->args[a];
        if (i >= ab && i < ae && root_ident(toks, {ab, ae}) == recv) {
          return {s, static_cast<int>(a)};
        }
      }
    }
    return {nullptr, -1};
  };

  const auto nested = child_ranges(scopes, func_idx);
  // Statement ordinal within the block of each object's last `move`, so a
  // read in the same statement (the other arm of `c ? std::move(p) : p`)
  // is not taken for a read after the move. Counted only when `moves`.
  std::map<std::string_view, int> move_stmt;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    const std::size_t hi = std::min(blk.end, toks.size());
    move_stmt.clear();
    int depth = 0;
    int stmt = 0;
    for (std::size_t i = blk.begin; i < hi; ++i) {
      const Token& t = toks[i];
      if (moves && t.kind == Tok::kPunct && !in_ranges(nested, i)) {
        if (t.is("(") || t.is("[") || t.is("{")) ++depth;
        else if (t.is(")") || t.is("]") || t.is("}")) --depth;
        else if (t.is(";") && depth <= 0) ++stmt;
        continue;
      }
      if (t.kind != Tok::kIdent || in_ranges(nested, i)) continue;
      const std::string_view recv = toks[i].text;
      std::uint32_t done = 0;
      if (i + 3 < toks.size() &&
          (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
          toks[i + 2].kind == Tok::kIdent && toks[i + 3].is("(")) {
        const auto v = idx.verbs.find(toks[i + 2].text);
        if (v != idx.verbs.end()) {
          const std::uint32_t m = tracked(recv);
          for (const auto& [p, e] : v->second) {
            if ((m & bit(p)) == 0) continue;
            fe.blocks[b].push_back(
                {{p, e, std::string(recv), toks[i].line, i, -1, 0}});
            done |= bit(p);
          }
        }
      }
      if ((form_sel & ~done) == 0) continue;
      const std::uint32_t m = tracked(recv) & form_sel & ~done;
      if (m == 0) continue;
      Form form = kCheck;
      if (decls.count(i) != 0) {
        form = kDeclare;
      } else if (!plain_use(toks, i)) {
        continue;
      } else if (i >= 2 && toks[i - 1].is("&") &&
                 (toks[i - 2].is("(") || toks[i - 2].is(","))) {
        form = kFill;
      } else if (i + 1 < toks.size() && toks[i + 1].is("=")) {
        form = kWrite;
      } else if (i >= 4 && toks[i - 1].is("(") && toks[i - 2].ident("move") &&
                 toks[i - 3].is("::") && toks[i - 4].ident("std") &&
                 i + 1 < toks.size() && toks[i + 1].is(")")) {
        form = kMove;
        move_stmt[recv] = stmt;
      }
      const auto ms = move_stmt.find(recv);
      const bool read_in_move_stmt =
          form == kCheck && ms != move_stmt.end() && ms->second == stmt;
      const auto [site, arg] =
          form == kDeclare || form == kMove
              ? std::pair<const CallSite*, int>{nullptr, -1}
              : enclosing_arg(i, recv);
      for (std::size_t p = 0; p < protos.size(); ++p) {
        const int e = idx.forms[p][form];
        if ((m & bit(p)) == 0 || e < 0) continue;
        if (read_in_move_stmt && idx.forms[p][kMove] >= 0) continue;
        fe.blocks[b].push_back(
            {{p, e, std::string(recv), toks[i].line, i, -1, 0}, site, arg});
      }
    }
  }
  return fe;
}

bool has_effect(const FuncSummary& s, std::size_t protocol, int param) {
  for (const ProtocolEffect& e : s.protocols) {
    if (e.protocol == protocol && e.recv_param == param) return true;
  }
  return false;
}

/// Direct events plus the protocol effects of resolved callees spliced in
/// at their call sites, per block in token order. The receiver substitutes
/// through parameter positions (the caller's argument root identifier);
/// tracking is trusted -- the callee established the object's type, so the
/// caller needs no glob match. Without `sums` only direct events remain.
std::vector<std::vector<TsEventRef>> merge_ts_events(
    const FuncEvents& fe, const std::vector<FuncSummary>* sums,
    const std::vector<Token>& toks, std::uint32_t sel) {
  std::vector<std::vector<TsEventRef>> evs(fe.blocks.size());
  for (std::size_t b = 0; b < fe.blocks.size(); ++b) {
    for (const DirectEvent& d : fe.blocks[b]) {
      if (sums != nullptr && d.site != nullptr &&
          has_effect((*sums)[static_cast<std::size_t>(d.site->callee)],
                     d.ev.protocol, d.arg)) {
        continue;
      }
      evs[b].push_back(d.ev);
    }
  }
  if (sums == nullptr) return evs;
  std::vector<bool> spliced(evs.size(), false);
  for (std::size_t k = 0; k < fe.calls.size(); ++k) {
    const CallSite& site = *fe.calls[k];
    const FuncSummary& cs = (*sums)[static_cast<std::size_t>(site.callee)];
    for (const ProtocolEffect& e : cs.protocols) {
      if ((sel & bit(e.protocol)) == 0) continue;
      std::string recv = e.recv;
      if (e.recv_param >= 0) {
        const auto a = static_cast<std::size_t>(e.recv_param);
        if (a >= site.args.size()) continue;
        const std::string_view r = root_ident(toks, site.args[a]);
        if (r.empty()) continue;
        recv = std::string(r);
      }
      auto& block = evs[fe.call_block[k]];
      for (std::size_t j = 0; j < e.events.size(); ++j) {
        block.push_back({e.protocol, e.events[j], recv, site.line,
                         site.name_tok, site.callee, e.lines[j]});
      }
      spliced[fe.call_block[k]] = true;
    }
  }
  for (std::size_t b = 0; b < evs.size(); ++b) {
    if (!spliced[b]) continue;
    std::stable_sort(evs[b].begin(), evs[b].end(),
                     [](const TsEventRef& x, const TsEventRef& y) {
                       return x.tok < y.tok;
                     });
  }
  return evs;
}

/// Blocks that lie on *every* entry-to-exit path and inside *no* cycle --
/// the only blocks whose events a ProtocolEffect may record (anything
/// conditional or repeated has no fixed order to splice into a caller).
/// All-false when the exit is unreachable (a `while (true)` pump: callers
/// never observe its events completing).
std::vector<bool> mandatory_acyclic(const Cfg& cfg) {
  const auto n = cfg.blocks.size();
  std::vector<bool> out(n, false);
  const auto reaches = [&](int from, int to, int skip) {
    if (from == skip) return false;
    std::vector<bool> seen(n, false);
    std::vector<int> work{from};
    seen[static_cast<std::size_t>(from)] = true;
    while (!work.empty()) {
      const int b = work.back();
      work.pop_back();
      if (b == to) return true;
      for (const int s : cfg.block(b).succ) {
        if (s == skip || seen[static_cast<std::size_t>(s)]) continue;
        seen[static_cast<std::size_t>(s)] = true;
        work.push_back(s);
      }
    }
    return false;
  };
  if (!reaches(cfg.entry, cfg.exit, -1)) return out;
  for (std::size_t b = 0; b < n; ++b) {
    const int bi = static_cast<int>(b);
    if (!reaches(cfg.entry, bi, -1)) continue;
    // Mandatory: removing the block disconnects entry from exit.
    if (bi != cfg.entry && bi != cfg.exit && reaches(cfg.entry, cfg.exit, bi)) {
      continue;
    }
    // Acyclic: the block cannot reach itself.
    bool cyclic = false;
    for (const int s : cfg.block(bi).succ) cyclic |= reaches(s, bi, -1);
    out[b] = !cyclic;
  }
  return out;
}

constexpr std::size_t kMaxProtocolEvents = 8;

/// Folds per-block typestate events into ProtocolEffects, ordered by
/// (protocol, receiver): one per key whose events all sit in mandatory
/// acyclic blocks (fixed order), capped, and not an object the function
/// owns (a body local or a by-value parameter).
std::vector<ProtocolEffect> effects_from_ts_events(
    const std::vector<bool>& mand,
    const std::vector<std::vector<TsEventRef>>& evs, const FuncScope& f,
    bool params_reliable, const std::set<std::string_view>& owned) {
  using Key = std::pair<std::size_t, std::string_view>;
  std::map<Key, std::vector<const TsEventRef*>> by_key;
  std::set<Key> opaque;
  for (std::size_t b = 0; b < evs.size(); ++b) {
    for (const TsEventRef& e : evs[b]) {
      if (mand[b]) {
        by_key[{e.protocol, e.recv}].push_back(&e);
      } else {
        opaque.insert({e.protocol, e.recv});  // a conditional event poisons
      }
    }
  }
  std::vector<ProtocolEffect> out;
  for (auto& [key, refs] : by_key) {
    if (opaque.count(key) != 0 || owned.count(key.second) != 0 ||
        refs.size() > kMaxProtocolEvents) {
      continue;
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const TsEventRef* a, const TsEventRef* b) {
                       return a->tok < b->tok;
                     });
    ProtocolEffect e;
    e.protocol = key.first;
    e.recv = std::string(key.second);
    for (const TsEventRef* r : refs) {
      e.events.push_back(r->event);
      e.lines.push_back(r->line);
    }
    if (params_reliable) {
      for (std::size_t pi = 0; pi < f.params.size(); ++pi) {
        if (f.params[pi].name == e.recv) {
          e.recv_param = static_cast<int>(pi);
          break;
        }
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

bool same_protocol_effects(const std::vector<ProtocolEffect>& a,
                           const std::vector<ProtocolEffect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].protocol != b[i].protocol ||
        a[i].recv_param != b[i].recv_param || a[i].recv != b[i].recv ||
        a[i].events != b[i].events) {
      return false;
    }
  }
  return true;
}

// --- cache -----------------------------------------------------------------

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::string_view kCacheMagic = "snacc-lint-cache v4";

bool load_cache(const std::string& path,
                const std::vector<const SourceFile*>& files,
                const std::vector<ScopeInfo>& scopes, std::size_t ndefs,
                std::vector<FuncSummary>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != kCacheMagic) return false;
  std::size_t nfiles = 0, cached_defs = 0;
  if (!(in >> nfiles >> cached_defs)) return false;
  if (nfiles != files.size() || cached_defs != ndefs) return false;
  // All-or-nothing validation: every file must match by relative path,
  // content hash, and function count. A changed callee invalidates its
  // callers transitively, so partial reuse would need a dependency walk --
  // full recompute is the simple sound answer.
  for (std::size_t i = 0; i < nfiles; ++i) {
    std::uint64_t hash = 0;
    std::size_t nfuncs = 0;
    std::string rel;
    if (!(in >> hash >> nfuncs)) return false;
    if (!std::getline(in, rel)) return false;
    if (!rel.empty() && rel.front() == ' ') rel.erase(0, 1);
    if (rel != files[i]->rel() || hash != fnv1a(files[i]->text()) ||
        nfuncs != scopes[i].funcs.size()) {
      return false;
    }
  }
  std::vector<FuncSummary> sums(ndefs);
  for (std::size_t d = 0; d < ndefs; ++d) {
    std::string tag;
    int async = 0;
    std::size_t nparams = 0, nproto = 0;
    if (!(in >> tag >> async >> nparams >> nproto) || tag != "D") {
      return false;
    }
    FuncSummary& s = sums[d];
    s.returns_async = async != 0;
    s.params.resize(nparams);
    for (ParamEffect& p : s.params) {
      int t = 0;
      if (!(in >> tag >> t >> p.touch_def >> p.touch_line) || tag != "P") {
        return false;
      }
      p.touched = t != 0;
    }
    s.protocols.resize(nproto);
    for (ProtocolEffect& e : s.protocols) {
      std::size_t nev = 0;
      if (!(in >> tag >> e.protocol >> e.recv_param >> nev) || tag != "T" ||
          nev > kMaxProtocolEvents) {
        return false;
      }
      e.events.resize(nev);
      e.lines.resize(nev);
      for (int& ev : e.events) {
        if (!(in >> ev)) return false;
      }
      for (std::uint32_t& ln : e.lines) {
        if (!(in >> ln)) return false;
      }
      if (!(in >> e.recv)) return false;
    }
  }
  *out = std::move(sums);
  return true;
}

void save_cache(const std::string& path,
                const std::vector<const SourceFile*>& files,
                const std::vector<ScopeInfo>& scopes,
                const std::vector<FuncSummary>& sums) {
  std::ofstream out(path);
  if (!out) return;  // best effort: a missing cache only costs recompute
  out << kCacheMagic << '\n' << files.size() << ' ' << sums.size() << '\n';
  for (std::size_t i = 0; i < files.size(); ++i) {
    out << fnv1a(files[i]->text()) << ' ' << scopes[i].funcs.size() << ' '
        << files[i]->rel() << '\n';
  }
  for (const FuncSummary& s : sums) {
    out << "D " << int(s.returns_async) << ' ' << s.params.size() << ' '
        << s.protocols.size() << '\n';
    for (const ParamEffect& p : s.params) {
      out << "P " << int(p.touched) << ' ' << p.touch_def << ' '
          << p.touch_line << '\n';
    }
    for (const ProtocolEffect& e : s.protocols) {
      out << "T " << e.protocol << ' ' << e.recv_param << ' '
          << e.events.size();
      for (const int ev : e.events) out << ' ' << ev;
      for (const std::uint32_t ln : e.lines) out << ' ' << ln;
      out << ' ' << e.recv << '\n';
    }
  }
}

// --- local extraction + propagation ----------------------------------------

/// One touch-forwarding edge: `def` passes its parameter #param as argument
/// #arg of `site` (whose callee is resolved).
struct FwdRec {
  int param;
  const CallSite* site;
  int arg;
};

void local_param_effects(const std::vector<Token>& toks,
                         const ScopeInfo& scopes, int func_idx,
                         const std::vector<CallSite>& fsites, int def_id,
                         FuncSummary* s, std::vector<FwdRec>* fwd) {
  const FuncScope& f = scopes.funcs[static_cast<std::size_t>(func_idx)];
  s->params.resize(f.params.size());
  const auto nested = child_ranges(scopes, func_idx);
  std::vector<const CallSite*> own_sites;
  for (const CallSite& site : fsites) {
    if (site.caller == def_id && site.callee >= 0) own_sites.push_back(&site);
  }
  for (std::size_t i = f.body_begin + 1;
       i < f.body_end && i < toks.size(); ++i) {
    if (in_ranges(nested, i) || toks[i].kind != Tok::kIdent) continue;
    std::size_t pi = 0;
    while (pi < f.params.size() && f.params[pi].name != toks[i].text) ++pi;
    if (pi == f.params.size()) continue;
    ParamEffect& pe = s->params[pi];

    // Receiver of a method call: the parameter is "touched" here.
    if (!pe.touched && i + 3 < toks.size() &&
        (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
        toks[i + 2].kind == Tok::kIdent && toks[i + 3].is("(")) {
      pe.touched = true;
      pe.touch_def = def_id;
      pe.touch_line = toks[i].line;
    }

    // Passed along to a resolved callee: record the edge for propagation.
    for (const CallSite* site : own_sites) {
      for (std::size_t a = 0; a < site->args.size(); ++a) {
        const auto& [ab, ae] = site->args[a];
        if (i >= ab && i < ae && root_ident(toks, {ab, ae}) == toks[i].text) {
          fwd->push_back({static_cast<int>(pi), site, static_cast<int>(a)});
        }
      }
    }
  }
}

}  // namespace

std::vector<std::vector<TsEventRef>> typestate_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx,
    std::uint32_t protocols) {
  const bool whole = prog != nullptr;
  const FuncEvents fe = direct_ts_events(
      sf.tokens(), scopes, func_idx, cfg, protocols,
      whole ? &prog->graph.sites(file) : nullptr,
      whole ? prog->graph.def_of(file, func_idx) : -1);
  return merge_ts_events(fe, whole ? &prog->summaries : nullptr, sf.tokens(),
                         protocols);
}

ProgramInfo build_program(const std::vector<const SourceFile*>& files,
                          const std::vector<ScopeInfo>& scopes,
                          const std::vector<const CfgCache*>& cfgs,
                          const std::string& cache_path, bool* cache_hit) {
  ProgramInfo prog;
  prog.graph = CallGraph::build(files, scopes);
  prog.file_rels.reserve(files.size());
  for (const SourceFile* f : files) prog.file_rels.push_back(f->rel());
  const auto& defs = prog.graph.defs();
  if (cache_hit != nullptr) *cache_hit = false;
  if (!cache_path.empty() &&
      load_cache(cache_path, files, scopes, defs.size(), &prog.summaries)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return prog;
  }

  prog.summaries.assign(defs.size(), {});
  std::vector<std::vector<FwdRec>> fwd(defs.size());
  std::vector<std::vector<const CallSite*>> return_sites(defs.size());
  std::vector<FuncEvents> direct(defs.size());
  const std::uint32_t all = bit(typestate_protocols().size()) - 1;

  // Local pass: per-function facts that need no other function's summary,
  // including every direct typestate event (callee effects vary by round,
  // a function's own tokens do not).
  for (std::size_t d = 0; d < defs.size(); ++d) {
    const FuncDef& fd = defs[d];
    const auto fi = static_cast<std::size_t>(fd.file);
    const auto& toks = files[fi]->tokens();
    FuncSummary& s = prog.summaries[d];
    s.returns_async = fd.returns_async;
    const auto& sites = prog.graph.sites(fd.file);
    if (fd.params_reliable) {  // else positions would be skewed
      local_param_effects(toks, scopes[fi], fd.func, sites,
                          static_cast<int>(d), &s, &fwd[d]);
    }
    for (const CallSite& site : sites) {
      if (site.caller != static_cast<int>(d) || site.name_tok == 0) continue;
      const Token& before = toks[site.name_tok - 1];
      if (before.ident("return") || before.ident("co_return")) {
        return_sites[d].push_back(&site);
      }
    }
    direct[d] = direct_ts_events(toks, scopes[fi], fd.func,
                                 cfgs[fi]->get(fd.func), all, &sites,
                                 static_cast<int>(d));
  }

  // Phase 1: monotone fixpoint for touch / returns_async facts flowing
  // through resolved call edges. Bounded rounds; each fact only ever flips
  // false -> true, so the loop terminates early in practice.
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (std::size_t d = 0; d < defs.size(); ++d) {
      for (const FwdRec& fr : fwd[d]) {
        const auto c = static_cast<std::size_t>(fr.site->callee);
        if (!defs[c].params_reliable ||
            static_cast<std::size_t>(fr.arg) >=
                prog.summaries[c].params.size()) {
          continue;  // opaque parameter shape: learn nothing
        }
        ParamEffect& pe =
            prog.summaries[d].params[static_cast<std::size_t>(fr.param)];
        const ParamEffect& cpe =
            prog.summaries[c].params[static_cast<std::size_t>(fr.arg)];
        if (cpe.touched && !pe.touched) {
          pe = cpe;
          changed = true;
        }
      }
      if (defs[d].returns_auto && !prog.summaries[d].returns_async) {
        for (const CallSite* site : return_sites[d]) {
          if (site->callee >= 0 &&
              prog.summaries[static_cast<std::size_t>(site->callee)]
                  .returns_async) {
            prog.summaries[d].returns_async = true;
            changed = true;
            break;
          }
        }
      }
    }
    if (!changed) break;
  }

  // Phase 2: protocol effects. Each round recomputes every function's
  // effects with the current callee summaries spliced in at call sites
  // (Gauss-Seidel in def order); effects grow towards the key set
  // reachable through the call graph, so a handful of rounds covers any
  // realistic helper depth. Recursion stabilizes or, past the sequence
  // cap, drops to opaque instead of oscillating.
  std::vector<std::vector<bool>> mand(defs.size());
  for (int round = 0; round < 5; ++round) {
    bool changed = false;
    for (std::size_t d = 0; d < defs.size(); ++d) {
      const FuncEvents& fe = direct[d];
      if (fe.calls.empty() &&
          std::all_of(fe.blocks.begin(), fe.blocks.end(),
                      [](const auto& v) { return v.empty(); })) {
        continue;
      }
      const FuncDef& fd = defs[d];
      const auto fi = static_cast<std::size_t>(fd.file);
      const auto evs =
          merge_ts_events(fe, &prog.summaries, files[fi]->tokens(), all);
      std::vector<ProtocolEffect> effects;
      if (std::any_of(evs.begin(), evs.end(),
                      [](const auto& v) { return !v.empty(); })) {
        if (mand[d].empty()) {
          mand[d] = mandatory_acyclic(cfgs[fi]->get(fd.func));
        }
        effects = effects_from_ts_events(
            mand[d], evs, scopes[fi].funcs[static_cast<std::size_t>(fd.func)],
            fd.params_reliable, fe.owned);
      }
      if (!same_protocol_effects(effects, prog.summaries[d].protocols)) {
        prog.summaries[d].protocols = std::move(effects);
        changed = true;
      }
    }
    if (!changed) break;
  }

  if (!cache_path.empty()) {
    save_cache(cache_path, files, scopes, prog.summaries);
  }
  return prog;
}

}  // namespace lint
