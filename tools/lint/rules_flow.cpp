// use-after-move: the path-sensitive rule that stays hand-written on the
// CFG/dataflow layers (cfg.hpp, dataflow.hpp). It turns a function body into
// per-block gen/kill events, lets ForwardMay push them around branches and
// loops, and reports with the offending path attached (Finding::path ->
// SARIF codeFlows). The other path-sensitive rules are protocol tables on
// the typestate engine (typestate.cpp).
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/rules.hpp"

namespace lint {

namespace {

/// Appends the interior of a block path (everything between the first and
/// last step, which the caller renders itself) as PathSteps, skipping
/// synthetic blocks and repeated lines so the rendered flow stays tight.
void append_interior(const Cfg& cfg, const std::vector<int>& path,
                     const std::string& note, std::vector<PathStep>* steps) {
  std::uint32_t last = steps->empty() ? 0 : steps->back().line;
  for (std::size_t k = 1; k + 1 < path.size(); ++k) {
    const std::uint32_t ln = cfg.block(path[k]).line;
    if (ln == 0 || ln == last) continue;
    steps->push_back({ln, note});
    last = ln;
  }
}

// ---------------------------------------------------------------------------
// use-after-move

class UseAfterMove final : public Rule {
 public:
  std::string_view name() const override { return "use-after-move"; }
  std::string_view description() const override {
    return "moved-from Payload/Chunk local read on some path before "
           "reassignment";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.file.tokens();
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (f.body_end <= f.body_begin) continue;
      const auto nested = child_ranges(ctx.scopes, static_cast<int>(fi));

      // Tracked locals: declared in this body with a bare payload-carrying
      // value type directly before the name (`Payload p = ...`). Pointers,
      // references, templates (`optional<Chunk>`) don't match and stay out.
      std::map<std::string_view, std::size_t> vars;
      for (std::size_t i = f.body_begin + 1;
           i + 2 < toks.size() && i < f.body_end; ++i) {
        if (in_ranges(nested, i)) continue;
        if (!is_tracked_type(toks[i])) continue;
        if (toks[i + 1].kind != Tok::kIdent) continue;
        if (!toks[i + 2].is(";") && !toks[i + 2].is("=") &&
            !toks[i + 2].is("{") && !toks[i + 2].is("(")) {
          continue;
        }
        vars.try_emplace(toks[i + 1].text, vars.size());
      }
      if (vars.empty()) continue;
      const Cfg& cfg = ctx.cfgs.get(static_cast<int>(fi));

      enum class Kind { kMove, kKill, kRead };
      struct Ev {
        Kind kind;
        std::size_t var;
        std::uint32_t line;
        int stmt;  // statement ordinal within the block (for ternary arms)
      };
      std::vector<std::vector<Ev>> evs(cfg.blocks.size());
      // Last move line of each var per block, for path reconstruction.
      std::map<std::pair<int, std::size_t>, std::uint32_t> move_line;
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        const CfgBlock& blk = cfg.blocks[b];
        const std::size_t hi = std::min(blk.end, toks.size());
        int depth = 0;
        int stmt = 0;
        for (std::size_t i = blk.begin; i < hi; ++i) {
          if (in_ranges(nested, i)) continue;
          if (toks[i].kind == Tok::kPunct) {
            if (toks[i].is("(") || toks[i].is("[") || toks[i].is("{")) ++depth;
            else if (toks[i].is(")") || toks[i].is("]") || toks[i].is("}"))
              --depth;
            else if (toks[i].is(";") && depth <= 0) ++stmt;
            continue;
          }
          if (toks[i].kind != Tok::kIdent) continue;
          const auto vit = vars.find(toks[i].text);
          if (vit == vars.end()) continue;
          const std::size_t v = vit->second;
          if (i > 0 && is_tracked_type(toks[i - 1])) {
            evs[b].push_back(
                {Kind::kKill, v, toks[i].line, stmt});  // (re)declared
            continue;
          }
          const bool is_move = i >= 4 && i + 1 < toks.size() &&
                               toks[i - 1].is("(") &&
                               toks[i - 2].ident("move") &&
                               toks[i - 3].is("::") &&
                               toks[i - 4].ident("std") && toks[i + 1].is(")");
          if (is_move) {
            evs[b].push_back({Kind::kMove, v, toks[i].line, stmt});
            move_line[{static_cast<int>(b), v}] = toks[i].line;
            continue;
          }
          if (!plain_use(toks, i)) continue;
          if (i + 1 < toks.size() && toks[i + 1].is("=")) {
            evs[b].push_back({Kind::kKill, v, toks[i].line, stmt});  // reassign
          } else if (i > 0 && toks[i - 1].is("&")) {
            evs[b].push_back({Kind::kKill, v, toks[i].line, stmt});  // escapes
          } else {
            evs[b].push_back({Kind::kRead, v, toks[i].line, stmt});
          }
        }
      }

      ForwardMay df(cfg, vars.size());
      std::vector<int> state(vars.size());
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (evs[b].empty()) continue;
        std::fill(state.begin(), state.end(), 0);
        for (const Ev& e : evs[b]) {
          if (e.kind == Kind::kMove) state[e.var] = 1;
          if (e.kind == Kind::kKill) state[e.var] = -1;
        }
        for (std::size_t v = 0; v < vars.size(); ++v) {
          if (state[v] == 1) df.add_gen(static_cast<int>(b), v);
          if (state[v] == -1) df.add_kill(static_cast<int>(b), v);
        }
      }
      df.solve();

      // Report pass: walk each block's events with the solved in-state,
      // flagging reads while the var is (may-)moved.
      std::vector<std::string_view> names(vars.size());
      for (const auto& [n, v] : vars) names[v] = n;
      std::vector<std::pair<std::size_t, std::uint32_t>> reported;
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (evs[b].empty()) continue;
        std::vector<bool> moved(vars.size());
        std::vector<std::uint32_t> local_move(vars.size(), 0);
        std::vector<int> local_move_stmt(vars.size(), -1);
        for (std::size_t v = 0; v < vars.size(); ++v) {
          moved[v] = df.in(static_cast<int>(b), v);
        }
        for (const Ev& e : evs[b]) {
          if (e.kind == Kind::kMove) {
            moved[e.var] = true;
            local_move[e.var] = e.line;
            local_move_stmt[e.var] = e.stmt;
            continue;
          }
          if (e.kind == Kind::kKill) {
            moved[e.var] = false;
            local_move[e.var] = 0;
            local_move_stmt[e.var] = -1;
            continue;
          }
          if (!moved[e.var]) continue;
          // A read in the same statement as the move is almost always the
          // other arm of a conditional operator (`c ? std::move(p) :
          // concat(a, p)`), where only one arm runs; the statement-level
          // CFG cannot split those, so same-statement pairs stay silent by
          // design.
          if (local_move_stmt[e.var] == e.stmt) continue;
          if (std::find(reported.begin(), reported.end(),
                        std::make_pair(e.var, e.line)) != reported.end()) {
            continue;
          }
          reported.emplace_back(e.var, e.line);
          const std::string vn(names[e.var]);
          Finding fd{ctx.file.rel(), e.line, std::string(name()),
                     "'" + vn +
                         "' is read here but was moved from on some path "
                         "and not reassigned; reassign before reading or "
                         "restructure the branch",
                     {}};
          if (local_move[e.var] != 0) {
            fd.path.push_back(
                {local_move[e.var], "'" + vn + "' moved from here"});
          } else {
            const auto path = df.live_path(static_cast<int>(b), e.var);
            std::uint32_t mv = 0;
            if (!path.empty()) {
              const auto mit = move_line.find({path.front(), e.var});
              if (mit != move_line.end()) mv = mit->second;
            }
            fd.path.push_back(
                {mv == 0 ? e.line : mv, "'" + vn + "' moved from here"});
            if (!path.empty()) {
              append_interior(cfg, path, "'" + vn + "' still moved-from",
                              &fd.path);
            }
          }
          fd.path.push_back({e.line, "'" + vn + "' read while moved-from"});
          out->push_back(std::move(fd));
        }
      }
    }
  }

 private:
  static bool is_tracked_type(const Token& t) {
    return t.ident("Payload") || t.ident("Chunk");
  }
};

}  // namespace

std::unique_ptr<Rule> make_use_after_move() {
  return std::make_unique<UseAfterMove>();
}

}  // namespace lint
