// Coroutine-lifetime rules. These need the scope tracker: which bodies are
// coroutines, where their suspension points sit, and what they capture --
// facts that are simply not expressible line-by-line.
#include <algorithm>
#include <array>

#include "lint/rules.hpp"
#include "lint/summary.hpp"

namespace lint {

namespace {

/// Identifiers that look like uses but never name captured state.
bool builtin_name(std::string_view t) {
  static constexpr std::array<std::string_view, 30> kNames = {
      "auto",     "bool",   "break",    "case",   "char",     "const",
      "continue", "double", "else",     "false",  "float",    "for",
      "if",       "int",    "nullptr",  "return", "sizeof",   "static",
      "std",      "switch", "this",     "true",   "void",     "while",
      "co_await", "co_return", "co_yield", "unsigned", "long", "short"};
  return std::find(kNames.begin(), kNames.end(), t) != kNames.end();
}

/// True when the identifier at `i` is a free-standing use: not a member
/// access (`x.f`, `x->f`), not a qualified name (`ns::f`, `f::g`), and not
/// a declaration keyword.
bool free_use(const std::vector<Token>& toks, std::size_t i) {
  return toks[i].kind == Tok::kIdent && !builtin_name(toks[i].text) &&
         plain_use(toks, i);
}

// ---------------------------------------------------------------------------
// dangling-capture
//
// A lambda coroutine's captures live in the *closure object*, not in the
// coroutine frame. The closure is usually a temporary that dies at the end
// of the full expression that started the coroutine, while the frame lives
// on across suspension points -- so a reference capture (or a reference
// parameter bound to a caller temporary) read after the first co_await is a
// read through a dangling reference. Uses *before* the first suspension run
// synchronously inside the starting expression and are fine, which is what
// makes this a scope/suspension question no regex can answer.

class DanglingCapture final : public Rule {
 public:
  std::string_view name() const override { return "dangling-capture"; }
  std::string_view description() const override {
    return "coroutine lambda reference capture or reference parameter used "
           "after a suspension point";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.file.tokens();
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (!f.is_coroutine || f.suspends.empty()) continue;

      const std::size_t first_susp = f.suspends.front();
      const auto nested = child_ranges(ctx.scopes, static_cast<int>(fi));

      if (f.is_lambda && f.has_ref_capture()) {
        bool default_ref = false;
        std::vector<std::string_view> ref_names;
        for (const Capture& c : f.captures) {
          if (c.kind == Capture::kDefaultRef) default_ref = true;
          if (c.kind == Capture::kByRef) ref_names.push_back(c.name);
        }
        if (default_ref) {
          // With [&] the implicit capture set is unknowable statically, and
          // every use after the first suspension is suspect: flag the
          // lambda itself.
          out->push_back(
              {ctx.file.rel(), f.header_line, std::string(name()),
               "coroutine lambda with default reference capture [&]: "
               "captured references live in the closure object, which is "
               "destroyed while the frame is suspended"});
        }
        report_uses(ctx, f, first_susp, nested, ref_names,
                    "reference capture '", out);
      }

      // Reference parameters: for lambdas, any reference parameter read
      // after suspension is suspect (the common spawn-a-lambda idiom binds
      // them to soon-dead locals). For named functions only rvalue-ref
      // parameters are flagged -- an lvalue-ref parameter in structured
      // `co_await child()` use is kept alive by the caller, but a `T&&`
      // parameter almost always binds a temporary.
      std::vector<std::string_view> ref_params;
      for (const Param& p : f.params) {
        if (f.is_lambda ? (p.is_lvalue_ref || p.is_rvalue_ref)
                        : p.is_rvalue_ref) {
          ref_params.push_back(p.name);
        }
      }
      report_uses(ctx, f, first_susp, nested, ref_params,
                  "reference parameter '", out);
      (void)toks;
    }
  }

 private:
  void report_uses(const RuleContext& ctx, const FuncScope& f,
                   std::size_t first_susp,
                   const std::vector<std::pair<std::size_t, std::size_t>>& nested,
                   const std::vector<std::string_view>& names,
                   std::string_view what, std::vector<Finding>* out) const {
    if (names.empty()) return;
    const auto& toks = ctx.file.tokens();
    // The awaited expression itself (`co_await s.delay(x)`) runs *before*
    // the coroutine suspends, so scanning starts after the end of the
    // statement containing the first suspension, not after the keyword.
    std::size_t start = first_susp;
    while (start < f.body_end && start < toks.size() &&
           !toks[start].is(";")) {
      ++start;
    }
    std::vector<std::string_view> reported;
    for (std::size_t i = start + 1; i < f.body_end && i < toks.size(); ++i) {
      if (in_ranges(nested, i)) continue;
      if (!free_use(toks, i)) continue;
      if (std::find(names.begin(), names.end(), toks[i].text) == names.end())
        continue;
      if (std::find(reported.begin(), reported.end(), toks[i].text) !=
          reported.end())
        continue;
      reported.push_back(toks[i].text);
      out->push_back({ctx.file.rel(), toks[i].line, std::string(name()),
                      std::string(what) + std::string(toks[i].text) +
                          "' used after a suspension point; the referent may "
                          "be gone by the time the coroutine resumes -- "
                          "capture/pass by value or keep the owner alive"});
    }
  }
};

// ---------------------------------------------------------------------------
// discarded-async
//
// Tasks are lazy: a `foo();` statement that drops a sim::Task destroys the
// frame before it ever runs, and a dropped sim::Future loses the only
// handle to a completion. The rule flags statement-position calls to any
// function whose declared return type mentions Task or Future (symbol table
// built across every scanned file). With the program layer on, the call
// graph extends the reach to calls the name table cannot type: a lambda
// bound to a name (`auto pump = [..]() -> sim::Task {..}; pump();`) and an
// `auto` function whose asyncness comes from summary propagation
// (`auto relay() { return job(); }`). `(void)`-casting is the explicit
// acknowledgement for posted operations and is not flagged, matching the
// [[nodiscard]] attributes on the types themselves.

class DiscardedAsync final : public Rule {
 public:
  std::string_view name() const override { return "discarded-async"; }
  std::string_view description() const override {
    return "result of a Task/Future-returning call is neither co_awaited, "
           "stored, nor passed on";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.file.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || !toks[i + 1].is("(")) continue;
      if (ctx.async_fns.find(toks[i].text) == ctx.async_fns.end()) continue;
      // Must be a full statement: `expr(...);` with nothing consuming the
      // result.
      const std::size_t close = match_forward(toks, i + 1);
      if (close + 1 >= toks.size() || !toks[close + 1].is(";")) continue;
      if (!at_statement_start(toks, i)) continue;
      // Skip declarations/definitions: `sim::Task name(...);` has type
      // tokens before the name, which at_statement_start already rejects
      // (the name is preceded by an identifier, not ; { }).
      out->push_back(
          {ctx.file.rel(), toks[i].line, std::string(name()),
       "result of Task/Future-returning '" + std::string(toks[i].text) +
               "' is discarded: the coroutine frame is destroyed before it "
               "runs; co_await it, store it, pass it to spawn(), or "
               "(void)-cast a deliberately posted operation"});
    }

    // Interprocedural extension: statement-position calls whose *resolved*
    // callee is async even though the name table cannot see it (bound
    // lambdas, propagated `auto` return types). Sites whose name is in the
    // table were already handled above; skipping them avoids duplicates.
    if (ctx.prog == nullptr) return;
    for (const CallSite& site : ctx.prog->graph.sites(ctx.file_index)) {
      if (!site.stmt_pos || site.callee < 0) continue;
      if (ctx.async_fns.find(site.callee_name) != ctx.async_fns.end()) {
        continue;
      }
      const auto c = static_cast<std::size_t>(site.callee);
      if (!ctx.prog->summaries[c].returns_async) continue;
      const std::string callee(site.callee_name.empty() ? "<lambda>"
                                                        : site.callee_name);
      Finding fd{
          ctx.file.rel(), site.line, std::string(name()),
          "result of Task/Future-returning '" + callee +
              "' is discarded: the coroutine frame is destroyed before it "
              "runs; co_await it, store it, pass it to spawn(), or "
              "(void)-cast a deliberately posted operation",
          {}};
      const auto& cd = ctx.prog->graph.defs()[c];
      fd.path.push_back({site.line, "'" + callee + "' called and dropped"});
      fd.path.push_back(
          {cd.line, "defined as async here",
           ctx.prog->file_rels[static_cast<std::size_t>(cd.file)]});
      out->push_back(std::move(fd));
    }
  }

 private:
  /// Walks the receiver chain (`a.b().c`, `ns::f`) back to the start of the
  /// expression; true when the token before it ends a statement.
  static bool at_statement_start(const std::vector<Token>& toks,
                                 std::size_t i) {
    std::size_t j = i;
    while (true) {
      // Qualified name: ns::f / Class::f.
      while (j >= 2 && toks[j - 1].is("::") &&
             toks[j - 2].kind == Tok::kIdent) {
        j -= 2;
      }
      if (j == 0) return true;
      const Token& p = toks[j - 1];
      if (p.is(".") || p.is("->")) {
        if (j < 2) return false;
        const Token& recv = toks[j - 2];
        if (recv.kind == Tok::kIdent) {
          j -= 2;
          continue;
        }
        if (recv.is(")") || recv.is("]")) {
          const std::size_t open = match_backward(toks, j - 2);
          if (open == SIZE_MAX) return false;
          if (open >= 1 && toks[open - 1].kind == Tok::kIdent) {
            j = open - 1;
            continue;
          }
          j = open;
          continue;
        }
        return false;
      }
      return p.is(";") || p.is("{") || p.is("}");
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_dangling_capture() {
  return std::make_unique<DanglingCapture>();
}
std::unique_ptr<Rule> make_discarded_async() {
  return std::make_unique<DiscardedAsync>();
}

}  // namespace lint
