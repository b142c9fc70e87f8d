// value-escape: `.value()` on a strong domain type (TimePs, Bytes, BusAddr,
// Lba, Cid, SlotIdx, ...) is the sanctioned escape hatch to a raw integer --
// but every escape is a place where the unit/typo protection the wrappers
// buy is switched off. This rule inverts the default: raw escapes are only
// allowed where a per-directory policy says the boundary is *supposed* to
// be raw (wire formats, the byte-addressed memory substrate, the generic
// sim kernel), or where an inline `allow(value-escape)` documents the
// specific site. Everywhere else, code must stay in the typed domain or
// use a typed helper from common/units.hpp.
#include "lint/rules.hpp"

namespace lint {

namespace {

class ValueEscape final : public Rule {
 public:
  std::string_view name() const override { return "value-escape"; }
  std::string_view description() const override {
    return ".value() escape from a domain type outside the per-directory "
           "raw-boundary policy; stay typed or add a reasoned allow()";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    // Only enforce inside src/: tests, benches and tools talk to raw
    // integers by nature (assertions, counters, CLI plumbing).
    if (!starts_with(ctx.file.rel(), "src/")) return;
    for (const PolicyEntry& p : value_escape_policy()) {
      if (starts_with(ctx.file.rel(), p.prefix)) return;
    }
    const auto& toks = ctx.file.tokens();
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      // Pattern: `.value()` -- member call with no arguments. The domain
      // wrappers are value types accessed with `.`; `->value()` is some
      // pointer-like type (std::optional et al.) and is out of scope, as is
      // `value(x)` (a free function) or `.value_or(...)`.
      if (!toks[i].ident("value")) continue;
      if (!toks[i - 1].is(".")) continue;
      if (!toks[i + 1].is("(") || !toks[i + 2].is(")")) continue;
      out->push_back(
          {ctx.file.rel(), toks[i].line, std::string(name()),
           ".value() escapes the typed domain outside a policy'd raw "
           "boundary; use a typed helper from common/units.hpp or add "
           "'// snacc-lint: allow(value-escape): <reason>'"});
    }
  }
};

}  // namespace

// Directories where raw integers are the *point*: each prefix names a layer
// whose job is to translate between the typed domain and a raw substrate.
// Mirrored in the policy table in docs/STATIC_ANALYSIS.md; keep in sync.
const std::vector<PolicyEntry>& value_escape_policy() {
  static const std::vector<PolicyEntry> kPolicy = {
      {"src/common/", "defines the unit layer itself; conversions live here"},
      {"src/mem/", "byte-addressed backing-store substrate is raw by design"},
      {"src/sim/", "generic event kernel takes raw counts, not device units"},
      {"src/nvme/", "NVMe wire formats (SQE/CQE/PRP) and NAND byte geometry"},
      {"src/spdk/", "host driver writing raw register/queue-entry images"},
      {"src/host/", "host DRAM sizing"},
      {"src/snacc/prp_engine.", "synthesizes raw PRP entries for the SSD"},
      {"src/snacc/buffer_backend.", "adapter onto the raw mem:: port API"},
      {"src/pcie/memory_target.", "adapter onto the raw mem:: port API"},
  };
  return kPolicy;
}

std::unique_ptr<Rule> make_value_escape() {
  return std::make_unique<ValueEscape>();
}

}  // namespace lint
