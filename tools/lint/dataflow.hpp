// liblint: forward dataflow over a Cfg.
//
// A deliberately small gen/kill framework: facts are dense small integers
// chosen by the rule (use-after-move's moved-from locals), the meet is
// union ("may" analysis), and the solver iterates to a fixed point so facts
// propagate correctly around loop back edges. A rule computes each block's
// *net* gen/kill by walking the block's tokens in order (last-event-wins),
// then reads `in` back, so intra-block precision stays in the rule and the
// framework stays small.
#pragma once

#include <cstdint>
#include <vector>

#include "lint/cfg.hpp"

namespace lint {

/// Forward may-analysis: out[b] = gen[b] ∪ (in[b] − kill[b]),
/// in[b] = ∪ out[p] over predecessors p, in[entry] = ∅.
class ForwardMay {
 public:
  ForwardMay(const Cfg& cfg, std::size_t num_facts);

  void add_gen(int block, std::size_t fact);
  void add_kill(int block, std::size_t fact);

  /// Iterates to a fixed point. Call once, after all gen/kill are set.
  void solve();

  bool in(int block, std::size_t fact) const;

  /// A shortest block path along which `fact` is generated and survives
  /// to `to`: starts at some block whose gen set holds `fact`, every
  /// interior block keeps it live (fact ∈ out), and ends at `to` (which
  /// need not preserve it). Returns {} if no such path exists -- callers
  /// should only ask after observing fact ∈ in(to) (or to being a gen
  /// block). Deterministic: BFS in block-index order.
  std::vector<int> live_path(int to, std::size_t fact) const;

 private:
  using Row = std::vector<std::uint64_t>;

  static bool get(const Row& r, std::size_t fact) {
    return (r[fact / 64] >> (fact % 64)) & 1u;
  }
  static void set(Row& r, std::size_t fact) {
    r[fact / 64] |= std::uint64_t{1} << (fact % 64);
  }

  const Cfg& cfg_;
  std::size_t words_;
  std::vector<Row> gen_, kill_, in_, out_;
};

}  // namespace lint
