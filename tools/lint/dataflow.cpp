#include "lint/dataflow.hpp"

#include <algorithm>
#include <deque>

namespace lint {

ForwardMay::ForwardMay(const Cfg& cfg, std::size_t num_facts)
    : cfg_(cfg), words_(num_facts / 64 + 1) {
  const std::size_t n = cfg.blocks.size();
  gen_.assign(n, Row(words_, 0));
  kill_.assign(n, Row(words_, 0));
  in_.assign(n, Row(words_, 0));
  out_.assign(n, Row(words_, 0));
}

void ForwardMay::add_gen(int block, std::size_t fact) {
  set(gen_[static_cast<std::size_t>(block)], fact);
}

void ForwardMay::add_kill(int block, std::size_t fact) {
  set(kill_[static_cast<std::size_t>(block)], fact);
}

void ForwardMay::solve() {
  // Round-robin to fixed point: block counts per function are tiny, so a
  // worklist's bookkeeping would cost more than the extra sweeps.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      Row& ib = in_[b];
      for (const int p : cfg_.blocks[b].pred) {
        const Row& op = out_[static_cast<std::size_t>(p)];
        for (std::size_t w = 0; w < words_; ++w) ib[w] |= op[w];
      }
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t o = gen_[b][w] | (ib[w] & ~kill_[b][w]);
        if (o != out_[b][w]) {
          out_[b][w] = o;
          changed = true;
        }
      }
    }
  }
}

bool ForwardMay::in(int block, std::size_t fact) const {
  return get(in_[static_cast<std::size_t>(block)], fact);
}

std::vector<int> ForwardMay::live_path(int to, std::size_t fact) const {
  const std::size_t n = cfg_.blocks.size();
  std::vector<int> parent(n, -2);  // -2 unvisited, -1 a BFS source
  std::deque<int> queue;
  for (std::size_t b = 0; b < n; ++b) {
    if (get(gen_[b], fact)) {
      parent[b] = -1;
      queue.push_back(static_cast<int>(b));
    }
  }
  const auto reconstruct = [&](int end) {
    std::vector<int> path{end};
    for (int b = parent[static_cast<std::size_t>(end)]; b >= 0;
         b = parent[static_cast<std::size_t>(b)]) {
      path.push_back(b);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  if (parent[static_cast<std::size_t>(to)] == -1) return {to};
  while (!queue.empty()) {
    const int b = queue.front();
    queue.pop_front();
    // The fact must leave `b` alive to reach a successor.
    if (!get(out_[static_cast<std::size_t>(b)], fact)) continue;
    for (const int s : cfg_.blocks[static_cast<std::size_t>(b)].succ) {
      if (parent[static_cast<std::size_t>(s)] != -2) continue;
      parent[static_cast<std::size_t>(s)] = b;
      if (s == to) return reconstruct(s);
      queue.push_back(s);
    }
  }
  return {};
}

}  // namespace lint
