// use-after-move fixture: a moved-from Payload/Chunk must not be read on
// any path before reassignment. A read in the same statement as the move
// (the other arm of a conditional operator) stays silent by design, and a
// helper's move of its own by-value copy does not reach the caller.
// Fixtures are scanned, not compiled.
namespace fix {

// POSITIVE: moved on the fast path, read unconditionally afterwards.
sim::Task branch_leak(bool fast) {
  Payload p = make();
  if (fast) {
    co_await sink(std::move(p));
  }
  use(p);
}

// POSITIVE: straight-line move, then a read after the suspension.
sim::Task straight_leak() {
  Chunk c = make_chunk();
  co_await sink_chunk(std::move(c));
  log_size(c);
}

// POSITIVE: the move from the previous loop iteration reaches the read at
// the top of the next one along the back edge.
sim::Task loop_leak(int n) {
  Payload acc = make();
  for (int i = 0; i < n; ++i) {
    append(acc);
    co_await sink(std::move(acc));
  }
}

// NEGATIVE (near-miss): reassigned before the read.
sim::Task reassigned(bool fast) {
  Payload p = make();
  co_await sink(std::move(p));
  p = make();
  use(p);
}

// NEGATIVE (near-miss): the conditional operator moves in one arm and
// reads in the other; only one arm runs, so the same-statement pair is
// silent.
sim::Task ternary_ok(bool first, Payload acc) {
  Payload part = make();
  acc = first ? std::move(part) : concat(acc, part);
  co_return;
}

// NEGATIVE (near-miss): only the member is moved from; the local itself is
// not tracked through member moves.
sim::Task member_move(Payload piece) {
  Chunk keep = wrap(piece);
  co_await sink(std::move(keep.data));
  use_chunk(keep);
}

// NEGATIVE (near-miss): a fresh declaration each iteration resets the
// moved-from state before any read.
sim::Task fresh_decl(int n) {
  for (int i = 0; i < n; ++i) {
    Payload q = make();
    co_await sink(std::move(q));
  }
}

// NEGATIVE (near-miss): a second move is a transfer, not a read.
sim::Task double_move(bool a) {
  Payload p = make();
  if (a) {
    co_await sink(std::move(p));
  } else {
    co_await sink(std::move(p));
  }
}

// NEGATIVE (near-miss): the helper moves from its own by-value copy, so
// its move does not lift into the caller, whose payload stays live.
void consume_copy(Payload copy) { stash(std::move(copy)); }

sim::Task by_value_helper() {
  Payload p = make();
  consume_copy(p);
  use(p);
}

}  // namespace fix
