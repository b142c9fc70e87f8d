// Interprocedural resource-pairing fixture: acquires and releases that
// happen one call deep. The helpers themselves are one-sided (acquire-only
// or release-only bodies never arm the pairing gate); only the caller, with
// callee summaries substituted at the call sites, sees the full pair.
// Every positive here is silent under --no-summaries.
// Fixtures are scanned, not compiled.
namespace fix {

// Acquire-only helper: `gate->acquire()` keyed to its first parameter.
void ipr_grab(Sem* gate) {
  gate->acquire();
}

// Release-only helper, the other half of the pair.
void ipr_put_back(Sem* gate) {
  gate->release();
}

// Balanced helper: acquires AND releases on its only path, so callers
// splice in the whole pair and the object ends where it started.
void ipr_probe(Sem* gate) {
  gate->acquire();
  gate->release();
}

// POSITIVE: the error branch co_returns while the helper-acquired credit
// is still held.
sim::Task ipr_leak_branch(Sem* gate, bool err) {
  ipr_grab(gate);
  if (err) {
    co_return;
  }
  ipr_put_back(gate);
}

// POSITIVE: `continue` jumps past the releasing helper, and the loop can
// then exit normally with the credit still held.
sim::Task ipr_leak_loop(Sem* gate, int n) {
  for (int i = 0; i < n; ++i) {
    ipr_grab(gate);
    if (full(i)) {
      continue;
    }
    ipr_put_back(gate);
  }
  co_return;
}

// NEGATIVE (near-miss): every path releases through the helper, including
// the early return.
sim::Task ipr_all_paths(Sem* gate, bool err) {
  ipr_grab(gate);
  if (err) {
    ipr_put_back(gate);
    co_return;
  }
  ipr_put_back(gate);
}

// NEGATIVE (near-miss): acquire-only handoff -- retirement releases this
// credit in another coroutine, so the pairing gate keeps it silent even
// though the summary substitutes the acquire.
sim::Task ipr_handoff(Sem* credits) {
  ipr_grab(credits);
  co_await push();
}

// NEGATIVE (near-miss): a balanced helper on a branch must not read as an
// unmatched acquire -- the direct pair below it is released on every path.
sim::Task ipr_balanced_call(Sem* gate, bool noisy) {
  gate->acquire();
  if (noisy) {
    ipr_probe(gate);
  }
  gate->release();
  co_return;
}

}  // namespace fix
