// resource-pairing's parked-forever obligation: a coroutine acquires a
// credit (through a callee, so invisible without summaries, or directly),
// then can park at a suspension point from which no path ever reaches
// function exit -- the credit is held forever by a frame that never
// finishes. The pairing gate (a release somewhere in the body) still
// applies. The callee-acquired positives are silent under --no-summaries;
// the direct one (sl_direct) is not.
// Fixtures are scanned, not compiled.
namespace fix {

void sl_stage(Sem* credits) {
  credits->acquire();
}

void sl_put_back(Sem* credits) {
  credits->release();
}

// POSITIVE: the fast path releases and leaves; the slow path parks in a
// `while (true)` pump -- no exit edge -- with the staged credit held.
sim::Task sl_forever(Sem* credits, Chan* ch, bool fast) {
  sl_stage(credits);
  if (fast) {
    sl_put_back(credits);
    co_return;
  }
  while (true) {
    co_await ch->recv();
  }
}

// POSITIVE: released only on an interior branch that loops right back; the
// pump re-suspends with the credit possibly held and never co_returns.
sim::Task sl_pump(Sem* credits, Chan* ch) {
  sl_stage(credits);
  while (true) {
    co_await ch->recv();
    if (closing()) {
      sl_put_back(credits);
    }
  }
}

// NEGATIVE (near-miss): released through the helper on every path before
// the eternal pump -- nothing is held at the suspension.
sim::Task sl_release_first(Sem* credits, Chan* ch) {
  sl_stage(credits);
  sl_put_back(credits);
  while (true) {
    co_await ch->recv();
  }
}

// NEGATIVE (near-miss): the loop is bounded, every suspension can still
// reach the release and the function exit below it.
sim::Task sl_bounded(Sem* credits, Chan* ch, int n) {
  sl_stage(credits);
  for (int i = 0; i < n; ++i) {
    co_await ch->recv();
  }
  sl_put_back(credits);
  co_return;
}

// POSITIVE: a direct acquire; every exit path releases, but the slow path
// parks in the `while (true)` pump with the credit still held.
sim::Task sl_direct(Sem* credits, Chan* ch, bool fast) {
  credits->acquire();
  if (fast) {
    credits->release();
    co_return;
  }
  while (true) {
    co_await ch->recv();
  }
}

}  // namespace fix
