// Interprocedural unchecked-status-path fixture: the status flows through
// helpers by reference, with no `&` at the call site for the local rule to
// see. A helper whose summary *writes* its PutStatus out-param is a fill;
// one that *checks* it is the check. Every positive here is silent under
// --no-summaries. Fixtures are scanned, not compiled.
namespace fix {

// Writes its out-param: callers that drop the verdict are on the hook.
void ips_fill(Store* store, PutStatus& st) {
  st = store->put_sync("k", 1);
}

// Checks its argument on its only path (by-value consume inside).
void ips_require(PutStatus& st) {
  require_ok(st);
}

// Only casts its PutStatus parameter away: a plain read, so a check.
void ips_ignore(PutStatus& st) {
  (void)st;
}

// POSITIVE: filled one call deep, checked only on the logging branch.
sim::Task ips_one_branch(Store* store, bool verbose) {
  PutStatus st = PutStatus::kOk;
  ips_fill(store, st);
  if (verbose) {
    report(st);
  }
  co_return;
}

// POSITIVE: filled one call deep, the overload early-exit drops it.
sim::Task ips_early_exit(Store* store, bool overloaded) {
  PutStatus st = PutStatus::kOk;
  ips_fill(store, st);
  if (overloaded) {
    co_return;
  }
  require_ok(st);
  co_return;
}

// NEGATIVE (near-miss): filled one call deep, checked one call deep on
// every path -- the checking helper's summary consumes the fill.
sim::Task ips_checked_by_helper(Store* store, bool fast) {
  PutStatus st = PutStatus::kOk;
  ips_fill(store, st);
  if (fast) {
    ips_require(st);
    co_return;
  }
  ips_require(st);
  co_return;
}

// NEGATIVE (near-miss): a helper that never writes the status is no fill;
// the direct fill below is checked on the only path.
sim::Task ips_inert_helper(Store* store) {
  PutStatus st = PutStatus::kOk;
  store->put("k", 2, &st);
  ips_ignore(st);
  require_ok(st);
  co_return;
}

// NEGATIVE (near-miss): the helper takes a plain int out-param, which is
// not a PutStatus -- nothing to track.
sim::Task ips_int_status(Store* store, bool verbose) {
  int st = 0;
  ips_fill_int(store, st);
  if (verbose) {
    report(st);
  }
  co_return;
}

}  // namespace fix
