//! Invariant evaluation on the round engine's worker pool
//! ([`statesman_types::par`]).

use statesman_types::WorkerPool;

/// Evaluate a list of invariants against one context and return the
/// first violation **in invariant order** — bit-identical to the serial
/// loop `for inv in invariants { if let Err(v) = inv.check(ctx) { return
/// Some(v) } }`, but with order-insensitive (pure) invariants fanned out
/// across `pool`.
///
/// Order-sensitive invariants (those whose `check` mutates caches that
/// later checks observe) are evaluated serially, in order, and *only*
/// when no earlier-indexed invariant has already failed — exactly the
/// set of evaluations the serial loop performs, so their cache
/// trajectories are preserved. Pure invariants may be evaluated
/// speculatively past the first failure; by definition that is
/// unobservable.
pub fn first_violation(
    pool: &WorkerPool,
    invariants: &[&dyn crate::invariants::Invariant],
    ctx: &crate::invariants::InvariantContext<'_>,
) -> Option<crate::invariants::Violation> {
    if invariants.is_empty() {
        return None;
    }
    let pure_idx: Vec<usize> = (0..invariants.len())
        .filter(|&i| !invariants[i].order_sensitive())
        .collect();
    let mut first: Option<(usize, crate::invariants::Violation)> = None;
    fn note(
        first: &mut Option<(usize, crate::invariants::Violation)>,
        i: usize,
        v: crate::invariants::Violation,
    ) {
        if first.as_ref().map(|(fi, _)| i < *fi).unwrap_or(true) {
            *first = Some((i, v));
        }
    }
    if pure_idx.len() == invariants.len() && pool.threads() <= 1 {
        // All pure, one thread: plain serial loop with early exit.
        for inv in invariants {
            if let Err(v) = inv.check(ctx) {
                return Some(v);
            }
        }
        return None;
    }
    let pure_errs = pool.run(&pure_idx, |_, &i| invariants[i].check(ctx).err());
    for (&i, err) in pure_idx.iter().zip(pure_errs) {
        if let Some(v) = err {
            note(&mut first, i, v);
        }
    }
    for (i, inv) in invariants.iter().enumerate() {
        if !inv.order_sensitive() {
            continue;
        }
        // The serial loop evaluates invariant i iff none of 0..i failed.
        if first.as_ref().map(|(fi, _)| *fi < i).unwrap_or(false) {
            continue;
        }
        if let Err(v) = inv.check(ctx) {
            note(&mut first, i, v);
        }
    }
    first.map(|(_, v)| v)
}
