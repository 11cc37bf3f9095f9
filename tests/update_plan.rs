//! Property tests for the update-plan synthesizer (ordered, minimal,
//! maximally-parallel transitions with in-flight invariant checks).
//!
//! Three properties, checked across chaos seeds:
//!
//! * **Intermediate-state safety** — under the upgrade-race plan (rolling
//!   firmware reboots racing heavy link flapping, plus flash-crowd TE
//!   churn), the ground truth sampled every round never loses a pod's
//!   aggregation capacity. The per-step in-flight checks are what gate
//!   transitions whose checker-time validation went stale.
//! * **Plan/chain-walk equivalence** — a planned run converges exactly
//!   like the serial chain walk the planner replaced: on a fault-free
//!   plan the outcome is pinned to the one both executors produced (the
//!   plan degenerates to chain-walk order when nothing depends on
//!   anything), and under multi-layer chaos it stays safe and converges
//!   to the realized intent.
//! * **Determinism** — the same seed replays to a bit-identical outcome,
//!   plan tallies included.

use proptest::prelude::*;
use statesman_chaos::{ChaosPlan, ChaosScenario, ScenarioOutcome};

/// The headline: rolling upgrades racing link failures and TE churn,
/// across five fixed seeds. Every round's ground truth keeps at least
/// one aggregation switch per pod, no round aborts, the campaign still
/// converges, and the plan actually planned something.
#[test]
fn upgrade_race_intermediate_states_stay_safe_across_seeds() {
    for seed in 1..=5u64 {
        let scenario = ChaosScenario::upgrade_race(seed);
        let outcome = scenario.run();
        assert!(
            outcome.safety_violations.is_empty(),
            "seed {seed}: intermediate state violated pod capacity: {:?}",
            outcome.safety_violations
        );
        assert_eq!(outcome.tick_errors, 0, "seed {seed}: rounds aborted");
        assert!(
            outcome.converged_at.is_some(),
            "seed {seed}: never converged: {outcome:?}"
        );
        assert!(
            outcome.plan_steps >= 1,
            "seed {seed}: the planned executor never planned: {outcome:?}"
        );
        assert!(
            outcome.plan_max_width > 1,
            "seed {seed}: no wave ran two steps side by side: {outcome:?}"
        );
        println!(
            "seed {seed}: converged at {:?}, plan_steps={}, max_width={}, \
             inflight_rejections={}, rollbacks={}",
            outcome.converged_at,
            outcome.plan_steps,
            outcome.plan_max_width,
            outcome.plan_inflight_rejections,
            outcome.plan_rollbacks
        );
    }
}

/// Fault-free equivalence: with no chaos, the plan degenerates to the
/// chain walk's execution order (independent steps keep their partition,
/// then key order inside one wave). The pinned outcome is the one both
/// executors produced for seeds 1–5 while the chain walk still existed;
/// only the plan tallies are the planner's own.
#[test]
fn quiet_planned_runs_match_the_chain_walk_bit_for_bit() {
    let golden = ScenarioOutcome {
        rounds_run: 30,
        converged_at: Some(9),
        safety_violations: vec![],
        degraded_rounds: 0,
        max_quarantined: 1,
        quarantine_rejections: 2,
        commands_failed: 0,
        updater_retries: 0,
        breakers_opened: 0,
        storage_retries: 0,
        tick_errors: 0,
        replicas_killed: 0,
        recoveries_completed: 0,
        recovery_truncated_records: 0,
        recovery_refusals: 0,
        recovery_violations: vec![],
        chain_violations: vec![],
        watermark_regressions: vec![],
        plan_steps: 7,
        plan_max_width: 2,
        plan_inflight_rejections: 0,
        plan_rollbacks: 0,
    };
    for seed in 1..=5u64 {
        let mut scenario = ChaosScenario::standard(seed);
        scenario.plan = ChaosPlan::quiet(seed);
        assert_eq!(scenario.run(), golden, "seed {seed}");
    }
}

/// Multi-layer chaos: under the standard plan the planned executor must
/// stay safe, never abort a round, and converge to the realized intent
/// (convergence is sampled on ground truth), as the chain walk did.
#[test]
fn chaos_planned_runs_converge_like_the_chain_walk() {
    for seed in 1..=5u64 {
        let o = ChaosScenario::standard(seed).run();
        assert!(
            o.safety_violations.is_empty(),
            "seed {seed}: {:?}",
            o.safety_violations
        );
        assert_eq!(o.tick_errors, 0, "seed {seed}: rounds aborted");
        assert!(
            o.converged_at.is_some(),
            "seed {seed}: never converged: {o:?}"
        );
    }
}

/// Double-run determinism, on the richest scenario: the upgrade-race run
/// (plan synthesis, in-flight checks, TE churn, heavy flapping) replays
/// bit-identically — plan tallies included.
#[test]
fn upgrade_race_runs_are_deterministic() {
    let a = ChaosScenario::upgrade_race(3).run();
    let b = ChaosScenario::upgrade_race(3).run();
    assert_eq!(a, b, "upgrade-race chaos must replay bit-identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized seeds beyond the fixed panel: whatever the seed, the
    /// upgrade-race scenario never exhibits an unsafe intermediate state
    /// and never aborts a round. (Convergence is asserted only on the
    /// fixed panel above — a random seed may legitimately schedule its
    /// heal too late in the round budget.)
    #[test]
    fn upgrade_race_safety_holds_for_arbitrary_seeds(seed in 6..10_000u64) {
        let outcome = ChaosScenario::upgrade_race(seed).run();
        prop_assert!(
            outcome.safety_violations.is_empty(),
            "seed {}: {:?}",
            seed,
            outcome.safety_violations
        );
        prop_assert_eq!(outcome.tick_errors, 0);
        prop_assert!(outcome.plan_steps >= 1);
    }
}
