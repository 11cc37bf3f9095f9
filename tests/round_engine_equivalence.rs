//! Round-engine determinism: the fork-join stages (the capacity panel,
//! storage's partition dispatch, a checker's whole-group re-seed) must be
//! **bit-identical** to the serial paths at every worker count. All
//! effectful sim interaction — command issue order, RNG draws, storage
//! submits — stays single-threaded by contract (see DESIGN.md "Round
//! engine"); only pure stages fan out, and their results merge in index
//! order. The width is one value per process (`STATESMAN_WORKER_THREADS`,
//! else host parallelism), so the same inputs must reproduce pinned
//! digests whatever it is: CI runs this file at 1, 2 and 8.

use proptest::prelude::*;
use statesman_core::{Coordinator, CoordinatorConfig, RoundReport};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_topology::DcnSpec;
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, SimDuration, Value,
};

/// Every decision-bearing field of a round, none of the wall-clock ones.
/// Timings (`elapsed`, the stage durations, `SeedStats` milliseconds)
/// legitimately differ run to run; everything here must not.
fn digest(r: &RoundReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "monitor rows={} suppressed={} quarantined={} polled={} seed={:?}\n",
        r.rows_written,
        r.writes_suppressed,
        r.monitor.devices_quarantined,
        r.monitor.devices_polled,
        r.monitor.seed.map(|s| (s.rows, s.partitions)),
    ));
    for c in &r.checkers {
        out.push_str(&format!(
            "checker group={} seen={} accepted={} rejected={} satisfied={} \
             ts_pruned={} quarantine_rejected={} vars_read={}\n",
            c.group,
            c.proposals_seen,
            c.accepted,
            c.rejected,
            c.already_satisfied,
            c.ts_pruned,
            c.quarantine_rejected,
            c.variables_read,
        ));
        for rc in &c.receipts {
            out.push_str(&format!(
                "  receipt app={:?} key={:?} proposed={:?} outcome={:?} at={:?}\n",
                rc.app, rc.key, rc.proposed, rc.outcome, rc.decided_at
            ));
        }
    }
    out.push_str(&format!(
        "updater diffs={} applied={} failed={} unrenderable={} retries={} \
         breaker_skips={} quarantine_skips={} breakers_opened={} \
         plan={}w{}x{} inflight_rej={} rollbacks={} sim_io={:?}\n",
        r.updater.diffs,
        r.updater.commands_applied,
        r.updater.commands_failed,
        r.updater.unrenderable,
        r.updater.retries,
        r.updater.breaker_skips,
        r.updater.quarantine_skips,
        r.updater.breakers_opened,
        r.updater.plan_steps,
        r.updater.plan_waves,
        r.updater.plan_max_width,
        r.updater.plan_inflight_rejections,
        r.updater.plan_rollbacks,
        r.updater.modeled_io,
    ));
    out.push_str(&format!(
        "round skipped={:?} delta_reads={} fallbacks={} watermark_lag={} retries={}\n",
        r.skipped_groups, r.delta_reads, r.full_fallbacks, r.watermark_lag, r.storage_retries
    ));
    out
}

/// One proptest-chosen target-state change on the tiny fabric.
#[derive(Debug, Clone)]
struct Churn {
    pod: u32,
    agg: u32,
    attr_pick: u8,
    tag: u8,
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    (1..=2u32, 1..=2u32, 0..3u8, 0..8u8).prop_map(|(pod, agg, attr_pick, tag)| Churn {
        pod,
        agg,
        attr_pick,
        tag,
    })
}

/// The fixed churn sequence of `seed`: four rounds of up to three changes
/// each, drawn from a splitmix64 stream (no RNG crate, so the sequence is
/// the same on every build).
fn seeded_churn(seed: u64) -> Vec<Vec<Churn>> {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let mut rounds = Vec::new();
    for _ in 0..4 {
        let mut round = Vec::new();
        for _ in 0..next(4) {
            round.push(Churn {
                pod: 1 + next(2) as u32,
                agg: 1 + next(2) as u32,
                attr_pick: next(3) as u8,
                tag: next(8) as u8,
            });
        }
        rounds.push(round);
    }
    rounds
}

/// FNV-1a, 64-bit: the same digest on every build and platform (std's
/// `DefaultHasher` promises neither), so a pin names the same bytes
/// everywhere.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn churn_row(c: &Churn, at: statesman_types::SimTime) -> NetworkState {
    let entity = EntityName::device("dc1", format!("agg-{}-{}", c.pod, c.agg));
    let (attr, value) = match c.attr_pick {
        0 => (
            Attribute::DeviceFirmwareVersion,
            Value::text(format!("9.{}", c.tag)),
        ),
        1 => (
            Attribute::DeviceBootImage,
            Value::text(format!("img-{}", c.tag)),
        ),
        _ => (
            Attribute::DeviceAdminPower,
            Value::power(c.tag.is_multiple_of(2)),
        ),
    };
    NetworkState::new(entity, attr, value, at, AppId::new("round-engine-prop"))
}

/// Drive a fresh coordinator through a seed round plus one churn round
/// per entry: the digest stream, then the final target and observed
/// pools. A change with an odd tag is proposed (the checker decides it),
/// the rest are written straight into the target state (the updater's
/// in-flight checks decide them).
fn run_rounds(churn: &[Vec<Churn>]) -> Vec<String> {
    let clock = SimClock::new();
    let graph = DcnSpec::tiny("dc1").build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::single_dc("dc1", clock.clone());
    let coord = Coordinator::new(&graph, net, storage.clone(), CoordinatorConfig::default());
    let mut out = vec![digest(&coord.tick().expect("seed round"))];
    for round in churn {
        let (proposed, direct): (Vec<&Churn>, Vec<&Churn>) =
            round.iter().partition(|c| c.tag % 2 == 1);
        for (pool, changes) in [
            (Pool::Proposed(AppId::new("round-engine-prop")), proposed),
            (Pool::Target, direct),
        ] {
            let rows: Vec<NetworkState> =
                changes.iter().map(|c| churn_row(c, clock.now())).collect();
            if !rows.is_empty() {
                storage
                    .write(WriteRequest { pool, rows })
                    .expect("write churn");
            }
        }
        out.push(digest(
            &coord
                .tick_and_advance(SimDuration::from_mins(1))
                .expect("churn round"),
        ));
    }
    for pool in [Pool::Target, Pool::Observed] {
        let mut rows = storage
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .expect("read final pool");
        rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        out.push(format!("{rows:?}"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever churn the rounds see, two fresh coordinators in one
    /// process decide identically: nothing process-wide (the interner,
    /// the slot registry, the resolved width) leaks into a decision.
    #[test]
    fn round_reports_repeat_in_one_process(
        churn in proptest::collection::vec(
            proptest::collection::vec(churn_strategy(), 0..4), 1..4)
    ) {
        prop_assert_eq!(run_rounds(&churn), run_rounds(&churn));
    }
}

/// FNV-1a digests of `run_rounds(&seeded_churn(seed))` for seeds 1–8,
/// computed with the process width at 1, 2 and 8 worker threads while
/// the monitor shards, the group fan-out and the invariant fan-out still
/// existed; all three agreed. Seed 6 was re-pinned when the checker's and
/// updater's watermark skip went: its first churn round is empty and
/// follows the un-stepped seed round, so the skip used to serve it without
/// reading. Every decision field of every round is unchanged; the
/// cumulative `delta_reads` is 6 higher from that round on (that round's
/// checker pass and updater round now read their mirrors like any other).
/// All eight were re-pinned when OS mirrors stopped holding counter rows:
/// `vars_read` counts the rows a pass holds, and it is exactly 84 lower
/// on every checker line of every seed (the tiny fabric's counter rows).
/// Every other line — receipts, updater and round lines, the final pools
/// — is byte-equal.
const CHURN_PINS: [u64; 8] = [
    0xfd65_0f48_e40f_9abd,
    0xffcd_63ae_70ca_45e0,
    0xac29_451c_88bb_a84e,
    0x67cf_097a_8654_8ad5,
    0x3c91_3bd8_308e_f5f8,
    0xb776_eac0_ad80_3f11,
    0xd489_0829_ff71_8410,
    0x899b_5992_7280_e09d,
];

/// FNV-1a digests of the `Debug` form of `ChaosScenario::standard(seed)`
/// outcomes for seeds 1–5, computed the same way.
const CHAOS_PINS: [u64; 5] = [
    0x7927_bb8d_bb12_4f11,
    0x4e52_3b50_b27a_894e,
    0xae96_88e3_2c16_3030,
    0xebb3_8475_b974_a675,
    0x3f20_e889_096b_c292,
];

/// The seeded churn sequences reproduce their pins at whatever width the
/// process runs (CI sets `STATESMAN_WORKER_THREADS` to 1, 2 and 8).
#[test]
fn seeded_churn_matches_the_pins() {
    let got: Vec<u64> = (1..=8u64)
        .map(|seed| fnv64(run_rounds(&seeded_churn(seed)).concat().as_bytes()))
        .collect();
    assert_eq!(got, CHURN_PINS, "{got:#018x?}");
}

/// The standard chaos seeds reproduce their pins at the process width.
#[test]
fn standard_chaos_matches_the_pins() {
    use statesman_chaos::ChaosScenario;
    let got: Vec<u64> = (1..=5u64)
        .map(|seed| {
            let outcome = ChaosScenario::standard(seed).run();
            assert!(
                outcome.safety_violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.safety_violations
            );
            fnv64(format!("{outcome:?}").as_bytes())
        })
        .collect();
    assert_eq!(got, CHAOS_PINS, "{got:#018x?}");
}
