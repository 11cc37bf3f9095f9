//! The checker: conflict resolver and invariant guardian (paper §3, §4.2).
//!
//! One checker pass, for one impact group:
//!
//! 1. **Read** the group's observed state (OS), every application's
//!    proposed state (PS), and the current target state (TS) from the
//!    storage service.
//! 2. **Reconcile TS against the changing OS**: a TS row whose variable
//!    has become uncontrollable (per the dependency model) is dropped —
//!    "conflicts due to the changing OS ... solution: simply reject".
//!    Satisfied TS rows are kept: the TS is "the accumulation of all
//!    accepted in the past", and the updater derives work from the OS−TS
//!    *difference*, so satisfied rows are simply quiescent.
//! 3. **Process proposals** grouped by (application, entity) in
//!    deterministic order: validate well-formedness and permissions,
//!    detect already-satisfied proposals, check controllability against
//!    the OS, arbitrate entity locks, resolve same-key conflicts by the
//!    configured [`MergePolicy`], and finally check every operator
//!    invariant against the *projected* network state (OS + TS + this
//!    candidate). Groups that survive merge into the working TS; each row
//!    gets a [`WriteReceipt`].
//! 4. **Persist**: write TS upserts/deletes, clear the consumed PS rows,
//!    and post receipts for applications to poll.
//!
//! The pass is synchronous and deterministic; its wall-clock time is the
//! checker latency the paper reports (<10 s at 394K variables, §8).

use crate::deps::{blast_radius, DependencyModel};
use crate::groups::ImpactGroup;
use crate::invariants::{Invariant, InvariantContext, Violation};
use crate::locks;
use crate::view::{
    project_health, HealthDelta, MapView, OverlayView, PartsView, PoolMirror, StateView,
};
use parking_lot::Mutex;
use statesman_storage::{StorageService, WriteRequest};
use statesman_topology::{HealthView, NetworkGraph};
use statesman_types::{
    AppId, Column, DatacenterId, DependencyLevel, DeviceName, NetworkState, Pool, SimTime,
    StateDelta, StateKey, StateResult, Value, Version, WriteOutcome, WriteReceipt,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// How same-key conflicts between applications are resolved (§4.2: "one
/// of two configurable mechanisms").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// The proposal with the newer timestamp wins; older same-key
    /// proposals are rejected as conflicts.
    LastWriterWins,
    /// Entity locks gate writes (Fig 10); keys on unlocked entities fall
    /// back to last-writer-wins.
    PriorityLock,
}

/// Checker construction knobs.
pub struct CheckerConfig {
    /// This checker's scope.
    pub group: ImpactGroup,
    /// Conflict-resolution policy.
    pub policy: MergePolicy,
}

/// One pass's outcome.
#[derive(Debug, Clone)]
pub struct CheckerPassReport {
    /// The group this pass covered.
    pub group: String,
    /// Proposal rows read.
    pub proposals_seen: usize,
    /// Rows merged into the TS.
    pub accepted: usize,
    /// Rows rejected (all reasons).
    pub rejected: usize,
    /// Rows whose proposed value already matched the OS.
    pub already_satisfied: usize,
    /// TS rows dropped because the changing OS made them uncontrollable.
    pub ts_pruned: usize,
    /// Proposal rows rejected because they touch a quarantined device
    /// (its OS rows are stale, so the checker refuses to act on them).
    pub quarantine_rejected: usize,
    /// Every receipt issued this pass.
    pub receipts: Vec<WriteReceipt>,
    /// Wall-clock time of the pass (the §8 checker latency).
    pub elapsed: Duration,
    /// State variables the pass holds at its start (scale metric): the
    /// group's OS mirror rows — counters are not among them — plus the
    /// TS and proposal rows it read.
    pub variables_read: usize,
}

impl CheckerPassReport {
    /// Receipts for one application.
    pub fn receipts_for(&self, app: &AppId) -> Vec<&WriteReceipt> {
        self.receipts.iter().filter(|r| &r.app == app).collect()
    }
}

/// A partition mirror and the count of its rows that belong to this
/// checker's group, kept by [`Checker::note_delta`] so the zero-copy read
/// path can report `variables_read` without a scan.
struct GroupMirror {
    mirror: PoolMirror,
    group_rows: usize,
}

/// The change footprint accumulated while advancing mirrors for one pass:
/// the group rows the round's deltas upserted (current values) and
/// deleted (keys). Feeds [`blast_radius`]. `full` means tracking was
/// abandoned — a snapshot-fallback delta arrived (the mirror was
/// rebuilt wholesale, e.g. after a change-index compaction) or the churn
/// exceeded [`SEED_TRACK_LIMIT`] — and the pass must reseed from scratch.
/// It starts out abandoned where nothing is to be tracked: PS pools.
#[derive(Default)]
struct ChangeTrack {
    rows: Vec<NetworkState>,
    keys: Vec<StateKey>,
    full: bool,
}

impl ChangeTrack {
    fn abandoned() -> Self {
        ChangeTrack {
            full: true,
            ..ChangeTrack::default()
        }
    }
}

/// Above this many tracked changes a full reseed is cheaper than
/// radius-by-radius re-projection.
const SEED_TRACK_LIMIT: usize = 8_192;

/// The previous pass's seed, carried across passes by the incremental
/// checker: the projected health of the whole group and every
/// invariant's verdict against it. A pass whose change track is exact
/// re-projects only the blast radius and re-evaluates only the affected
/// invariants; everything else keeps these cached values. Taken (and
/// thus invalidated) at the start of every pass and only stored back
/// after the pass fully persists, so an error mid-pass forces the next
/// pass to reseed.
struct SeedCache {
    health: HealthView,
    verdicts: Vec<Option<Violation>>,
}

/// The checker for one impact group.
pub struct Checker {
    config: CheckerConfig,
    model: DependencyModel,
    invariants: Vec<Box<dyn Invariant>>,
    graph: NetworkGraph,
    /// Per-(pool, partition) mirror advanced by `read_since`; the only
    /// way a pass reads a pool. Mirrors and seed are caches: a checker
    /// built fresh decides exactly what this one does.
    part_cache: Mutex<HashMap<(Pool, DatacenterId), GroupMirror>>,
    /// Carried-over seed for the blast-radius incremental checker.
    seed_cache: Mutex<Option<SeedCache>>,
    /// Times a pass's [`ChangeTrack`] silently degraded to a full reseed:
    /// churn beyond [`SEED_TRACK_LIMIT`], or a snapshot-fallback delta on
    /// an established mirror. Cumulative; surfaced by the coordinator as
    /// `checker_full_degrades_total` and on `/v1/status`, so blast-radius
    /// scoped checks can't quietly go whole-network.
    full_degrades: std::sync::atomic::AtomicU64,
}

impl Checker {
    /// Build a checker with the standard dependency model.
    pub fn new(config: CheckerConfig, graph: NetworkGraph) -> Self {
        Checker {
            config,
            model: DependencyModel::standard(),
            invariants: Vec::new(),
            graph,
            part_cache: Mutex::new(HashMap::new()),
            seed_cache: Mutex::new(None),
            full_degrades: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Cumulative count of change-track degradations to a full reseed
    /// (see the `full_degrades` field). Monotone over this checker's life.
    pub fn full_degrades(&self) -> u64 {
        self.full_degrades
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Replace the dependency model (ablations / extensions).
    pub fn with_model(mut self, model: DependencyModel) -> Self {
        self.model = model;
        self
    }

    /// Install an operator invariant.
    pub fn add_invariant(&mut self, inv: Box<dyn Invariant>) {
        self.invariants.push(inv);
    }

    /// The group this checker covers.
    pub fn group(&self) -> &ImpactGroup {
        &self.config.group
    }

    /// The partitions this group's entities are homed in.
    fn group_partitions(&self, storage: &StorageService) -> Vec<DatacenterId> {
        match self.group() {
            // A DC group's entities are all homed in its own partition.
            ImpactGroup::Datacenter(dc) => vec![dc.clone()],
            // The WAN group spans the WAN partition (inter-DC links) and
            // every DC partition (border routers are homed at home); the
            // global group spans everything by definition.
            ImpactGroup::Wan | ImpactGroup::Global => storage.partitions(),
        }
    }

    /// Advance this group's mirrors of `pool` and copy its rows out
    /// (TS and PS are small and the pass edits its working copy).
    fn read_group_pool(
        &self,
        cache: &mut HashMap<(Pool, DatacenterId), GroupMirror>,
        storage: &StorageService,
        pool: &Pool,
        track: &mut ChangeTrack,
    ) -> StateResult<Vec<NetworkState>> {
        let mut rows = Vec::new();
        for dc in self.group_partitions(storage) {
            self.advance_partition(cache, storage, pool, &dc, track)?;
            let part = cache[&(pool.clone(), dc)].mirror.view();
            rows.extend(
                PartsView::new(vec![part], Some(self.group()))
                    .rows()
                    .cloned(),
            );
        }
        Ok(rows)
    }

    /// Advance one partition mirror (cold on first use) by its
    /// `read_since` reply, keeping the group-row count exact and
    /// recording the group rows the reply changed.
    fn advance_partition(
        &self,
        cache: &mut HashMap<(Pool, DatacenterId), GroupMirror>,
        storage: &StorageService,
        pool: &Pool,
        dc: &DatacenterId,
        track: &mut ChangeTrack,
    ) -> StateResult<()> {
        let entry = cache
            .entry((pool.clone(), dc.clone()))
            .or_insert_with(|| GroupMirror {
                mirror: PoolMirror::cold(pool),
                group_rows: 0,
            });
        let group_rows = &mut entry.group_rows;
        entry
            .mirror
            .advance(storage, dc, pool, |view, since, delta| {
                self.note_delta(view, since, delta, group_rows, track)
            })
    }

    /// The visitor over a `read_since` reply about to be applied to
    /// `view`: update the mirror's group-row count and record the group
    /// rows the reply changes — the input to [`blast_radius`]. A snapshot
    /// reply or churn past [`SEED_TRACK_LIMIT`] abandons tracking (the
    /// pass must reseed): a silent whole-network degrade on an
    /// established mirror, not on a cold one (`since` at genesis).
    fn note_delta(
        &self,
        view: &Column,
        since: Version,
        delta: &StateDelta,
        group_rows: &mut usize,
        track: &mut ChangeTrack,
    ) {
        let in_group = |r: &&NetworkState| self.group().contains(&r.entity);
        let degrade = |t: &mut ChangeTrack| {
            if !t.full && since != Version::default() {
                self.full_degrades
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            *t = ChangeTrack::abandoned();
        };
        if delta.snapshot {
            degrade(track);
            // A snapshot lists each of the pool's rows once.
            *group_rows = delta.upserts.iter().filter(in_group).count();
            return;
        }
        // Counter-level variables (cpu/mem telemetry) never enter the
        // health projection or any invariant — see `project_health` —
        // so they contribute nothing to the blast radius. Filtering
        // them here keeps the steady-state radius empty under pure
        // telemetry churn (every device's counters walk every round,
        // which would otherwise touch every pod and re-solve the whole
        // capacity panel) and keeps heavy telemetry rounds under
        // `SEED_TRACK_LIMIT`.
        let tracked = |t: &ChangeTrack, attr: statesman_types::Attribute| {
            !t.full && attr.dependency_level() != DependencyLevel::Counter
        };
        for k in &delta.deletes {
            if view.get_var(k.var_id()).is_some_and(|old| in_group(&old)) {
                *group_rows -= 1;
                if tracked(track, k.attribute) {
                    track.keys.push(k.clone());
                }
            }
        }
        for row in delta.upserts.iter().filter(in_group) {
            if view.get_var(row.var_id()).is_none() {
                *group_rows += 1;
            }
            if tracked(track, row.attribute) {
                track.rows.push(row.clone());
            }
        }
        if track.rows.len() + track.keys.len() > SEED_TRACK_LIMIT {
            degrade(track);
        }
    }

    /// The set of applications with proposals touching this group.
    fn proposing_apps(&self, storage: &StorageService) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self
            .group_partitions(storage)
            .iter()
            .flat_map(|dc| storage.proposing_apps(dc))
            .collect();
        apps.sort();
        apps.dedup();
        apps
    }

    /// Run one checker pass against the storage service.
    pub fn run_pass(
        &self,
        storage: &StorageService,
        now: SimTime,
    ) -> StateResult<CheckerPassReport> {
        self.run_pass_with_unreachable(storage, now, &BTreeSet::new())
    }

    /// Run one checker pass treating `unreachable` devices (quarantined by
    /// the monitor; their OS rows are stale) conservatively: proposals
    /// touching them are rejected as uncontrollable, and unsatisfied TS
    /// rows on them are *kept* rather than pruned — stale observations can
    /// neither justify new actions nor revoke past decisions.
    pub fn run_pass_with_unreachable(
        &self,
        storage: &StorageService,
        now: SimTime,
        unreachable: &BTreeSet<DeviceName>,
    ) -> StateResult<CheckerPassReport> {
        let started = Instant::now();

        // ---- 1. read OS, TS, PSes ----
        // Every pool is read by advancing its partition mirrors; the OS
        // is then read zero-copy out of them, so the part-cache lock is
        // held for the whole pass. The carried seed is taken first: a
        // pass that fails after a mirror moved has lost that part of the
        // change track, so the next pass must reseed.
        let cached_seed = self.seed_cache.lock().take();
        let mut cache = self.part_cache.lock();
        let mut track = ChangeTrack::default();
        let partitions = self.group_partitions(storage);
        for dc in &partitions {
            self.advance_partition(&mut cache, storage, &Pool::Observed, dc, &mut track)?;
        }
        let ts_rows = self.read_group_pool(&mut cache, storage, &Pool::Target, &mut track)?;
        let apps = self.proposing_apps(storage);
        let mut proposals: Vec<(AppId, Vec<NetworkState>)> = Vec::new();
        for app in &apps {
            let ps = self.read_group_pool(
                &mut cache,
                storage,
                &Pool::Proposed(app.clone()),
                &mut ChangeTrack::abandoned(),
            )?;
            if !ps.is_empty() {
                proposals.push((app.clone(), ps));
            }
        }
        let os_parts = partitions
            .iter()
            .map(|dc| &cache[&(Pool::Observed, dc.clone())]);
        let variables_read = os_parts.clone().map(|m| m.group_rows).sum::<usize>()
            + ts_rows.len()
            + proposals.iter().map(|(_, p)| p.len()).sum::<usize>();
        let group = Some(self.group());
        let os = PartsView::new(os_parts.map(|m| m.mirror.view()).collect(), group);
        let mut ts = MapView::from_rows(ts_rows.clone());

        // ---- 2. TS ⁄ OS reconciliation ----
        let mut ts_deletes: Vec<StateKey> = Vec::new();
        let mut ts_pruned = 0usize;
        for row in ts_rows {
            if row.attribute.is_lock() {
                // Locks are Statesman metadata; they expire, not prune.
                if row
                    .value
                    .as_lock()
                    .map(|l| l.is_expired(now))
                    .unwrap_or(true)
                {
                    ts.remove_var(row.var_id());
                    if !track.full {
                        track.keys.push(row.key());
                    }
                    ts_deletes.push(row.key());
                    ts_pruned += 1;
                }
                continue;
            }
            // Unsatisfied TS rows must still be controllable against the
            // latest OS; the changing network can invalidate them.
            let satisfied = os.value_of(&row.entity, row.attribute) == Some(&row.value);
            if satisfied {
                continue;
            }
            // A quarantined device's OS rows are stale: don't let them
            // revoke accepted intent. The row stays and the decision is
            // deferred until the device is polled again.
            if touches_unreachable(&row.entity, &row.value, unreachable) {
                continue;
            }
            if self
                .model
                .check_controllable(&row.key(), &row.value, &os)
                .is_err()
            {
                ts.remove_var(row.var_id());
                if !track.full {
                    track.keys.push(row.key());
                }
                ts_deletes.push(row.key());
                ts_pruned += 1;
            }
        }

        // ---- 3. process proposals ----
        // Group rows by (app, entity); order groups by (earliest proposal
        // timestamp, app, entity) for deterministic, time-respecting
        // processing (the substrate of last-writer-wins).
        struct Group {
            app: AppId,
            rows: Vec<NetworkState>,
            earliest: SimTime,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (app, rows) in proposals {
            let mut by_entity: BTreeMap<statesman_types::EntityName, Vec<NetworkState>> =
                BTreeMap::new();
            for r in rows {
                by_entity.entry(r.entity.clone()).or_default().push(r);
            }
            for (_, mut rows) in by_entity {
                rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
                let earliest = rows.iter().map(|r| r.updated_at).min().unwrap();
                groups.push(Group {
                    app: app.clone(),
                    rows,
                    earliest,
                });
            }
        }
        groups.sort_by(|a, b| {
            a.earliest
                .cmp(&b.earliest)
                .then_with(|| a.app.cmp(&b.app))
                .then_with(|| a.rows[0].key_ref().cmp(&b.rows[0].key_ref()))
        });

        let mut receipts: Vec<WriteReceipt> = Vec::new();
        let mut ts_upserts: MapView = MapView::new();
        let mut ps_deletes: Vec<(AppId, StateKey)> = Vec::new();
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        let mut already_satisfied = 0usize;
        let mut quarantine_rejected = 0usize;
        let mut proposals_seen = 0usize;

        // The working projection: OS + reconciled TS, maintained
        // incrementally per candidate via HealthDelta (full recomputation
        // per candidate would make the pass quadratic in topology size).
        //
        // Seeding is where a 4M-variable round lives or dies. The
        // checker carries the previous pass's seed forward: from
        // the round's deltas it computes the Fig-4 blast radius,
        // re-projects only the entities inside it, re-evaluates only the
        // invariants it can reach, and keeps cached verdicts for the
        // rest.
        let (mut health, verdicts) = if self.invariants.is_empty() {
            // With no invariants installed, nothing ever consults the
            // projection — skip the whole-graph sweep here and every
            // per-candidate health delta below: g checkers × one full
            // projection per pass would all be dead work.
            (HealthView::all_up(), Vec::new())
        } else {
            match cached_seed {
                Some(seed) if !track.full && seed.verdicts.len() == self.invariants.len() => {
                    let radius = blast_radius(
                        &self.graph,
                        track
                            .rows
                            .iter()
                            .map(|r| (&r.entity, Some(&r.value)))
                            .chain(track.keys.iter().map(|k| (&k.entity, None))),
                    );
                    let mut health = seed.health;
                    HealthDelta::apply(&self.graph, &os, &ts, &radius.entities, &mut health);
                    let mut verdicts = seed.verdicts;
                    for (inv, verdict) in self.invariants.iter().zip(&mut verdicts) {
                        if !inv.affected_by(&radius) {
                            continue;
                        }
                        // A passing cached verdict licenses pod-scoped
                        // re-evaluation (the same contract candidate
                        // checks use); a failing one demands a full look.
                        // Only connectivity reads the hint: capacity
                        // diffs the projected health itself.
                        let ctx = InvariantContext {
                            graph: &self.graph,
                            projected: &health,
                            touched_pods: if verdict.is_none() {
                                radius.pods.as_ref()
                            } else {
                                None
                            },
                        };
                        *verdict = inv.check(&ctx).err();
                    }
                    (health, verdicts)
                }
                _ => {
                    let health = project_health(&self.graph, &os, Some(&ts as &dyn StateView));
                    let ctx = InvariantContext {
                        graph: &self.graph,
                        projected: &health,
                        touched_pods: None,
                    };
                    let verdicts = self
                        .invariants
                        .iter()
                        .map(|inv| inv.check(&ctx).err())
                        .collect();
                    (health, verdicts)
                }
            }
        };
        let incremental_ok = verdicts.iter().all(|v| v.is_none());

        for group in groups {
            proposals_seen += group.rows.len();
            let decided_at = now;
            // Every processed PS row is consumed regardless of outcome.
            for r in &group.rows {
                ps_deletes.push((group.app.clone(), r.key()));
            }

            let mut receipt = |key: &StateKey, proposed: &Value, outcome: WriteOutcome| {
                receipts.push(WriteReceipt {
                    app: group.app.clone(),
                    key: key.clone(),
                    proposed: proposed.clone(),
                    outcome,
                    decided_at,
                });
            };

            // -- 3a/3b/3c: validate, satisfied, controllable, locks --
            let mut survivors: Vec<NetworkState> = Vec::new();
            for row in &group.rows {
                let key = row.key();
                if !row.is_well_formed() || !row.attribute.is_proposable() {
                    receipt(
                        &key,
                        &row.value,
                        WriteOutcome::RejectedInvalid {
                            reason: if row.attribute.is_proposable() {
                                format!("malformed row for {}", key)
                            } else {
                                format!("{} is read-only", row.attribute)
                            },
                        },
                    );
                    rejected += 1;
                    continue;
                }

                // Lock rows get their own arbitration path.
                if row.attribute.is_lock() {
                    match locks::arbitrate_lock_write(&ts, &row.entity, &group.app, &row.value, now)
                    {
                        locks::LockDecision::Granted(new_rec) => {
                            let key = row.key();
                            match new_rec {
                                Some(rec) => {
                                    let mut stored = row.clone();
                                    stored.value = Value::Lock(rec);
                                    ts.upsert(stored.clone());
                                    ts_upserts.upsert(stored);
                                }
                                None => {
                                    ts.remove(&key);
                                    ts_upserts.remove(&key);
                                    ts_deletes.push(key.clone());
                                }
                            }
                            receipt(&key, &row.value, WriteOutcome::Accepted);
                            accepted += 1;
                        }
                        locks::LockDecision::Refused { holder, reason } => {
                            receipt(
                                &row.key(),
                                &row.value,
                                WriteOutcome::RejectedConflict {
                                    winner: holder,
                                    reason,
                                },
                            );
                            rejected += 1;
                        }
                    }
                    continue;
                }

                if os.value_of(&row.entity, row.attribute) == Some(&row.value) {
                    receipt(&key, &row.value, WriteOutcome::AlreadySatisfied);
                    already_satisfied += 1;
                    continue;
                }

                // Variables on quarantined devices are uncontrollable:
                // the OS rows the controllability and invariant checks
                // would consult are stale.
                if touches_unreachable(&row.entity, &row.value, unreachable) {
                    receipt(
                        &key,
                        &row.value,
                        WriteOutcome::RejectedUncontrollable {
                            reason: "entity touches a quarantined device; observed state is stale"
                                .to_string(),
                        },
                    );
                    rejected += 1;
                    quarantine_rejected += 1;
                    continue;
                }

                if let Err(u) = self.model.check_controllable(&key, &row.value, &os) {
                    receipt(
                        &key,
                        &row.value,
                        WriteOutcome::RejectedUncontrollable { reason: u.reason },
                    );
                    rejected += 1;
                    continue;
                }

                if self.config.policy == MergePolicy::PriorityLock {
                    if let Err((winner, reason)) =
                        locks::gate_write(&ts, &row.entity, &group.app, now)
                    {
                        receipt(
                            &key,
                            &row.value,
                            WriteOutcome::RejectedConflict { winner, reason },
                        );
                        rejected += 1;
                        continue;
                    }
                }

                // Same-key conflict with an existing TS row from another
                // application: last-writer-wins on timestamps.
                if let Some(existing) = ts.get(&key) {
                    if existing.writer != group.app
                        && existing.writer != AppId::checker()
                        && existing.updated_at > row.updated_at
                    {
                        receipt(
                            &key,
                            &row.value,
                            WriteOutcome::RejectedConflict {
                                winner: existing.writer.clone(),
                                reason: format!(
                                    "newer write by {} at {}",
                                    existing.writer, existing.updated_at
                                ),
                            },
                        );
                        rejected += 1;
                        continue;
                    }
                }

                survivors.push(row.clone());
            }

            if survivors.is_empty() {
                continue;
            }

            // -- 3f: invariants on the projected candidate --
            // The first violation, in invariant order, is the one that
            // reaches receipts; no later invariant is checked (capacity
            // caches what its last passing check solved). With no
            // invariants, the projection is never read, so the delta is
            // skipped outright.
            let (delta, violation) = if self.invariants.is_empty() {
                (None, None)
            } else {
                let candidate = MapView::from_rows(survivors.iter().cloned());
                let radius = blast_radius(
                    &self.graph,
                    survivors.iter().map(|r| (&r.entity, Some(&r.value))),
                );
                // Update the working projection for just the candidate's
                // entities (reversible if the candidate is rejected).
                let overlay = OverlayView::new(&ts, &candidate);
                let delta =
                    HealthDelta::apply(&self.graph, &os, &overlay, &radius.entities, &mut health);
                let ctx = InvariantContext {
                    graph: &self.graph,
                    projected: &health,
                    touched_pods: if incremental_ok {
                        radius.pods.as_ref()
                    } else {
                        None
                    },
                };
                let violation = self.invariants.iter().find_map(|inv| inv.check(&ctx).err());
                (Some(delta), violation)
            };

            match violation {
                Some(v) => {
                    if let Some(delta) = delta {
                        delta.revert(&mut health);
                    }
                    for row in survivors {
                        receipts.push(WriteReceipt {
                            app: group.app.clone(),
                            key: row.key(),
                            proposed: row.value.clone(),
                            outcome: WriteOutcome::RejectedInvariant {
                                invariant: v.invariant.clone(),
                                reason: v.reason.clone(),
                            },
                            decided_at,
                        });
                        rejected += 1;
                    }
                }
                None => {
                    for row in survivors {
                        receipts.push(WriteReceipt {
                            app: group.app.clone(),
                            key: row.key(),
                            proposed: row.value.clone(),
                            outcome: WriteOutcome::Accepted,
                            decided_at,
                        });
                        ts.upsert(row.clone());
                        ts_upserts.upsert(row);
                        accepted += 1;
                    }
                }
            }
        }

        // ---- 4. persist ----
        let upsert_rows = ts_upserts.into_sorted_rows();
        if !upsert_rows.is_empty() {
            storage.write(WriteRequest {
                pool: Pool::Target,
                rows: upsert_rows,
            })?;
        }
        if !ts_deletes.is_empty() {
            ts_deletes.sort();
            ts_deletes.dedup();
            storage.delete(Pool::Target, ts_deletes)?;
        }
        // Clear consumed PS rows, per app.
        let mut by_app: BTreeMap<AppId, Vec<StateKey>> = BTreeMap::new();
        for (app, key) in ps_deletes {
            by_app.entry(app).or_default().push(key);
        }
        for (app, keys) in by_app {
            storage.delete(Pool::Proposed(app), keys)?;
        }
        // Post receipts to the group's primary partition.
        if !receipts.is_empty() {
            storage.post_receipts(&self.group().primary_partition(), receipts.clone())?;
        }

        // Carry the seed forward: `health` reflects every accepted
        // candidate (rejected ones were reverted) and matches the TS just
        // persisted; verdicts are the seed's. The next pass covers this
        // pass's own writes via its changefeed, so re-projection over
        // them is an idempotent no-op.
        *self.seed_cache.lock() = Some(SeedCache { health, verdicts });
        Ok(CheckerPassReport {
            group: self.group().name(),
            proposals_seen,
            accepted,
            rejected,
            already_satisfied,
            ts_pruned,
            quarantine_rejected,
            receipts,
            elapsed: started.elapsed(),
            variables_read,
        })
    }
}

// Pinned by the frozen benchmark; the first bullet of ROADMAP item 9
// removes the call, then this goes.
impl Checker {
    /// A no-op: mirrors always carry over from pass to pass. A fresh
    /// checker (the old `false`) decides exactly what a long-lived one
    /// does, so only the cost of a pass ever depended on this.
    pub fn with_delta_reads(self, _enabled: bool) -> Self {
        self
    }

    /// A no-op: mirrors are always slot-indexed columns and the seed
    /// always blast-radius incremental; the hash layout it selected gave
    /// identical decisions.
    pub fn with_columnar_state(self, _enabled: bool) -> Self {
        self
    }
}

/// Does a variable on `entity` depend on any device in `unreachable`?
/// Links count through either endpoint; path variables through every
/// listed on-path switch.
fn touches_unreachable(
    entity: &statesman_types::EntityName,
    value: &Value,
    unreachable: &BTreeSet<DeviceName>,
) -> bool {
    if unreachable.is_empty() {
        return false;
    }
    match &entity.body {
        statesman_types::entity::EntityBody::Device(d) => unreachable.contains(d),
        statesman_types::entity::EntityBody::Link(l) => {
            unreachable.contains(&l.a) || unreachable.contains(&l.b)
        }
        statesman_types::entity::EntityBody::Path(_) => value
            .as_device_list()
            .map(|list| list.iter().any(|d| unreachable.contains(d)))
            .unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::TorPairCapacityInvariant;
    use statesman_net::SimClock;
    use statesman_storage::ReadRequest;
    use statesman_topology::DcnSpec;
    use statesman_types::{Attribute, EntityName, Freshness, LockPriority};

    fn setup() -> (NetworkGraph, StorageService, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::fig7("dc1").build();
        let storage = StorageService::single_dc("dc1", clock.clone());
        (graph, storage, clock)
    }

    fn os_row(entity: EntityName, attr: Attribute, value: Value, at: SimTime) -> NetworkState {
        NetworkState::new(entity, attr, value, at, AppId::monitor())
    }

    /// Write a minimal healthy OS for the Fig-7 fabric: firmware rows for
    /// every device (enough for controllability and upgrade proposals).
    fn seed_os(graph: &NetworkGraph, storage: &StorageService, at: SimTime) {
        let rows: Vec<NetworkState> = graph
            .nodes()
            .map(|(_, n)| {
                os_row(
                    EntityName::device(n.datacenter.clone(), n.name.clone()),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("6.0"),
                    at,
                )
            })
            .collect();
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows,
            })
            .unwrap();
    }

    fn checker(graph: &NetworkGraph, policy: MergePolicy) -> Checker {
        let mut c = Checker::new(
            CheckerConfig {
                group: ImpactGroup::Datacenter(DatacenterId::new("dc1")),
                policy,
            },
            graph.clone(),
        );
        c.add_invariant(Box::new(TorPairCapacityInvariant::paper_default(
            graph,
            "dc1",
            Some(1),
        )));
        c
    }

    fn propose_upgrade(
        storage: &StorageService,
        app: &AppId,
        dev: &str,
        version: &str,
        at: SimTime,
    ) {
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(app.clone()),
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", dev),
                    Attribute::DeviceFirmwareVersion,
                    Value::text(version),
                    at,
                    app.clone(),
                )],
            })
            .unwrap();
    }

    #[test]
    fn accepts_safe_upgrades_and_caps_parallelism() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");

        // Propose upgrading 3 of pod 1's Aggs in parallel.
        for a in 1..=3 {
            propose_upgrade(&storage, &app, &format!("agg-1-{a}"), "7.0", clock.now());
        }
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.proposals_seen, 3);
        // 50% invariant: at most 2 of 4 Aggs may be down at once.
        assert_eq!(report.accepted, 2, "{:?}", report.receipts);
        assert_eq!(report.rejected, 1);
        let rejected: Vec<_> = report
            .receipts
            .iter()
            .filter(|r| r.outcome.is_rejected())
            .collect();
        assert!(matches!(
            rejected[0].outcome,
            WriteOutcome::RejectedInvariant { .. }
        ));
        // PS is consumed.
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Proposed(app)),
            0
        );
        // TS holds the two accepted upgrades.
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            2
        );
    }

    #[test]
    fn already_satisfied_proposals_do_not_enter_ts() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");
        propose_upgrade(&storage, &app, "agg-1-1", "6.0", clock.now()); // current version
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.already_satisfied, 1);
        assert_eq!(report.accepted, 0);
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            0
        );
    }

    #[test]
    fn quarantined_device_proposals_rejected_and_ts_kept() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");

        // An upgrade is accepted while the device is healthy.
        propose_upgrade(&storage, &app, "agg-1-1", "7.0", clock.now());
        let r = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(r.accepted, 1);

        // The device goes dark: its last OS rows claim it is powered off,
        // but the monitor has quarantined it, so those rows are stale.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![os_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceAdminPower,
                    Value::power(false),
                    clock.now(),
                )],
            })
            .unwrap();
        let quarantined: BTreeSet<DeviceName> = [DeviceName::new("agg-1-1")].into_iter().collect();

        // New proposals on the device are refused...
        propose_upgrade(&storage, &app, "agg-1-1", "8.0", clock.now());
        let r2 = chk
            .run_pass_with_unreachable(&storage, clock.now(), &quarantined)
            .unwrap();
        assert_eq!(r2.quarantine_rejected, 1);
        assert_eq!(r2.rejected, 1);
        assert!(matches!(
            r2.receipts_for(&app)[0].outcome,
            WriteOutcome::RejectedUncontrollable { .. }
        ));
        // ...and the stale power-off row must NOT prune the accepted TS
        // (a plain pass would: firmware is uncontrollable when power is
        // off per the dependency model).
        assert_eq!(r2.ts_pruned, 0, "stale OS must not revoke accepted TS");
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            1
        );
    }

    #[test]
    fn uncontrollable_proposals_rejected() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        // agg-1-1 is powered off in the OS.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![os_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceAdminPower,
                    Value::power(false),
                    clock.now(),
                )],
            })
            .unwrap();
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");
        propose_upgrade(&storage, &app, "agg-1-1", "7.0", clock.now());
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.rejected, 1);
        assert!(matches!(
            report.receipts[0].outcome,
            WriteOutcome::RejectedUncontrollable { .. }
        ));
    }

    #[test]
    fn read_only_proposals_rejected_invalid() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("rogue");
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(app.clone()),
                rows: vec![NetworkState::new(
                    EntityName::link("dc1", "tor-1-1", "agg-1-1"),
                    Attribute::LinkFcsErrorRate,
                    Value::Float(0.0),
                    clock.now(),
                    app.clone(),
                )],
            })
            .unwrap();
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert!(matches!(
            report.receipts[0].outcome,
            WriteOutcome::RejectedInvalid { .. }
        ));
    }

    #[test]
    fn last_writer_wins_on_same_key() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let early = AppId::new("app-early");
        let late = AppId::new("app-late");
        propose_upgrade(&storage, &early, "agg-1-1", "7.0", SimTime::from_mins(1));
        propose_upgrade(&storage, &late, "agg-1-1", "7.1", SimTime::from_mins(2));
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        // Both accepted (later overwrote), TS holds the later value.
        assert_eq!(report.accepted, 2);
        let ts = storage
            .read_row(
                &Pool::Target,
                &StateKey::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                ),
            )
            .unwrap()
            .unwrap();
        assert_eq!(ts.value, Value::text("7.1"));
        assert_eq!(ts.writer, late);
    }

    #[test]
    fn older_proposal_against_newer_ts_rejected() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let a = AppId::new("app-a");
        let b = AppId::new("app-b");
        // Pass 1: b writes at t=10.
        propose_upgrade(&storage, &b, "agg-1-1", "7.1", SimTime::from_mins(10));
        chk.run_pass(&storage, SimTime::from_mins(10)).unwrap();
        // Pass 2: a proposes an *older* write (stale basis).
        propose_upgrade(&storage, &a, "agg-1-1", "7.0", SimTime::from_mins(5));
        let report = chk.run_pass(&storage, SimTime::from_mins(11)).unwrap();
        assert_eq!(report.rejected, 1);
        assert!(matches!(
            &report.receipts[0].outcome,
            WriteOutcome::RejectedConflict { winner, .. } if winner == &b
        ));
    }

    #[test]
    fn priority_lock_gates_writes() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::PriorityLock);
        let upgrade = AppId::new("switch-upgrade");
        let te = AppId::new("inter-dc-te");

        // upgrade acquires a high-priority lock on agg-1-1.
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(upgrade.clone()),
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::EntityLock,
                    locks::lock_value(&upgrade, LockPriority::High, clock.now(), None),
                    clock.now(),
                    upgrade.clone(),
                )],
            })
            .unwrap();
        let r1 = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(r1.accepted, 1);

        // te's routing write on the locked entity is rejected.
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(te.clone()),
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceRoutingRules,
                    Value::Routes(vec![]),
                    clock.now(),
                    te.clone(),
                )],
            })
            .unwrap();
        let r2 = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(r2.rejected, 1);
        assert!(matches!(
            &r2.receipts[0].outcome,
            WriteOutcome::RejectedConflict { winner, .. } if winner == &upgrade
        ));

        // upgrade releases; te retries and wins.
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(upgrade.clone()),
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::EntityLock,
                    Value::None,
                    clock.now(),
                    upgrade.clone(),
                )],
            })
            .unwrap();
        chk.run_pass(&storage, clock.now()).unwrap();
        storage
            .write(WriteRequest {
                pool: Pool::Proposed(te.clone()),
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceRoutingRules,
                    Value::Routes(vec![]),
                    clock.now(),
                    te.clone(),
                )],
            })
            .unwrap();
        let r4 = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(r4.accepted, 1, "{:?}", r4.receipts);
    }

    #[test]
    fn ts_rows_prune_when_os_makes_them_uncontrollable() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");
        propose_upgrade(&storage, &app, "agg-1-1", "7.0", clock.now());
        chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            1
        );

        // The device loses power in the OS → the accepted-but-unsatisfied
        // TS row is no longer controllable and gets pruned.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![os_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceAdminPower,
                    Value::power(false),
                    clock.now(),
                )],
            })
            .unwrap();
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.ts_pruned, 1);
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            0
        );
    }

    #[test]
    fn satisfied_ts_rows_are_kept_as_accumulation() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let app = AppId::new("switch-upgrade");
        propose_upgrade(&storage, &app, "agg-1-1", "7.0", clock.now());
        chk.run_pass(&storage, clock.now()).unwrap();

        // The upgrade lands: OS now reports 7.0.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![os_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                    clock.now(),
                )],
            })
            .unwrap();
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.ts_pruned, 0);
        assert_eq!(
            storage.pool_len(&DatacenterId::new("dc1"), &Pool::Target),
            1
        );
        // And with the OS caught up, pod 1 has full capacity again: two
        // more Agg upgrades are accepted.
        propose_upgrade(&storage, &app, "agg-1-2", "7.0", clock.now());
        propose_upgrade(&storage, &app, "agg-1-3", "7.0", clock.now());
        let r2 = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(r2.accepted, 2, "{:?}", r2.receipts);
    }

    #[test]
    fn delta_passes_match_full_read_passes() {
        // Two identical worlds driven through the same multi-pass history:
        // one checker carries mirrors and seed from pass to pass, the
        // other world builds a fresh checker for every pass, whose cold
        // mirrors read every pool whole and whose seed starts from
        // scratch. Reports and the resulting TS must be identical.
        let run = |fresh: bool| {
            let (graph, storage, clock) = setup();
            seed_os(&graph, &storage, clock.now());
            let long_lived = checker(&graph, MergePolicy::LastWriterWins);
            let pass = |unreachable: &BTreeSet<DeviceName>| {
                let rebuilt;
                let chk = if fresh {
                    rebuilt = checker(&graph, MergePolicy::LastWriterWins);
                    &rebuilt
                } else {
                    &long_lived
                };
                let now = clock.now();
                chk.run_pass_with_unreachable(&storage, now, unreachable)
                    .unwrap()
            };
            let none = BTreeSet::new();
            let app = AppId::new("switch-upgrade");
            let mut history = Vec::new();
            // Pass 1: parallel proposals, one rejected by the invariant.
            for a in 1..=3 {
                propose_upgrade(&storage, &app, &format!("agg-1-{a}"), "7.0", clock.now());
            }
            history.push(pass(&none));
            // OS catches up on one device; re-propose the rejected one.
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![os_row(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    )],
                })
                .unwrap();
            propose_upgrade(&storage, &app, "agg-1-3", "7.0", clock.now());
            history.push(pass(&none));
            // A quarantine pass in the middle reads like any other pass
            // (warm mirrors, carried seed); only its decisions differ.
            let q: BTreeSet<DeviceName> = [DeviceName::new("agg-1-2")].into_iter().collect();
            propose_upgrade(&storage, &app, "agg-1-2", "8.0", clock.now());
            history.push(pass(&q));
            // And a final clean pass.
            propose_upgrade(&storage, &app, "agg-1-4", "7.0", clock.now());
            history.push(pass(&none));
            let mut ts = storage
                .read(ReadRequest {
                    datacenter: DatacenterId::new("dc1"),
                    pool: Pool::Target,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            ts.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
            let summary: Vec<_> = history
                .iter()
                .map(|r| {
                    (
                        r.proposals_seen,
                        r.accepted,
                        r.rejected,
                        r.already_satisfied,
                        r.ts_pruned,
                        r.quarantine_rejected,
                    )
                })
                .collect();
            (
                summary,
                ts.into_iter()
                    .map(|r| (r.key(), r.value))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn first_seed_of_a_cold_mirror_is_not_a_full_degrade() {
        let (graph, storage, clock) = setup();
        // More group rows than the change track holds, written in chunks
        // so the index serves them from genesis as an incremental reply.
        let write = |version: &str| {
            let rows: Vec<NetworkState> = (0..SEED_TRACK_LIMIT + 500)
                .map(|i| {
                    os_row(
                        EntityName::device("dc1", format!("dev-{i}")),
                        Attribute::DeviceFirmwareVersion,
                        Value::text(version),
                        clock.now(),
                    )
                })
                .collect();
            for chunk in rows.chunks(3_000) {
                let (pool, rows) = (Pool::Observed, chunk.to_vec());
                storage.write(WriteRequest { pool, rows }).unwrap();
            }
        };
        write("6.0");
        let genesis = storage.read_since(&DatacenterId::new("dc1"), &Pool::Observed, Version(0));
        assert!(!genesis.unwrap().snapshot);

        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let seeded = chk.run_pass(&storage, clock.now()).unwrap();
        assert!(seeded.variables_read > SEED_TRACK_LIMIT);
        assert_eq!(
            chk.full_degrades(),
            0,
            "a cold mirror has no seed to degrade"
        );
        // The same churn on the established mirror is the real thing.
        write("7.0");
        chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(chk.full_degrades(), 1);
    }

    #[test]
    fn a_failed_pass_forces_the_next_one_to_reseed() {
        // One checker over two partitions: a pass that advances dc1's
        // mirror and then fails on dc2 has consumed dc1's changes without
        // acting on them, so the carried seed must go with it.
        let clock = SimClock::new();
        let mut graph = NetworkGraph::new();
        DcnSpec::tiny("dc1").build_prefixed_into(&mut graph);
        DcnSpec::tiny("dc2").build_prefixed_into(&mut graph);
        let dcs = [DatacenterId::new("dc1"), DatacenterId::new("dc2")];
        let storage = StorageService::new(dcs.clone(), clock.clone(), Default::default());
        seed_os(&graph, &storage, clock.now());
        let group = ImpactGroup::Global;
        let policy = MergePolicy::LastWriterWins;
        let mut chk = Checker::new(CheckerConfig { group, policy }, graph.clone());
        chk.add_invariant(Box::new(TorPairCapacityInvariant::paper_default(
            &graph,
            "dc1",
            Some(1),
        )));
        chk.run_pass(&storage, clock.now()).unwrap();

        // One of pod 1's two aggs goes dark while dc2 is unreadable.
        let agg = |a: u32| EntityName::device("dc1", format!("dc1.agg-1-{a}"));
        let power_off = os_row(
            agg(1),
            Attribute::DeviceAdminPower,
            Value::power(false),
            clock.now(),
        );
        let (pool, rows) = (Pool::Observed, vec![power_off]);
        storage.write(WriteRequest { pool, rows }).unwrap();
        storage.set_partition_available(&dcs[1], false);
        assert!(chk.run_pass(&storage, clock.now()).is_err());
        storage.set_partition_available(&dcs[1], true);

        // Upgrading the other agg would now cut the pod off.
        let app = AppId::new("switch-upgrade");
        let upgrade = NetworkState::new(
            agg(2),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            clock.now(),
            app.clone(),
        );
        let (pool, rows) = (Pool::Proposed(app), vec![upgrade]);
        storage.write(WriteRequest { pool, rows }).unwrap();
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert_eq!(report.accepted, 0, "{:?}", report.receipts);
        assert!(matches!(
            report.receipts[0].outcome,
            WriteOutcome::RejectedInvariant { .. }
        ));
    }

    #[test]
    fn wall_clock_latency_is_reported() {
        let (graph, storage, clock) = setup();
        seed_os(&graph, &storage, clock.now());
        let chk = checker(&graph, MergePolicy::LastWriterWins);
        let report = chk.run_pass(&storage, clock.now()).unwrap();
        assert!(report.variables_read > 0);
        assert!(report.elapsed.as_nanos() > 0);
    }
}
