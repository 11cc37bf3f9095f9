//! The application-facing client (paper §2, §6.4).
//!
//! Applications never touch devices: they *pull* the observed state, run
//! their logic, *push* a proposed state, and later poll acceptance or
//! rejection receipts — reacting by re-reading the OS and re-proposing
//! (§7.1: "they need to run iteratively to adapt to the latest OS and the
//! acceptance or rejection of their previous PSes").

use crate::locks::lock_value;
use statesman_net::SimClock;
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, LockPriority, NetworkState, Pool,
    SimTime, StateDelta, StateKey, StateResult, Value, Version, WriteReceipt,
};

/// A Statesman client bound to one application identity.
#[derive(Clone)]
pub struct StatesmanClient {
    app: AppId,
    storage: StorageService,
    clock: SimClock,
}

impl StatesmanClient {
    /// Bind a client for `app`.
    pub fn new(app: impl Into<AppId>, storage: StorageService, clock: SimClock) -> Self {
        StatesmanClient {
            app: app.into(),
            storage,
            clock,
        }
    }

    /// This client's application id.
    pub fn app(&self) -> &AppId {
        &self.app
    }

    /// Current simulated time (for stamping proposals).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Read the full observed state of one datacenter at the chosen
    /// freshness.
    pub fn read_os(
        &self,
        dc: &DatacenterId,
        freshness: Freshness,
    ) -> StateResult<Vec<NetworkState>> {
        self.storage.read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness,
            entity: None,
            attribute: None,
        })
    }

    /// Read the observed-state changes of one datacenter since a
    /// previously returned watermark (§6.4's bounded-stale pull, but
    /// incremental). Pass [`Version::GENESIS`] on the first call; feed
    /// the returned `watermark` back in on the next. When the change
    /// index no longer covers `since`, the reply is a full snapshot
    /// (`delta.snapshot == true`) — apply it the same way.
    pub fn read_os_since(&self, dc: &DatacenterId, since: Version) -> StateResult<StateDelta> {
        self.storage.read_since(dc, &Pool::Observed, since)
    }

    /// Read one observed variable (always up-to-date).
    pub fn read_os_value(
        &self,
        entity: &EntityName,
        attribute: Attribute,
    ) -> StateResult<Option<Value>> {
        Ok(self
            .storage
            .read_row(&Pool::Observed, &StateKey::new(entity.clone(), attribute))?
            .map(|r| r.value))
    }

    /// Read one target-state variable (e.g. to see whether an accepted
    /// change is still pending).
    pub fn read_ts_value(
        &self,
        entity: &EntityName,
        attribute: Attribute,
    ) -> StateResult<Option<Value>> {
        Ok(self
            .storage
            .read_row(&Pool::Target, &StateKey::new(entity.clone(), attribute))?
            .map(|r| r.value))
    }

    /// Propose values (one PS write; rows are stamped with the current
    /// time and this client's identity).
    pub fn propose(
        &self,
        changes: impl IntoIterator<Item = (EntityName, Attribute, Value)>,
    ) -> StateResult<()> {
        let now = self.clock.now();
        let rows: Vec<NetworkState> = changes
            .into_iter()
            .map(|(e, a, v)| NetworkState::new(e, a, v, now, self.app.clone()))
            .collect();
        if rows.is_empty() {
            return Ok(());
        }
        self.storage.write(WriteRequest {
            pool: Pool::Proposed(self.app.clone()),
            rows,
        })
    }

    /// Poll (and consume) this application's receipts across all
    /// partitions. Each receipt is delivered once: a partition that is
    /// unavailable keeps its receipts for a later call, and the call
    /// fails only when no partition delivered any (see
    /// [`StorageService::take_all_receipts`]).
    pub fn take_receipts(&self) -> StateResult<Vec<WriteReceipt>> {
        let mut all = self.storage.take_all_receipts(&self.app)?;
        all.sort_by(|a, b| {
            a.decided_at
                .cmp(&b.decided_at)
                .then_with(|| a.key.cmp(&b.key))
        });
        Ok(all)
    }

    /// Propose acquiring (or refreshing) a lock on an entity.
    pub fn acquire_lock(
        &self,
        entity: &EntityName,
        priority: LockPriority,
        lease: Option<SimTime>,
    ) -> StateResult<()> {
        let v = lock_value(&self.app, priority, self.clock.now(), lease);
        self.propose([(entity.clone(), Attribute::EntityLock, v)])
    }

    /// Propose releasing a lock.
    pub fn release_lock(&self, entity: &EntityName) -> StateResult<()> {
        self.propose([(entity.clone(), Attribute::EntityLock, Value::None)])
    }

    /// Whether this client currently holds the lock on an entity (reads
    /// the TS).
    pub fn holds_lock(&self, entity: &EntityName) -> StateResult<bool> {
        let v = self.read_ts_value(entity, Attribute::EntityLock)?;
        Ok(v.and_then(|v| v.as_lock().cloned())
            .map(|l| l.holder == self.app && !l.is_expired(self.clock.now()))
            .unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, CheckerConfig, MergePolicy};
    use crate::groups::ImpactGroup;
    use statesman_net::SimClock;
    use statesman_topology::DcnSpec;

    fn setup() -> (StorageService, SimClock, Checker) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let storage = StorageService::single_dc("dc1", clock.clone());
        let checker = Checker::new(
            CheckerConfig {
                group: ImpactGroup::Datacenter(DatacenterId::new("dc1")),
                policy: MergePolicy::PriorityLock,
            },
            graph,
        );
        (storage, clock, checker)
    }

    #[test]
    fn propose_and_poll_receipts() {
        let (storage, clock, checker) = setup();
        let c = StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone());
        c.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        let receipts = c.take_receipts().unwrap();
        assert_eq!(receipts.len(), 1);
        assert!(receipts[0].outcome.is_accepted());
        assert_eq!(
            c.read_ts_value(
                &EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion
            )
            .unwrap(),
            Some(Value::text("7.0"))
        );
    }

    #[test]
    fn lock_lifecycle_through_client() {
        let (storage, clock, checker) = setup();
        let te = StatesmanClient::new("inter-dc-te", storage.clone(), clock.clone());
        let upg = StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone());
        let br = EntityName::device("dc1", "agg-1-1");

        te.acquire_lock(&br, LockPriority::Low, None).unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        assert!(te.holds_lock(&br).unwrap());
        assert!(!upg.holds_lock(&br).unwrap());

        // High priority preempts.
        upg.acquire_lock(&br, LockPriority::High, None).unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        assert!(upg.holds_lock(&br).unwrap());
        assert!(!te.holds_lock(&br).unwrap());

        // TE fails to re-acquire while the high lock is live.
        te.acquire_lock(&br, LockPriority::Low, None).unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        assert!(!te.holds_lock(&br).unwrap());
        let r = te.take_receipts().unwrap();
        assert!(r.iter().any(|x| x.outcome.is_rejected()));

        // Release; TE re-acquires.
        upg.release_lock(&br).unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        te.acquire_lock(&br, LockPriority::Low, None).unwrap();
        checker.run_pass(&storage, clock.now()).unwrap();
        assert!(te.holds_lock(&br).unwrap());
    }

    #[test]
    fn read_os_since_tracks_the_observed_pool() {
        let (storage, clock, _checker) = setup();
        let c = StatesmanClient::new("app", storage.clone(), clock.clone());
        let dc = DatacenterId::new("dc1");
        let row = |name: &str, fw: &str| {
            NetworkState::new(
                EntityName::device("dc1", name),
                Attribute::DeviceFirmwareVersion,
                Value::text(fw),
                clock.now(),
                AppId::new("monitor"),
            )
        };
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("agg-1-1", "6.0"), row("agg-1-2", "6.0")],
            })
            .unwrap();

        let d0 = c.read_os_since(&dc, Version::GENESIS).unwrap();
        assert_eq!(d0.upserts.len(), 2);

        // Nothing new: the delta at the watermark is empty.
        let d1 = c.read_os_since(&dc, d0.watermark).unwrap();
        assert!(d1.is_empty());
        assert_eq!(d1.watermark, d0.watermark);

        // One more write: exactly one upsert since the last watermark.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("agg-1-1", "7.0")],
            })
            .unwrap();
        let d2 = c.read_os_since(&dc, d1.watermark).unwrap();
        assert_eq!(d2.upserts.len(), 1);
        assert_eq!(d2.upserts[0].value, Value::text("7.0"));
        assert!(!d2.snapshot);
    }

    /// Exactly once across a partial outage: with `dc2` down, a take
    /// delivers what `dc1` holds (or nothing) and acknowledges nothing it
    /// does not return, so after `dc2` heals the next take delivers the
    /// rest and no receipt twice.
    #[test]
    fn a_partial_take_loses_and_repeats_nothing() {
        let clock = SimClock::new();
        let storage = StorageService::new(
            [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
            clock.clone(),
            statesman_storage::StorageConfig::default(),
        );
        let c = StatesmanClient::new("app", storage.clone(), clock.clone());
        let receipt = |dc: &str| WriteReceipt {
            app: c.app().clone(),
            key: StateKey::new(
                EntityName::device(dc, "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
            ),
            proposed: Value::text("7.0"),
            outcome: statesman_types::WriteOutcome::Accepted,
            decided_at: clock.now(),
        };
        for dc in ["dc1", "dc2"] {
            storage
                .post_receipts(&DatacenterId::new(dc), vec![receipt(dc)])
                .unwrap();
        }
        let dc2 = DatacenterId::new("dc2");
        storage.set_partition_available(&dc2, false);
        let mut delivered = c.take_receipts().unwrap_or_default();
        storage.set_partition_available(&dc2, true);
        delivered.extend(c.take_receipts().unwrap());
        assert_eq!(delivered, vec![receipt("dc1"), receipt("dc2")]);
        assert!(c.take_receipts().unwrap().is_empty());
    }

    #[test]
    fn empty_proposals_are_noops() {
        let (storage, clock, _checker) = setup();
        let c = StatesmanClient::new("app", storage, clock);
        c.propose([]).unwrap();
        assert!(c.take_receipts().unwrap().is_empty());
    }
}
