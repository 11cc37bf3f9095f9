//! Per-replica durable write-ahead log with CRC32 + length framing and a
//! `prev_hash` chain.
//!
//! Every acceptor promise, acceptor accept, and learner commit is appended
//! to the replica's [`ReplicaStore`] *before* the corresponding message is
//! acknowledged, so a kill -9 never loses acknowledged state. The framed
//! backends lay records out as
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬───────────┬────────────────┐
//! │ len u32 │ crc u32 │ seq u64 │ prev u64  │ payload (JSON) │
//! │   LE    │   LE    │   LE    │   LE      │   len bytes    │
//! └─────────┴─────────┴─────────┴───────────┴────────────────┘
//! ```
//!
//! where `crc` covers `seq ‖ prev ‖ payload` and `prev` is the running
//! FNV-1a-64 hash chain: the genesis record hashes from zero, and after a
//! snapshot compaction the retained tail is re-framed onto a fresh chain
//! anchored at `chain_hash(0, snapshot_payload)` — so the snapshot + log
//! pair is tamper-evident as a unit.
//!
//! Recovery ([`ReplicaStore::load`]) is repair-or-refuse:
//!
//! * a torn **final** record (incomplete bytes or CRC failure at the tail)
//!   is truncated and the medium repaired — the record was never
//!   acknowledged, so dropping it is safe;
//! * any **mid-log** CRC, sequence, or chain break means tampering or
//!   media corruption of acknowledged state: the log is *refused*, the
//!   replica recovers from its last valid snapshot alone, and the ring's
//!   catch-up machinery re-ships the lost suffix from the leader.
//!
//! Three backends share one API ([`DurabilityMode`]): a logical in-memory
//! event store (the default — no byte serialization, keeps bench numbers
//! comparable), a byte-framed in-memory store (corruption-injectable, used
//! by chaos), and real files (one `replica-N.wal`/`replica-N.snap` pair
//! per replica under a per-partition directory).

use crate::bus::ReplicaId;
use crate::machine::{Fields, StateMachine};
use crate::paxos::{Ballot, Slot};
use crate::snapshot::{MachineImage, Snapshot, SnapshotWire};
use crate::LogCommand;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Which durability backend a ring's replicas write to.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DurabilityMode {
    /// Logical in-memory event store: structural clones, no byte framing.
    /// The default — existing benches measure consensus, not serialization.
    #[default]
    Memory,
    /// Byte-framed log held in memory: full CRC + hash-chain framing,
    /// corruption injectable, no filesystem traffic. The chaos default.
    FramedMemory,
    /// Byte-framed log on real files under the given directory (one
    /// subdirectory per partition, one `.wal`/`.snap` pair per replica).
    Dir(PathBuf),
}

/// One durable log record: the acceptor/learner transitions that must
/// survive a crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalEvent {
    /// Acceptor promised a ballot (phase 1b, or a candidate's
    /// self-promise).
    Promise {
        /// The promised ballot.
        ballot: Ballot,
    },
    /// Acceptor accepted a value for a slot (phase 2b, or a leader's
    /// self-accept).
    Accept {
        /// Target slot.
        slot: Slot,
        /// The accepting ballot.
        ballot: Ballot,
        /// The accepted value.
        cmd: LogCommand,
    },
    /// Learner committed a chosen slot.
    Commit {
        /// The chosen slot.
        slot: Slot,
        /// The chosen value.
        cmd: LogCommand,
    },
}

impl WalEvent {
    /// Rough payload size (row count) for snapshot-cadence accounting.
    pub fn weight(&self) -> usize {
        match self {
            WalEvent::Promise { .. } => 1,
            WalEvent::Accept { cmd, .. } | WalEvent::Commit { cmd, .. } => cmd.weight(),
        }
    }
}

/// Corruption to inject into a crashed replica's durable files (chaos
/// harness). Only meaningful on framed backends; the logical backend
/// models a perfect medium and ignores injection.
#[derive(Debug, Clone, PartialEq)]
pub enum WalCorruption {
    /// No corruption.
    None,
    /// Append this many garbage bytes to the log tail — models a record
    /// that was mid-write (and therefore never acknowledged) when the
    /// process died. Recovery must truncate it.
    TornTail {
        /// Number of garbage bytes to append.
        bytes: usize,
    },
    /// Flip a bit in acknowledged durable state: a mid-log record when the
    /// log has two or more records, otherwise the snapshot blob. Recovery
    /// must refuse the damaged portion (never serve it) and fall back to
    /// snapshot + leader catch-up.
    BitFlip,
}

/// Cumulative per-store counters, surfaced as `wal_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalStats {
    /// Records appended (acknowledged writes only — injection excluded).
    pub appends: u64,
    /// Bytes written (framed backends: exact; logical backend: estimate).
    pub bytes_written: u64,
    /// Synchronous flushes (one per append/snapshot write, modeling
    /// sync-before-ack; real `File::sync_all` calls on the dir backend).
    pub fsyncs: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Torn records truncated during recovery.
    pub truncated_records: u64,
    /// Recoveries that refused a corrupted log/snapshot.
    pub refusals: u64,
    /// Highest decree durably committed in this store.
    pub tail_decree: u64,
}

impl WalStats {
    /// Fold another store's counters into this one (ring aggregation).
    pub fn merge(&mut self, other: &WalStats) {
        self.appends += other.appends;
        self.bytes_written += other.bytes_written;
        self.fsyncs += other.fsyncs;
        self.compactions += other.compactions;
        self.truncated_records += other.truncated_records;
        self.refusals += other.refusals;
        self.tail_decree = self.tail_decree.max(other.tail_decree);
    }
}

/// What [`ReplicaStore::load`] recovered from the medium.
#[derive(Debug)]
pub struct WalLoad {
    /// The durable snapshot, if one was written and is intact.
    pub snapshot: Option<Snapshot>,
    /// The log tail above the snapshot, in append order (empty when the
    /// log was refused).
    pub events: Vec<WalEvent>,
    /// Torn tail records truncated by this load.
    pub truncated_records: u64,
    /// Whether acknowledged durable state was refused as corrupt (the
    /// replica must rejoin via leader catch-up).
    pub refused: bool,
}

// ---- framing primitives ----

/// Bytes of fixed header per record: len(4) + crc(4) + seq(8) + prev(8).
pub const RECORD_HEADER_LEN: usize = 24;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the register by eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant), eight bytes
/// a step; the tail of fewer than eight bytes goes one byte a step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One FNV-1a-64 hash-chain step: fold the previous link and this record's
/// payload. The genesis record chains from `prev = 0`; a post-snapshot
/// chain is anchored at `chain_hash(0, snapshot_payload)`.
pub fn chain_hash(prev: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in prev.to_le_bytes().iter().chain(payload.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn u32_le(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
}

fn u64_le(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"))
}

/// Frame one record: `[len][crc][seq][prev_hash][payload]`, CRC over
/// `seq ‖ prev_hash ‖ payload`.
pub fn encode_record(seq: u64, prev_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    rec.resize(RECORD_HEADER_LEN, 0);
    rec.extend_from_slice(payload);
    seal_record(&mut rec, seq, prev_hash);
    rec
}

/// Frame one event: its JSON is written in place after the reserved
/// header, so the payload is never copied. The same bytes as
/// `encode_record` of the event's `serde_json::to_vec`.
fn frame_event(seq: u64, prev_hash: u64, ev: &WalEvent) -> Vec<u8> {
    let mut rec = json_after_header(RECORD_HEADER_LEN, ev);
    seal_record(&mut rec, seq, prev_hash);
    rec
}

/// `header_len` zero bytes followed by `value`'s JSON text.
fn json_after_header(header_len: usize, value: &impl Serialize) -> Vec<u8> {
    let mut text = "\0".repeat(header_len);
    value
        .write_json(&mut text)
        .expect("durable state serializes");
    // The stream must write the tree walk's bytes (tests/json_codec.rs
    // checks it on generated values; this checks every durable write of
    // every debug-build test).
    debug_assert_eq!(
        text[header_len..],
        serde_json::to_string_via_content(value).expect("the tree writes what the stream wrote")
    );
    text.into_bytes()
}

/// Fill in the header of a record whose payload follows
/// `RECORD_HEADER_LEN` reserved bytes.
fn seal_record(rec: &mut [u8], seq: u64, prev_hash: u64) {
    let len = (rec.len() - RECORD_HEADER_LEN) as u32;
    rec[0..4].copy_from_slice(&len.to_le_bytes());
    rec[8..16].copy_from_slice(&seq.to_le_bytes());
    rec[16..24].copy_from_slice(&prev_hash.to_le_bytes());
    let crc = crc32(&rec[8..]);
    rec[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// The outcome of walking a framed log from its chain anchor.
#[derive(Debug)]
pub struct ReplayedLog {
    /// Payloads of every verified record, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte offset where each verified record starts.
    pub offsets: Vec<usize>,
    /// Length of the verified prefix; bytes beyond it are torn or corrupt.
    pub valid_len: usize,
    /// Sequence number the next append would take.
    pub end_seq: u64,
    /// Chain hash after the last verified record.
    pub end_hash: u64,
    /// Torn records found at the tail (safe to truncate: never
    /// acknowledged).
    pub truncated_records: u64,
    /// A mid-log CRC/sequence/chain violation, if one was found —
    /// acknowledged state is damaged and the log must be refused.
    pub corrupt: Option<String>,
}

/// Walk a framed log, verifying CRCs, sequence numbers, and the hash
/// chain from `anchor`. Stops at the first problem: an incomplete or
/// CRC-failing *final* record counts as torn; anything else marks the log
/// corrupt.
pub fn replay_log(bytes: &[u8], anchor: u64) -> ReplayedLog {
    let mut out = ReplayedLog {
        payloads: Vec::new(),
        offsets: Vec::new(),
        valid_len: 0,
        end_seq: 0,
        end_hash: anchor,
        truncated_records: 0,
        corrupt: None,
    };
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < RECORD_HEADER_LEN {
            out.truncated_records += 1;
            break;
        }
        let len = u32_le(bytes, pos) as usize;
        if remaining < RECORD_HEADER_LEN + len {
            // NOTE: a corrupted length field that points past EOF is
            // indistinguishable from a torn tail and is truncated; the
            // ring-level `RecoverySafetyChecker` is the backstop if that
            // ever drops acknowledged commits.
            out.truncated_records += 1;
            break;
        }
        let crc = u32_le(bytes, pos + 4);
        let seq = u64_le(bytes, pos + 8);
        let prev = u64_le(bytes, pos + 16);
        let end = pos + RECORD_HEADER_LEN + len;
        let actual = crc32(&bytes[pos + 8..end]);
        if actual != crc {
            if end == bytes.len() {
                out.truncated_records += 1;
            } else {
                out.corrupt = Some(format!(
                    "crc mismatch at record {} (offset {pos}): stored {crc:#010x}, computed {actual:#010x}",
                    out.end_seq
                ));
            }
            break;
        }
        if seq != out.end_seq || prev != out.end_hash {
            out.corrupt = Some(format!(
                "hash chain break at record {} (offset {pos}): expected seq {} prev {:#018x}, found seq {seq} prev {prev:#018x}",
                out.end_seq, out.end_seq, out.end_hash
            ));
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..end];
        out.end_hash = chain_hash(out.end_hash, payload);
        out.end_seq += 1;
        out.offsets.push(pos);
        out.payloads.push(payload.to_vec());
        pos = end;
        out.valid_len = pos;
    }
    out
}

/// Frame a snapshot blob: `[len u32][crc u32][payload]`, CRC over the
/// payload, which is `wire`'s JSON: a [`SnapshotWire`], or the same
/// fields over a borrowed machine image. Returns the blob and the chain
/// anchor the log after this snapshot must start from.
pub fn encode_snapshot_blob(wire: &impl Serialize) -> (Vec<u8>, u64) {
    let mut blob = json_after_header(8, wire);
    let (header, payload) = blob.split_at_mut(8);
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    let anchor = chain_hash(0, payload);
    (blob, anchor)
}

/// Decode and verify a snapshot blob. Returns the snapshot and the chain
/// anchor derived from its payload.
pub fn decode_snapshot_blob(blob: &[u8]) -> Result<(SnapshotWire, u64), String> {
    if blob.len() < 8 {
        return Err(format!("snapshot blob too short ({} bytes)", blob.len()));
    }
    let len = u32_le(blob, 0) as usize;
    if blob.len() != 8 + len {
        return Err(format!(
            "snapshot blob length mismatch: header says {len}, have {}",
            blob.len() - 8
        ));
    }
    let crc = u32_le(blob, 4);
    let payload = &blob[8..];
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!(
            "snapshot crc mismatch: stored {crc:#010x}, computed {actual:#010x}"
        ));
    }
    let wire: SnapshotWire = serde_json::from_slice(payload)
        .map_err(|e| format!("snapshot payload unparseable: {e:?}"))?;
    Ok((wire, chain_hash(0, payload)))
}

// ---- media ----

/// Flush a directory entry change (a creation or a rename) of `path` to
/// the medium. Not counted in `WalStats::fsyncs`, which counts flush
/// points of the log, not syscalls.
fn sync_parent_dir(path: &std::path::Path) {
    let dir = path.parent().expect("a replica file lives in a directory");
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .unwrap_or_else(|e| panic!("fsync {}: {e}", dir.display()));
}

#[derive(Debug)]
enum Media {
    Mem {
        wal: Vec<u8>,
        snap: Option<Vec<u8>>,
    },
    Dir {
        wal_path: PathBuf,
        snap_path: PathBuf,
    },
}

impl Media {
    fn read_wal(&self) -> Vec<u8> {
        match self {
            Media::Mem { wal, .. } => wal.clone(),
            Media::Dir { wal_path, .. } => std::fs::read(wal_path).unwrap_or_default(),
        }
    }

    fn read_snap(&self) -> Option<Vec<u8>> {
        match self {
            Media::Mem { snap, .. } => snap.clone(),
            Media::Dir { snap_path, .. } => std::fs::read(snap_path).ok(),
        }
    }

    /// Append + flush. Returns fsyncs performed (modeled as 1 in memory).
    fn append_wal(&mut self, bytes: &[u8]) -> u64 {
        match self {
            Media::Mem { wal, .. } => {
                wal.extend_from_slice(bytes);
                1
            }
            Media::Dir { wal_path, .. } => {
                let created = !wal_path.exists();
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&*wal_path)
                    .unwrap_or_else(|e| panic!("open {}: {e}", wal_path.display()));
                f.write_all(bytes)
                    .unwrap_or_else(|e| panic!("append {}: {e}", wal_path.display()));
                f.sync_all()
                    .unwrap_or_else(|e| panic!("fsync {}: {e}", wal_path.display()));
                if created {
                    sync_parent_dir(wal_path);
                }
                1
            }
        }
    }

    /// Replace the whole log + flush. Returns fsyncs performed.
    fn rewrite_wal(&mut self, bytes: &[u8]) -> u64 {
        match self {
            Media::Mem { wal, .. } => {
                *wal = bytes.to_vec();
                1
            }
            Media::Dir { wal_path, .. } => {
                let created = !wal_path.exists();
                let mut f = std::fs::File::create(&*wal_path)
                    .unwrap_or_else(|e| panic!("create {}: {e}", wal_path.display()));
                f.write_all(bytes)
                    .unwrap_or_else(|e| panic!("write {}: {e}", wal_path.display()));
                f.sync_all()
                    .unwrap_or_else(|e| panic!("fsync {}: {e}", wal_path.display()));
                if created {
                    sync_parent_dir(wal_path);
                }
                1
            }
        }
    }

    /// Write the snapshot blob (tmp + rename on disk). Returns fsyncs.
    fn write_snap(&mut self, bytes: &[u8]) -> u64 {
        match self {
            Media::Mem { snap, .. } => {
                *snap = Some(bytes.to_vec());
                1
            }
            Media::Dir { snap_path, .. } => {
                let tmp = snap_path.with_extension("snap.tmp");
                let mut f = std::fs::File::create(&tmp)
                    .unwrap_or_else(|e| panic!("create {}: {e}", tmp.display()));
                f.write_all(bytes)
                    .unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
                f.sync_all()
                    .unwrap_or_else(|e| panic!("fsync {}: {e}", tmp.display()));
                std::fs::rename(&tmp, &snap_path)
                    .unwrap_or_else(|e| panic!("rename {}: {e}", snap_path.display()));
                // The rename is durable only once the directory is: else a
                // crash can bring the old snapshot back beside a log
                // already re-anchored to the new one.
                sync_parent_dir(snap_path);
                1
            }
        }
    }

    fn remove_snap(&mut self) {
        match self {
            Media::Mem { snap, .. } => *snap = None,
            Media::Dir { snap_path, .. } => {
                let _ = std::fs::remove_file(snap_path);
            }
        }
    }

    fn anchor(&self) -> u64 {
        match self.read_snap() {
            Some(blob) => decode_snapshot_blob(&blob).map(|(_, a)| a).unwrap_or(0),
            None => 0,
        }
    }
}

// ---- the store ----

// One store per replica, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum StoreInner {
    /// Logical event store: an ideal medium that never tears or flips.
    Logical {
        snapshot: Option<Snapshot>,
        events: Vec<WalEvent>,
        stats: WalStats,
    },
    /// Byte-framed medium (in memory or on disk). `next_seq`/`last_hash`
    /// track the append position; they are established by
    /// [`ReplicaStore::load`], which must run before the first append on
    /// pre-existing media.
    Framed {
        media: Media,
        next_seq: u64,
        last_hash: u64,
        stats: WalStats,
        /// Framed records buffered by an open commit group (group commit:
        /// one media write + one fsync at [`ReplicaStore::end_group`]
        /// instead of per-append). Always empty between groups.
        pending: Vec<u8>,
        /// Open group nesting depth; appends hit the media directly at 0.
        group_depth: u32,
    },
}

/// One replica's durable storage: WAL + snapshot, shared by handle so the
/// "disk" survives the in-RAM replica being dropped on kill -9.
#[derive(Clone)]
pub struct ReplicaStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl ReplicaStore {
    /// Open (or create) the store for one replica.
    pub fn new(mode: &DurabilityMode, id: ReplicaId) -> ReplicaStore {
        let inner = match mode {
            DurabilityMode::Memory => StoreInner::Logical {
                snapshot: None,
                events: Vec::new(),
                stats: WalStats::default(),
            },
            DurabilityMode::FramedMemory => StoreInner::Framed {
                media: Media::Mem {
                    wal: Vec::new(),
                    snap: None,
                },
                next_seq: 0,
                last_hash: 0,
                stats: WalStats::default(),
                pending: Vec::new(),
                group_depth: 0,
            },
            DurabilityMode::Dir(base) => {
                std::fs::create_dir_all(base)
                    .unwrap_or_else(|e| panic!("create dir {}: {e}", base.display()));
                StoreInner::Framed {
                    media: Media::Dir {
                        wal_path: base.join(format!("replica-{}.wal", id.0)),
                        snap_path: base.join(format!("replica-{}.snap", id.0)),
                    },
                    next_seq: 0,
                    last_hash: 0,
                    stats: WalStats::default(),
                    pending: Vec::new(),
                    group_depth: 0,
                }
            }
        };
        ReplicaStore {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Durably append one event (synchronous: the flush is counted before
    /// this returns, modeling log-before-ack).
    pub fn append(&self, ev: &WalEvent) {
        let mut inner = self.inner.lock().unwrap();
        match &mut *inner {
            StoreInner::Logical { events, stats, .. } => {
                stats.appends += 1;
                stats.fsyncs += 1;
                // Estimated encoded size; the logical backend never
                // serializes, so benches don't pay for byte framing.
                stats.bytes_written += (RECORD_HEADER_LEN + 24 + 16 * ev.weight()) as u64;
                if let WalEvent::Commit { slot, .. } = ev {
                    stats.tail_decree = stats.tail_decree.max(*slot);
                }
                events.push(ev.clone());
            }
            StoreInner::Framed {
                media,
                next_seq,
                last_hash,
                stats,
                pending,
                group_depth,
            } => {
                let rec = frame_event(*next_seq, *last_hash, ev);
                if *group_depth > 0 {
                    // Group commit: buffer the framed record; the group's
                    // single media write + fsync happens at end_group,
                    // before the client's commit is acknowledged.
                    pending.extend_from_slice(&rec);
                } else {
                    stats.fsyncs += media.append_wal(&rec);
                }
                stats.appends += 1;
                stats.bytes_written += rec.len() as u64;
                *last_hash = chain_hash(*last_hash, &rec[RECORD_HEADER_LEN..]);
                *next_seq += 1;
                if let WalEvent::Commit { slot, .. } = ev {
                    stats.tail_decree = stats.tail_decree.max(*slot);
                }
            }
        }
    }

    /// Open a commit group: subsequent appends buffer their framed
    /// records instead of writing + flushing the medium one at a time.
    /// The whole group lands with **one** media write and one fsync at
    /// the matching [`ReplicaStore::end_group`] — the classic group
    /// commit, sound here because the client's acknowledgment (the
    /// return from the ring's `submit`) is deferred until after the
    /// group closes. Logical stores model an ideal medium and ignore
    /// grouping. Groups nest; only the outermost close flushes.
    pub fn begin_group(&self) {
        let mut inner = self.inner.lock().unwrap();
        if let StoreInner::Framed { group_depth, .. } = &mut *inner {
            *group_depth += 1;
        }
    }

    /// Close a commit group, flushing every buffered record with a single
    /// media write + fsync. No-op when nothing was buffered.
    pub fn end_group(&self) {
        let mut inner = self.inner.lock().unwrap();
        if let StoreInner::Framed {
            media,
            stats,
            pending,
            group_depth,
            ..
        } = &mut *inner
        {
            *group_depth = group_depth.saturating_sub(1);
            if *group_depth == 0 && !pending.is_empty() {
                stats.fsyncs += media.append_wal(pending);
                pending.clear();
            }
        }
    }

    /// Recover durable state from the medium: verify framing and the hash
    /// chain, repair a torn tail (truncate; those records were never
    /// acknowledged), refuse a mid-log break (fall back to the snapshot
    /// alone and let leader catch-up re-ship the suffix).
    pub fn load(&self) -> WalLoad {
        let mut inner = self.inner.lock().unwrap();
        match &mut *inner {
            StoreInner::Logical {
                snapshot, events, ..
            } => WalLoad {
                snapshot: snapshot.clone(),
                events: events.clone(),
                truncated_records: 0,
                refused: false,
            },
            StoreInner::Framed {
                media,
                next_seq,
                last_hash,
                stats,
                pending,
                group_depth,
            } => {
                // A load with an open group means the caller abandoned the
                // group (e.g. a crash-restart mid-submit): flush whatever
                // was buffered so the chain on the medium matches the
                // in-memory seq/hash cursor before replaying it.
                if !pending.is_empty() {
                    stats.fsyncs += media.append_wal(pending);
                    pending.clear();
                }
                *group_depth = 0;
                let (snapshot, anchor) = match media.read_snap() {
                    None => (None, 0u64),
                    Some(blob) => match decode_snapshot_blob(&blob) {
                        Ok((wire, anchor)) => (Some(wire.into_snapshot()), anchor),
                        Err(_) => {
                            // The snapshot itself is damaged: refuse
                            // everything, start empty, rejoin by catch-up.
                            media.remove_snap();
                            stats.fsyncs += media.rewrite_wal(&[]);
                            stats.refusals += 1;
                            *next_seq = 0;
                            *last_hash = 0;
                            return WalLoad {
                                snapshot: None,
                                events: Vec::new(),
                                truncated_records: 0,
                                refused: true,
                            };
                        }
                    },
                };
                let bytes = media.read_wal();
                let replay = replay_log(&bytes, anchor);
                let mut refused = replay.corrupt.is_some();
                let mut events = Vec::with_capacity(replay.payloads.len());
                if !refused {
                    for p in &replay.payloads {
                        match serde_json::from_slice::<WalEvent>(p) {
                            Ok(ev) => events.push(ev),
                            Err(_) => {
                                refused = true;
                                events.clear();
                                break;
                            }
                        }
                    }
                }
                if refused {
                    stats.fsyncs += media.rewrite_wal(&[]);
                    stats.refusals += 1;
                    *next_seq = 0;
                    *last_hash = anchor;
                    if let Some(s) = &snapshot {
                        stats.tail_decree = stats.tail_decree.max(s.frontier.saturating_sub(1));
                    }
                    return WalLoad {
                        snapshot,
                        events: Vec::new(),
                        truncated_records: 0,
                        refused: true,
                    };
                }
                if replay.valid_len < bytes.len() {
                    stats.fsyncs += media.rewrite_wal(&bytes[..replay.valid_len]);
                }
                stats.truncated_records += replay.truncated_records;
                *next_seq = replay.end_seq;
                *last_hash = replay.end_hash;
                let mut tail = snapshot
                    .as_ref()
                    .map(|s| s.frontier.saturating_sub(1))
                    .unwrap_or(0);
                for ev in &events {
                    if let WalEvent::Commit { slot, .. } = ev {
                        tail = tail.max(*slot);
                    }
                }
                stats.tail_decree = stats.tail_decree.max(tail);
                WalLoad {
                    snapshot,
                    events,
                    truncated_records: replay.truncated_records,
                    refused: false,
                }
            }
        }
    }

    /// Snapshot compaction: persist the machine image at a committed
    /// decree boundary, then truncate the log prefix below it by
    /// re-framing `tail` (slots at or above `frontier`) onto a fresh
    /// chain anchored to the snapshot payload.
    pub fn write_snapshot(
        &self,
        frontier: Slot,
        promised: Ballot,
        machine: &StateMachine,
        tail: &[WalEvent],
    ) {
        let mut inner = self.inner.lock().unwrap();
        match &mut *inner {
            StoreInner::Logical {
                snapshot,
                events,
                stats,
            } => {
                *snapshot = Some(Snapshot {
                    frontier,
                    promised,
                    image: MachineImage::Live(machine.clone()),
                });
                *events = tail.to_vec();
                stats.compactions += 1;
                stats.fsyncs += 2;
                stats.tail_decree = stats.tail_decree.max(frontier.saturating_sub(1));
            }
            StoreInner::Framed {
                media,
                next_seq,
                last_hash,
                stats,
                pending,
                ..
            } => {
                // Compaction rewrites the log from scratch; any records a
                // group buffered are part of the tail being re-framed, so
                // the buffer itself is dead.
                pending.clear();
                // A `SnapshotWire`'s bytes, with the rows borrowed from
                // the machine rather than copied into an image.
                let image = machine.snapshot_view();
                let wire = Fields([
                    ("frontier", &frontier as &dyn Serialize),
                    ("promised", &promised),
                    ("machine", &image),
                ]);
                let (blob, anchor) = encode_snapshot_blob(&wire);
                stats.fsyncs += media.write_snap(&blob);
                stats.bytes_written += blob.len() as u64;
                let mut buf = Vec::new();
                let mut seq = 0u64;
                let mut hash = anchor;
                for ev in tail {
                    let rec = frame_event(seq, hash, ev);
                    buf.extend_from_slice(&rec);
                    hash = chain_hash(hash, &rec[RECORD_HEADER_LEN..]);
                    seq += 1;
                }
                stats.fsyncs += media.rewrite_wal(&buf);
                stats.bytes_written += buf.len() as u64;
                *next_seq = seq;
                *last_hash = hash;
                stats.compactions += 1;
                stats.tail_decree = stats.tail_decree.max(frontier.saturating_sub(1));
            }
        }
    }

    /// Inject corruption into the durable medium. Chaos-harness use only,
    /// and only while the owning replica is crashed (the injected damage
    /// models what recovery finds on disk after a kill -9).
    pub fn inject(&self, c: &WalCorruption) {
        let mut inner = self.inner.lock().unwrap();
        let StoreInner::Framed { media, .. } = &mut *inner else {
            return; // logical medium is modeled as perfect
        };
        match c {
            WalCorruption::None => {}
            WalCorruption::TornTail { bytes } => {
                let junk = vec![0xA7u8; (*bytes).max(1)];
                media.append_wal(&junk);
            }
            WalCorruption::BitFlip => {
                let anchor = media.anchor();
                let mut bytes = media.read_wal();
                let replay = replay_log(&bytes, anchor);
                if replay.offsets.len() >= 2 {
                    // Damage the first record's CRC: a mid-log break that
                    // recovery must refuse.
                    bytes[replay.offsets[0] + 4] ^= 0x01;
                    media.rewrite_wal(&bytes);
                } else if let Some(mut blob) = media.read_snap() {
                    if blob.len() > 8 {
                        blob[8] ^= 0x01;
                        media.write_snap(&blob);
                    }
                } else if replay.offsets.len() == 1 {
                    // Degenerate single-record log: the flip lands on the
                    // final record and recovery treats it as torn.
                    bytes[replay.offsets[0] + 4] ^= 0x01;
                    media.rewrite_wal(&bytes);
                }
            }
        }
    }

    /// Deliberately drop the last `n` acknowledged records, keeping the
    /// chain prefix valid — the broken canary that must trip the
    /// `RecoverySafetyChecker` (never call this outside tests).
    pub fn canary_truncate_tail_records(&self, n: usize) {
        let mut inner = self.inner.lock().unwrap();
        match &mut *inner {
            StoreInner::Logical { events, .. } => {
                let keep = events.len().saturating_sub(n);
                events.truncate(keep);
            }
            StoreInner::Framed {
                media,
                next_seq,
                last_hash,
                ..
            } => {
                let anchor = media.anchor();
                let bytes = media.read_wal();
                let replay = replay_log(&bytes, anchor);
                let keep = replay.payloads.len().saturating_sub(n);
                if keep == replay.payloads.len() {
                    return;
                }
                let cut = if keep == 0 { 0 } else { replay.offsets[keep] };
                media.rewrite_wal(&bytes[..cut]);
                let again = replay_log(&bytes[..cut], anchor);
                *next_seq = again.end_seq;
                *last_hash = again.end_hash;
            }
        }
    }

    /// Strict end-to-end verification of the snapshot + log pair: CRCs,
    /// sequence numbers, and the hash chain from the snapshot anchor.
    /// Returns the number of verified records. The logical backend has no
    /// bytes to verify and trivially passes.
    pub fn verify_chain(&self) -> Result<u64, String> {
        let inner = self.inner.lock().unwrap();
        match &*inner {
            StoreInner::Logical { events, .. } => Ok(events.len() as u64),
            StoreInner::Framed { media, .. } => {
                let anchor = match media.read_snap() {
                    None => 0,
                    Some(blob) => {
                        decode_snapshot_blob(&blob)
                            .map_err(|e| format!("snapshot: {e}"))?
                            .1
                    }
                };
                let bytes = media.read_wal();
                let replay = replay_log(&bytes, anchor);
                if let Some(msg) = replay.corrupt {
                    return Err(msg);
                }
                if replay.truncated_records > 0 {
                    return Err(format!(
                        "unexpected torn tail: {} incomplete record(s) on a live store",
                        replay.truncated_records
                    ));
                }
                Ok(replay.end_seq)
            }
        }
    }

    /// The raw snapshot blob and log bytes of a framed store (`None` for
    /// the logical backend, which holds no bytes): what a byte-format pin
    /// hashes.
    #[cfg(test)]
    pub(crate) fn media_bytes(&self) -> Option<(Option<Vec<u8>>, Vec<u8>)> {
        let inner = self.inner.lock().unwrap();
        match &*inner {
            StoreInner::Logical { .. } => None,
            StoreInner::Framed { media, .. } => Some((media.read_snap(), media.read_wal())),
        }
    }

    /// Cumulative counters (monotone for the lifetime of this store
    /// handle, across kill/restart of the owning replica).
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock().unwrap();
        match &*inner {
            StoreInner::Logical { stats, .. } | StoreInner::Framed { stats, .. } => *stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time loop `crc32` replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = crc_table();
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let bytes: Vec<u8> = (0..(1 << 20) + 7)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Every length around the 8-byte step, from every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let mb = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(mb), crc32_bytewise(mb));
    }

    #[test]
    fn framed_append_and_load_round_trip() {
        let store = ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(0));
        let evs = vec![
            WalEvent::Promise {
                ballot: Ballot {
                    n: 1,
                    id: ReplicaId(0),
                },
            },
            WalEvent::Commit {
                slot: 1,
                cmd: LogCommand::Noop,
            },
        ];
        for ev in &evs {
            store.append(ev);
        }
        let load = store.load();
        assert_eq!(load.events, evs);
        assert_eq!(load.truncated_records, 0);
        assert!(!load.refused);
        assert_eq!(store.verify_chain().unwrap(), 2);
        assert_eq!(store.stats().tail_decree, 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_repaired() {
        let store = ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(0));
        store.append(&WalEvent::Commit {
            slot: 1,
            cmd: LogCommand::Noop,
        });
        store.inject(&WalCorruption::TornTail { bytes: 11 });
        assert!(
            store.verify_chain().is_err(),
            "torn tail visible pre-repair"
        );
        let load = store.load();
        assert_eq!(load.events.len(), 1);
        assert_eq!(load.truncated_records, 1);
        assert!(!load.refused);
        // The medium was repaired in place.
        assert_eq!(store.verify_chain().unwrap(), 1);
    }

    #[test]
    fn mid_log_bit_flip_is_refused() {
        let store = ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(0));
        for slot in 1..=3 {
            store.append(&WalEvent::Commit {
                slot,
                cmd: LogCommand::Noop,
            });
        }
        store.inject(&WalCorruption::BitFlip);
        assert!(store.verify_chain().is_err());
        let load = store.load();
        assert!(load.refused, "acknowledged-state damage must be refused");
        assert!(load.events.is_empty());
        assert_eq!(store.stats().refusals, 1);
    }

    #[test]
    fn group_commit_lands_many_appends_with_one_fsync() {
        let store = ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(0));
        store.append(&WalEvent::Commit {
            slot: 1,
            cmd: LogCommand::Noop,
        });
        let before = store.stats();
        store.begin_group();
        for slot in 2..=9 {
            store.append(&WalEvent::Commit {
                slot,
                cmd: LogCommand::Noop,
            });
        }
        assert_eq!(
            store.stats().fsyncs,
            before.fsyncs,
            "appends inside an open group must not touch the medium"
        );
        store.end_group();
        let after = store.stats();
        assert_eq!(after.appends, before.appends + 8);
        assert_eq!(after.fsyncs, before.fsyncs + 1, "one flush per group");
        // The grouped records chain onto the pre-group tail and replay
        // exactly like per-append writes.
        assert_eq!(store.verify_chain().unwrap(), 9);
        let load = store.load();
        assert_eq!(load.events.len(), 9);
        assert!(!load.refused);
        assert_eq!(store.stats().tail_decree, 9);
    }

    #[test]
    fn empty_and_nested_groups_do_not_flush() {
        let store = ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(0));
        let before = store.stats().fsyncs;
        store.begin_group();
        store.end_group();
        assert_eq!(store.stats().fsyncs, before, "empty group is free");
        store.begin_group();
        store.begin_group();
        store.append(&WalEvent::Commit {
            slot: 1,
            cmd: LogCommand::Noop,
        });
        store.end_group();
        assert_eq!(
            store.stats().fsyncs,
            before,
            "inner close must not flush while the outer group is open"
        );
        store.end_group();
        assert_eq!(store.stats().fsyncs, before + 1);
        assert_eq!(store.verify_chain().unwrap(), 1);
    }

    #[test]
    fn logical_store_ignores_injection() {
        let store = ReplicaStore::new(&DurabilityMode::Memory, ReplicaId(0));
        store.append(&WalEvent::Commit {
            slot: 1,
            cmd: LogCommand::Noop,
        });
        store.inject(&WalCorruption::BitFlip);
        let load = store.load();
        assert_eq!(load.events.len(), 1);
        assert!(!load.refused);
    }
}
