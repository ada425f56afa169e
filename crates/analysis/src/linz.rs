//! Write-once checking for recorded cache histories.
//!
//! Input: the fabric's vector-clock trace (`Network::enable_tracing`,
//! see `ftc_net::trace`), read through [`ops`] as a per-op history —
//! every completed client read (`ReadServed`) as an `[invoke, ret]`
//! interval with value digest, serving node, ring-epoch attribution and
//! where it was served from; every server-side `Put` (replica write /
//! recache push) and the dataset staging as a write; every client
//! ring-epoch bump (`RingUpdate`) as a point event.
//!
//! The cache holds an immutable dataset: every stored value is a copy of
//! the file on the PFS. Two specifications are checked:
//!
//! 1. **Write-once values per key.** All writes of a key carry one
//!    digest; a second distinct digest is a violation even if no read
//!    ever served it (a corrupt recache push). Every read returns that
//!    digest, and returns no earlier than the key's earliest write was
//!    invoked; a read of a key nothing wrote is a violation. For a
//!    write-once register this is exactly linearizability, checked in one
//!    pass with no search.
//! 2. **Epoch freshness per client**: a read a client *invokes after*
//!    its own ring-epoch bump to `e` has completed must be attributed
//!    to epoch ≥ `e`. (The client stamps the invoke before taking the
//!    placement lock, so a completed bump is fully ordered before the
//!    epoch capture — the rule admits no false positives from in-flight
//!    bumps.) Reads served by a successor are exempt — the documented
//!    hinted-handoff exception: a successor may serve a key while the
//!    membership change that re-homed it is still propagating. Owner
//!    and PFS reads are both checked.
//!
//! [`forge_stale_linz_read`], [`forge_read_before_write`] and
//! [`forge_corrupt_read_value`] fabricate one violation each into a
//! clean history — the `chaos --self-test` rows behind the checker.

use ftc_hashring::NodeId;
use ftc_net::{ServedFrom, TraceEventKind, TraceRecord};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// What kind of operation an [`OpRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A client read that completed with data, and where it was served
    /// from.
    Read(ServedFrom),
    /// A value landing on a node (replica write, recache push) or the
    /// t=0 dataset staging.
    Write,
    /// A client advanced its ring-epoch view. Carries no key or value;
    /// `epoch` is the *new* epoch.
    EpochBump,
}

/// One completed operation: the checker's view of one trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Who performed the op (the client for reads and epoch bumps, the
    /// storing node for writes).
    pub actor: NodeId,
    /// Operation kind.
    pub kind: OpKind,
    /// The file path / placement key; empty for [`OpKind::EpochBump`].
    pub key: String,
    /// Ring epoch: the client's placement-view epoch for reads, the new
    /// epoch for bumps, 0 for writes (servers don't see the ring).
    pub epoch: u64,
    /// Invocation time, as an offset from the tracer's creation.
    pub invoke: Duration,
    /// Response time (≥ `invoke`); equal to `invoke` for ops whose
    /// linearization point is their serve instant (writes, bumps).
    pub ret: Duration,
    /// FNV-1a digest of the value bytes; 0 for epoch bumps.
    pub digest: u64,
}

impl OpRecord {
    /// A read the epoch rule checks: every read but a successor serve.
    fn epoch_checked(&self) -> bool {
        matches!(self.kind, OpKind::Read(from) if from != ServedFrom::Successor)
    }
}

/// The per-op history in a trace: a read per `ReadServed`, a write per
/// `CacheInsert` that carries a digest (a `Put`, or the staging seed the
/// chaos driver records), an epoch bump per `RingUpdate`. Message legs,
/// detector events, evictions and the insert that persists a PFS fetch
/// are no ops.
pub fn ops(log: &[TraceRecord]) -> Vec<OpRecord> {
    let op = |r: &TraceRecord| {
        // Writes and bumps are point events at their record time.
        let point = |kind, key: &str, epoch, digest| OpRecord {
            actor: r.actor,
            kind,
            key: key.to_owned(),
            epoch,
            invoke: r.at,
            ret: r.at,
            digest,
        };
        Some(match &r.kind {
            TraceEventKind::ReadServed {
                key,
                epoch,
                invoke,
                digest,
                served,
                ..
            } => OpRecord {
                actor: r.actor,
                kind: OpKind::Read(*served),
                key: key.clone(),
                epoch: *epoch,
                invoke: *invoke,
                ret: r.at,
                digest: *digest,
            },
            TraceEventKind::CacheInsert {
                key,
                digest: Some(digest),
            } => point(OpKind::Write, key, 0, *digest),
            TraceEventKind::RingUpdate { new_epoch, .. } => {
                point(OpKind::EpochBump, "", *new_epoch, 0)
            }
            _ => return None,
        })
    };
    log.iter().filter_map(op).collect()
}

/// One specification breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinzViolation {
    /// An epoch-checked read was attributed to an epoch older than one
    /// its own client had already finished bumping to before the invoke.
    StaleEpochRead {
        /// The reading client.
        actor: u32,
        /// The key read.
        key: String,
        /// Epoch the read was attributed to.
        read_epoch: u64,
        /// The newer epoch the client had already reached.
        bumped_epoch: u64,
    },
    /// A write stored a second value for a key already written.
    SecondValue {
        /// The key.
        key: String,
        /// The node that stored it.
        actor: u32,
        /// Digest of the key's earliest write.
        first: u64,
        /// The differing digest.
        second: u64,
    },
    /// A read returned a value the key was never written with (`None`:
    /// the key was never written at all).
    WrongValue {
        /// The reading client.
        actor: u32,
        /// The key read.
        key: String,
        /// Digest the read returned.
        read: u64,
        /// Digest of the key's earliest write.
        written: Option<u64>,
    },
    /// A read returned before the key's earliest write was invoked.
    ReadBeforeWrite {
        /// The reading client.
        actor: u32,
        /// The key read.
        key: String,
        /// When the read returned.
        ret: Duration,
        /// When the earliest write was invoked.
        written: Duration,
    },
}

impl std::fmt::Display for LinzViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinzViolation::StaleEpochRead {
                actor,
                key,
                read_epoch,
                bumped_epoch,
            } => write!(
                f,
                "stale-epoch read: client {actor} read {key} under epoch {read_epoch} after \
                 completing its bump to epoch {bumped_epoch}"
            ),
            LinzViolation::SecondValue {
                key,
                actor,
                first,
                second,
            } => write!(
                f,
                "second value: n{actor} stored {second:#x} for {key}, first written as {first:#x}"
            ),
            LinzViolation::WrongValue {
                actor,
                key,
                read,
                written,
            } => {
                let written = written.map_or("never written".into(), |w| format!("{w:#x}"));
                let at = format!("client {actor} read {read:#x} from {key}");
                write!(f, "wrong value: {at}, written as {written}")
            }
            LinzViolation::ReadBeforeWrite {
                actor,
                key,
                ret,
                written,
            } => write!(
                f,
                "read before write: client {actor} read {key} by {ret:?}, before its first \
                 write at {written:?}"
            ),
        }
    }
}

/// Checker output.
#[derive(Debug, Default)]
pub struct LinzReport {
    /// Total ops checked.
    pub ops: usize,
    /// Distinct keys read or written.
    pub keys: usize,
    /// Completed reads.
    pub reads: usize,
    /// Writes (including seeds).
    pub writes: usize,
    /// Epoch bumps.
    pub bumps: usize,
    /// Reads a successor served: the ones the epoch rule exempts.
    pub successor_served: usize,
    /// Reads served from the PFS.
    pub pfs_served: usize,
    /// Everything that failed.
    pub violations: Vec<LinzViolation>,
}

impl LinzReport {
    /// True when no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for LinzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "linz: {} op(s) over {} key(s) ({} read / {} write / {} bump; {} successor-served, \
             {} pfs-served), {} violation(s)",
            self.ops,
            self.keys,
            self.reads,
            self.writes,
            self.bumps,
            self.successor_served,
            self.pfs_served,
            self.violations.len()
        )
    }
}

/// Each actor's epoch bumps as (completion time, new epoch), sorted.
fn bumps_by_actor(ops: &[OpRecord]) -> HashMap<u32, Vec<(Duration, u64)>> {
    let mut bumps: HashMap<u32, Vec<(Duration, u64)>> = HashMap::new();
    for op in ops.iter().filter(|o| o.kind == OpKind::EpochBump) {
        bumps
            .entry(op.actor.0)
            .or_default()
            .push((op.ret, op.epoch));
    }
    for v in bumps.values_mut() {
        v.sort_unstable();
    }
    bumps
}

/// The highest epoch `read`'s client had fully bumped to before the read
/// was invoked. Strictly before: execution takes zero virtual time, so a
/// bump and a read stamped at the *same* instant are concurrent (either
/// execution order is possible) and impose no freshness obligation.
fn reached(bumps: &HashMap<u32, Vec<(Duration, u64)>>, read: &OpRecord) -> Option<u64> {
    let done = bumps.get(&read.actor.0)?.iter();
    let done = done.take_while(|&&(ret, _)| ret < read.invoke);
    done.map(|&(_, e)| e).max()
}

/// Check a recorded history against both specifications.
pub fn check_history(ops: &[OpRecord]) -> LinzReport {
    let mut report = LinzReport {
        ops: ops.len(),
        ..LinzReport::default()
    };
    let mut by_key: BTreeMap<&str, (Vec<&OpRecord>, Vec<&OpRecord>)> = BTreeMap::new();
    for op in ops {
        let part = match op.kind {
            OpKind::Read(from) => {
                report.reads += 1;
                report.successor_served += usize::from(from == ServedFrom::Successor);
                report.pfs_served += usize::from(from == ServedFrom::Pfs);
                &mut by_key.entry(op.key.as_str()).or_default().1
            }
            OpKind::Write => {
                report.writes += 1;
                &mut by_key.entry(op.key.as_str()).or_default().0
            }
            OpKind::EpochBump => {
                report.bumps += 1;
                continue;
            }
        };
        part.push(op);
    }
    report.keys = by_key.len();

    // ---- Rule 1: per-client epoch freshness -------------------------
    let bumps = bumps_by_actor(ops);
    for op in ops.iter().filter(|o| o.epoch_checked()) {
        match reached(&bumps, op) {
            Some(reached) if op.epoch < reached => {
                report.violations.push(LinzViolation::StaleEpochRead {
                    actor: op.actor.0,
                    key: op.key.clone(),
                    read_epoch: op.epoch,
                    bumped_epoch: reached,
                });
            }
            _ => {}
        }
    }

    // ---- Rule 2: write-once values per key --------------------------
    for (key, (writes, reads)) in &by_key {
        let key = || (*key).to_owned();
        let wrong = |r: &OpRecord, written| LinzViolation::WrongValue {
            actor: r.actor.0,
            key: key(),
            read: r.digest,
            written,
        };
        let Some(first) = writes.iter().min_by_key(|w| w.invoke) else {
            report
                .violations
                .extend(reads.iter().map(|r| wrong(r, None)));
            continue;
        };
        for w in writes.iter().filter(|w| w.digest != first.digest) {
            report.violations.push(LinzViolation::SecondValue {
                key: key(),
                actor: w.actor.0,
                first: first.digest,
                second: w.digest,
            });
        }
        for r in reads {
            if r.digest != first.digest {
                report.violations.push(wrong(r, Some(first.digest)));
            } else if r.ret < first.invoke {
                report.violations.push(LinzViolation::ReadBeforeWrite {
                    actor: r.actor.0,
                    key: key(),
                    ret: r.ret,
                    written: first.invoke,
                });
            }
        }
    }
    report
}

/// A forger: plants one violation into a clean history; false when the
/// history holds nothing to forge.
pub type Forger = fn(&mut [OpRecord]) -> bool;

/// Fabricate a stale-epoch read into a clean history: find an
/// epoch-checked read invoked after its client finished an epoch bump,
/// and re-attribute it to an older epoch. Returns false when the history
/// has no eligible read (no bump ever completed before a read).
pub fn forge_stale_linz_read(ops: &mut [OpRecord]) -> bool {
    let bumps = bumps_by_actor(ops);
    for op in ops.iter_mut().filter(|o| o.epoch_checked()) {
        if let Some(reached) = reached(&bumps, op).filter(|&e| e > 0) {
            op.epoch = reached - 1;
            return true;
        }
    }
    false
}

/// Fabricate a read that returned before its value existed: the first
/// read keeps its interval while every other op moves later by just over
/// that read's return time, which puts the read before the first write
/// of its value. (Moving the whole history but one read is the same
/// forgery as moving that read earlier, and needs no time before zero
/// when the dataset is staged at t=0.) Returns false on a history with
/// no reads.
pub fn forge_read_before_write(ops: &mut [OpRecord]) -> bool {
    let Some(i) = ops.iter().position(|o| matches!(o.kind, OpKind::Read(_))) else {
        return false;
    };
    let shift = ops[i].ret + Duration::from_nanos(1);
    for op in ops.iter_mut() {
        op.invoke += shift;
        op.ret += shift;
    }
    ops[i].invoke -= shift;
    ops[i].ret -= shift;
    true
}

/// Fabricate a wrong-value read: flip one read's digest so no write
/// explains it. Returns false on a history with no reads.
pub fn forge_corrupt_read_value(ops: &mut [OpRecord]) -> bool {
    for op in ops.iter_mut() {
        if matches!(op.kind, OpKind::Read(_)) {
            op.digest ^= 0xdead_beef_dead_beef;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn write(key: &str, at: u64, digest: u64) -> OpRecord {
        OpRecord {
            actor: NodeId(9),
            kind: OpKind::Write,
            key: key.into(),
            epoch: 0,
            invoke: ms(at),
            ret: ms(at),
            digest,
        }
    }

    fn read(key: &str, actor: u32, invoke: u64, ret: u64, epoch: u64, digest: u64) -> OpRecord {
        OpRecord {
            actor: NodeId(actor),
            kind: OpKind::Read(ServedFrom::Owner),
            key: key.into(),
            epoch,
            invoke: ms(invoke),
            ret: ms(ret),
            digest,
        }
    }

    fn bump(actor: u32, at: u64, epoch: u64) -> OpRecord {
        OpRecord {
            actor: NodeId(actor),
            kind: OpKind::EpochBump,
            key: String::new(),
            epoch,
            invoke: ms(at),
            ret: ms(at),
            digest: 0,
        }
    }

    #[test]
    fn ops_read_puts_reads_and_ring_updates_out_of_a_trace() {
        let t = ftc_net::Tracer::new(ftc_time::ClockHandle::wall());
        let insert = |node, digest| {
            let key = "a".to_owned();
            t.record(NodeId(node), TraceEventKind::CacheInsert { key, digest });
        };
        insert(u32::MAX, Some(7)); // the staging seed
        insert(1, None); // a persisted PFS fetch: no write
        t.record(NodeId(2), TraceEventKind::Declare { node: NodeId(1) });
        let update = TraceEventKind::RingUpdate {
            node: NodeId(1),
            old_epoch: 0,
            new_epoch: 1,
            joined: false,
        };
        t.record(NodeId(100), update);
        let read = TraceEventKind::ReadServed {
            key: "a".into(),
            owner: NodeId(2),
            epoch: 1,
            invoke: t.now(),
            digest: 7,
            served: ServedFrom::Successor,
        };
        t.record(NodeId(100), read);
        insert(2, Some(7)); // a `Put`
        let log = t.take();
        let ops = ops(&log);
        let kinds: Vec<_> = ops.iter().map(|o| (o.actor.0, o.kind)).collect();
        assert_eq!(
            kinds,
            [
                (u32::MAX, OpKind::Write),
                (100, OpKind::EpochBump),
                (100, OpKind::Read(ServedFrom::Successor)),
                (2, OpKind::Write)
            ]
        );
        assert_eq!((ops[1].epoch, ops[1].ret), (1, log[3].at));
        assert!(ops[2].invoke <= ops[2].ret && ops[2].ret == log[4].at);
        assert_eq!(ops[2].digest, 7);
        assert_eq!((ops[3].key.as_str(), ops[3].digest), ("a", 7));
    }

    #[test]
    fn clean_single_value_history_passes() {
        let ops = vec![
            write("a", 0, 7),
            read("a", 100, 1, 2, 0, 7),
            read("a", 101, 3, 4, 0, 7),
            bump(100, 5, 1),
            read("a", 100, 6, 7, 1, 7),
            write("a", 8, 7), // a recache push of the same value
        ];
        let r = check_history(&ops);
        assert!(r.passed(), "{r}: {:?}", r.violations);
        assert_eq!((r.reads, r.writes, r.bumps, r.keys), (3, 2, 1, 1));
    }

    #[test]
    fn stale_epoch_read_is_flagged_and_only_successor_serves_are_exempt() {
        let mut ops = vec![
            write("a", 0, 7),
            bump(100, 5, 3),
            read("a", 100, 6, 7, 2, 7), // invoked after the bump, older epoch
        ];
        let stale = |ops: &[OpRecord]| {
            let r = check_history(ops);
            let flagged = matches!(
                &r.violations[..],
                [LinzViolation::StaleEpochRead {
                    actor: 100,
                    read_epoch: 2,
                    bumped_epoch: 3,
                    ..
                }]
            );
            (flagged, r.successor_served, r.pfs_served)
        };
        assert_eq!(stale(&ops), (true, 0, 0));
        ops[2].kind = OpKind::Read(ServedFrom::Pfs);
        assert_eq!(stale(&ops), (true, 0, 1), "a PFS read is epoch-checked");
        // A successor serve is the documented exception.
        ops[2].kind = OpKind::Read(ServedFrom::Successor);
        let r = check_history(&ops);
        assert!(r.passed(), "{r}");
        assert_eq!((r.successor_served, r.pfs_served), (1, 0));
    }

    #[test]
    fn overlapping_read_may_keep_the_old_epoch() {
        // Read invoked at t=4, bump completes at t=5: overlap is legal.
        let ops = vec![
            write("a", 0, 7),
            read("a", 100, 4, 6, 2, 7),
            bump(100, 5, 3),
        ];
        assert!(check_history(&ops).passed());
    }

    #[test]
    fn read_overlapping_the_first_write_passes() {
        // Invoked before the write, returned after it was invoked.
        let ops = vec![read("a", 100, 1, 10, 0, 7), write("a", 10, 7)];
        assert!(check_history(&ops).passed());
    }

    #[test]
    fn read_that_returned_before_its_value_was_written_is_flagged() {
        // The read completed at t=2 returning 7; the only write of 7 is
        // invoked at t=10. Real time orders the read first, when the key
        // held nothing.
        let ops = vec![read("a", 100, 1, 2, 0, 7), write("a", 10, 7)];
        let r = check_history(&ops);
        assert_eq!(
            r.violations,
            [LinzViolation::ReadBeforeWrite {
                actor: 100,
                key: "a".into(),
                ret: ms(2),
                written: ms(10),
            }]
        );
    }

    #[test]
    fn second_written_value_is_flagged_before_any_read_serves_it() {
        let ops = vec![
            write("a", 0, 1),
            read("a", 100, 1, 2, 0, 1),
            write("a", 10, 2), // a corrupt recache push
        ];
        let r = check_history(&ops);
        assert_eq!(
            r.violations,
            [LinzViolation::SecondValue {
                key: "a".into(),
                actor: 9,
                first: 1,
                second: 2,
            }]
        );
    }

    #[test]
    fn wrong_and_unwritten_values_are_flagged() {
        let ops = vec![
            write("a", 0, 1),
            read("a", 100, 1, 2, 0, 2),
            read("ghost", 100, 1, 2, 0, 5),
        ];
        let r = check_history(&ops);
        let values: Vec<_> = (r.violations.iter())
            .map(|v| match v {
                LinzViolation::WrongValue { key, written, .. } => (key.as_str(), *written),
                other => panic!("{other}"),
            })
            .collect();
        assert_eq!(values, [("a", Some(1)), ("ghost", None)]);
    }

    #[test]
    fn forges_break_clean_histories() {
        let clean = vec![
            write("a", 0, 7),
            bump(100, 5, 1),
            read("a", 100, 6, 8, 1, 7),
        ];
        assert!(check_history(&clean).passed());
        let forged = |forge: Forger| {
            let mut ops = clean.clone();
            assert!(forge(&mut ops));
            check_history(&ops).violations
        };
        assert!(matches!(
            forged(forge_stale_linz_read)[..],
            [LinzViolation::StaleEpochRead { .. }]
        ));
        assert!(matches!(
            forged(forge_read_before_write)[..],
            [LinzViolation::ReadBeforeWrite { .. }]
        ));
        assert!(matches!(
            forged(forge_corrupt_read_value)[..],
            [LinzViolation::WrongValue { .. }]
        ));
    }
}
