//! Linearizability checking for recorded cache histories.
//!
//! Input: the per-op history the transport records when
//! `Network::enable_history` is on (see `ftc_net::history`) — every
//! completed client read as an `[invoke, ret]` interval with value
//! digest, serving node and ring-epoch attribution; every server-side
//! value landing (replica write / recache push) and dataset staging as
//! a write; every client ring-epoch bump as a point event.
//!
//! Two specifications are checked:
//!
//! 1. **Register linearizability per key** (Wing–Gong / Porcupine
//!    style). Keys are independent registers, so the history partitions
//!    per key and each partition is searched separately: does a total
//!    order exist, consistent with real-time precedence (`a.ret <
//!    b.invoke` ⇒ a before b), in which every read returns the latest
//!    preceding write's digest? The search is the classic frontier
//!    recursion with memoization on (remaining-set, register value) and
//!    a per-key step budget; budget exhaustion is reported as
//!    *inconclusive*, never silently dropped.
//! 2. **Epoch freshness per client**: a read a client *invokes after*
//!    its own ring-epoch bump to `e` has completed must be attributed
//!    to epoch ≥ `e`. (The client stamps the invoke before taking the
//!    placement lock, so a completed bump is fully ordered before the
//!    epoch capture — the rule admits no false positives from in-flight
//!    bumps.) Reads served through the failover path are flagged
//!    `handoff` by the client and exempted — the documented
//!    hinted-handoff exception: a successor may serve a key while the
//!    membership change that re-homed it is still propagating.
//!
//! [`forge_stale_linz_read`] and [`forge_corrupt_read_value`] fabricate
//! one violation of each rule into a clean history — the self-tests
//! behind `chaos --self-test linz-forgery`.

use ftc_net::{OpKind, OpRecord};
use std::collections::{BTreeMap, HashMap};

/// One specification breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinzViolation {
    /// A non-handoff read was attributed to an epoch older than one its
    /// own client had already finished bumping to before the invoke.
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
    /// No linearization of the key's reads/writes exists: some read
    /// returned a value no latest-preceding-write could explain.
    ValueNotLinearizable {
        /// The key whose partition has no valid linearization.
        key: String,
        /// Ops in the partition (for the report).
        ops: usize,
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
            LinzViolation::ValueNotLinearizable { key, ops } => write!(
                f,
                "value not linearizable: no legal linearization of the {ops} op(s) on {key}"
            ),
        }
    }
}

/// Checker output.
#[derive(Debug)]
pub struct LinzReport {
    /// Total ops checked.
    pub ops: usize,
    /// Distinct keys partitioned.
    pub keys: usize,
    /// Completed reads.
    pub reads: usize,
    /// Writes (including seeds).
    pub writes: usize,
    /// Epoch bumps.
    pub bumps: usize,
    /// Reads exempted by the handoff exception.
    pub handoff_exempt: usize,
    /// Key partitions whose search ran out of budget (not violations,
    /// but not proofs either).
    pub inconclusive: usize,
    /// Everything that failed.
    pub violations: Vec<LinzViolation>,
}

impl LinzReport {
    /// True when no violation was found (inconclusive partitions do not
    /// fail the check, but they are visible in the report).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for LinzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "linz: {} op(s) over {} key(s) ({} read / {} write / {} bump, {} handoff-exempt), \
             {} inconclusive, {} violation(s)",
            self.ops,
            self.keys,
            self.reads,
            self.writes,
            self.bumps,
            self.handoff_exempt,
            self.inconclusive,
            self.violations.len()
        )
    }
}

/// Search-step budget per key partition; hit ⇒ the partition is counted
/// inconclusive. Generous: the fast path resolves uniform-value
/// partitions without search, so only genuinely ambiguous histories
/// spend budget.
const SEARCH_BUDGET: usize = 200_000;

/// Check a recorded history against both specifications.
pub fn check_history(ops: &[OpRecord]) -> LinzReport {
    let mut report = LinzReport {
        ops: ops.len(),
        keys: 0,
        reads: 0,
        writes: 0,
        bumps: 0,
        handoff_exempt: 0,
        inconclusive: 0,
        violations: Vec::new(),
    };

    // ---- Rule 2: per-client epoch freshness -------------------------
    // Bumps per actor, sorted by completion time.
    let mut bumps_by_actor: HashMap<u32, Vec<(std::time::Duration, u64)>> = HashMap::new();
    for op in ops {
        if op.kind == OpKind::EpochBump {
            report.bumps += 1;
            bumps_by_actor
                .entry(op.actor.0)
                .or_default()
                .push((op.ret, op.epoch));
        }
    }
    for v in bumps_by_actor.values_mut() {
        v.sort_unstable();
    }
    for op in ops {
        if op.kind != OpKind::Read {
            continue;
        }
        report.reads += 1;
        if op.handoff {
            report.handoff_exempt += 1;
            continue;
        }
        let Some(bumps) = bumps_by_actor.get(&op.actor.0) else {
            continue;
        };
        // Highest epoch this client had fully bumped to before the read
        // was invoked. Strictly before: execution takes zero virtual
        // time, so a bump and a read stamped at the *same* instant are
        // concurrent (either execution order is possible) and impose no
        // freshness obligation.
        let reached = bumps
            .iter()
            .take_while(|&&(ret, _)| ret < op.invoke)
            .map(|&(_, e)| e)
            .max();
        if let Some(reached) = reached {
            if op.epoch < reached {
                report.violations.push(LinzViolation::StaleEpochRead {
                    actor: op.actor.0,
                    key: op.key.clone(),
                    read_epoch: op.epoch,
                    bumped_epoch: reached,
                });
            }
        }
    }

    // ---- Rule 1: per-key register linearizability -------------------
    let mut by_key: BTreeMap<&str, Vec<&OpRecord>> = BTreeMap::new();
    for op in ops {
        match op.kind {
            OpKind::Read => {
                by_key.entry(op.key.as_str()).or_default().push(op);
            }
            OpKind::Write => {
                report.writes += 1;
                by_key.entry(op.key.as_str()).or_default().push(op);
            }
            OpKind::EpochBump => {}
        }
    }
    report.keys = by_key.len();
    for (key, part) in &by_key {
        match check_register(part) {
            RegisterVerdict::Linearizable => {}
            RegisterVerdict::Violation => {
                report.violations.push(LinzViolation::ValueNotLinearizable {
                    key: (*key).to_owned(),
                    ops: part.len(),
                });
            }
            RegisterVerdict::Inconclusive => report.inconclusive += 1,
        }
    }
    report
}

enum RegisterVerdict {
    Linearizable,
    Violation,
    Inconclusive,
}

/// Decide one key partition. Fast path: when every write agrees on one
/// digest, a read is legal iff it returns that digest (any
/// interleaving works) — the overwhelmingly common case for a
/// content-addressed cache. Otherwise run the Wing–Gong search.
fn check_register(part: &[&OpRecord]) -> RegisterVerdict {
    let mut write_digests: Vec<u64> = part
        .iter()
        .filter(|o| o.kind == OpKind::Write)
        .map(|o| o.digest)
        .collect();
    write_digests.sort_unstable();
    write_digests.dedup();
    if write_digests.len() <= 1 {
        let legal = |r: &&&OpRecord| write_digests.first().is_some_and(|&d| d == r.digest);
        let all_match = part
            .iter()
            .filter(|o| o.kind == OpKind::Read)
            .all(|r| legal(&r));
        return if all_match {
            RegisterVerdict::Linearizable
        } else if write_digests.is_empty() {
            // Reads of a key nothing ever wrote: nothing to compare
            // against (the harness normally seeds staged values, so
            // this means history was enabled mid-run).
            RegisterVerdict::Inconclusive
        } else {
            RegisterVerdict::Violation
        };
    }
    // Multi-valued history: full search on intervals.
    let mut ops: Vec<&OpRecord> = part.to_vec();
    ops.sort_by_key(|o| (o.invoke, o.ret, o.id));
    let mut budget = SEARCH_BUDGET;
    let mut memo: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut remaining: Vec<bool> = vec![true; ops.len()];
    match search(&ops, &mut remaining, None, &mut budget, &mut memo) {
        Some(true) => RegisterVerdict::Linearizable,
        Some(false) => RegisterVerdict::Violation,
        None => RegisterVerdict::Inconclusive,
    }
}

/// Wing–Gong frontier recursion. `Some(true)` = a valid linearization
/// completes the remaining ops given the register holds `value`;
/// `None` = budget exhausted.
fn search(
    ops: &[&OpRecord],
    remaining: &mut Vec<bool>,
    value: Option<u64>,
    budget: &mut usize,
    memo: &mut std::collections::HashSet<u64>,
) -> Option<bool> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    if remaining.iter().all(|&r| !r) {
        return Some(true);
    }
    // Memoize on (remaining-set, value): revisiting the same frontier
    // with the same register contents cannot change the answer.
    let mut state_key: u64 = value.unwrap_or(u64::MAX).wrapping_mul(0x9e3779b97f4a7c15);
    for (i, &r) in remaining.iter().enumerate() {
        if r {
            state_key = state_key.wrapping_add(ftc_net::fnv1a(&(i as u64).to_le_bytes()));
        }
    }
    if !memo.insert(state_key) {
        return Some(false);
    }
    // An op may linearize next iff no other remaining op returned
    // before it was invoked.
    let min_ret = ops
        .iter()
        .enumerate()
        .filter(|&(i, _)| remaining[i])
        .map(|(_, o)| o.ret)
        .min()?;
    for i in 0..ops.len() {
        if !remaining[i] || ops[i].invoke > min_ret {
            continue;
        }
        let op = ops[i];
        let next_value = match op.kind {
            OpKind::Write => Some(op.digest),
            OpKind::Read => {
                if value != Some(op.digest) {
                    continue; // this read cannot go first here
                }
                value
            }
            OpKind::EpochBump => value,
        };
        remaining[i] = false;
        match search(ops, remaining, next_value, budget, memo) {
            Some(true) => {
                remaining[i] = true;
                return Some(true);
            }
            Some(false) => {}
            None => {
                remaining[i] = true;
                return None;
            }
        }
        remaining[i] = true;
    }
    Some(false)
}

/// Fabricate a stale-epoch read into a clean history: find a non-handoff
/// read invoked after its client finished an epoch bump, and re-attribute
/// it to an older epoch. Returns false when the history has no eligible
/// read (no bump ever completed before a read).
pub fn forge_stale_linz_read(ops: &mut [OpRecord]) -> bool {
    let mut bumps_by_actor: HashMap<u32, Vec<(std::time::Duration, u64)>> = HashMap::new();
    for op in ops.iter() {
        if op.kind == OpKind::EpochBump {
            bumps_by_actor
                .entry(op.actor.0)
                .or_default()
                .push((op.ret, op.epoch));
        }
    }
    for v in bumps_by_actor.values_mut() {
        v.sort_unstable();
    }
    for op in ops.iter_mut() {
        if op.kind != OpKind::Read || op.handoff {
            continue;
        }
        let Some(bumps) = bumps_by_actor.get(&op.actor.0) else {
            continue;
        };
        // Mirror the checker's strict-order rule: only a read invoked
        // strictly after a bump completed is forgeable.
        let reached = bumps
            .iter()
            .take_while(|&&(ret, _)| ret < op.invoke)
            .map(|&(_, e)| e)
            .max();
        if let Some(reached) = reached {
            if reached > 0 {
                op.epoch = reached - 1;
                return true;
            }
        }
    }
    false
}

/// Fabricate a wrong-value read: flip one read's digest so no write
/// explains it. Returns false on a history with no reads.
pub fn forge_corrupt_read_value(ops: &mut [OpRecord]) -> bool {
    for op in ops.iter_mut() {
        if op.kind == OpKind::Read {
            op.digest ^= 0xdead_beef_dead_beef;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_hashring::NodeId;
    use std::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn write(key: &str, at: u64, digest: u64) -> OpRecord {
        OpRecord {
            id: 0,
            actor: NodeId(9),
            kind: OpKind::Write,
            key: key.into(),
            node: NodeId(9),
            epoch: 0,
            invoke: ms(at),
            ret: ms(at),
            digest,
            handoff: false,
        }
    }

    fn read(key: &str, actor: u32, invoke: u64, ret: u64, epoch: u64, digest: u64) -> OpRecord {
        OpRecord {
            id: 0,
            actor: NodeId(actor),
            kind: OpKind::Read,
            key: key.into(),
            node: NodeId(1),
            epoch,
            invoke: ms(invoke),
            ret: ms(ret),
            digest,
            handoff: false,
        }
    }

    fn bump(actor: u32, at: u64, epoch: u64) -> OpRecord {
        OpRecord {
            id: 0,
            actor: NodeId(actor),
            kind: OpKind::EpochBump,
            key: String::new(),
            node: NodeId(0),
            epoch,
            invoke: ms(at),
            ret: ms(at),
            digest: 0,
            handoff: false,
        }
    }

    #[test]
    fn clean_single_value_history_passes() {
        let ops = vec![
            write("a", 0, 7),
            read("a", 100, 1, 2, 0, 7),
            read("a", 101, 3, 4, 0, 7),
            bump(100, 5, 1),
            read("a", 100, 6, 7, 1, 7),
        ];
        let r = check_history(&ops);
        assert!(r.passed(), "{r}: {:?}", r.violations);
        assert_eq!((r.reads, r.writes, r.bumps), (3, 1, 1));
    }

    #[test]
    fn stale_epoch_read_is_flagged_and_handoff_is_exempt() {
        let mut ops = vec![
            write("a", 0, 7),
            bump(100, 5, 3),
            read("a", 100, 6, 7, 2, 7), // invoked after the bump, older epoch
        ];
        let r = check_history(&ops);
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            &r.violations[0],
            LinzViolation::StaleEpochRead {
                actor: 100,
                read_epoch: 2,
                bumped_epoch: 3,
                ..
            }
        ));
        // The same read marked handoff is the documented exception.
        ops[2].handoff = true;
        let r = check_history(&ops);
        assert!(r.passed(), "{r}");
        assert_eq!(r.handoff_exempt, 1);
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
    fn wing_gong_accepts_overlapping_two_value_history() {
        // w(1) then w(2) concurrent with r→1 and a later r→2: legal.
        let ops = vec![
            write("a", 0, 1),
            OpRecord {
                invoke: ms(10),
                ret: ms(20),
                ..write("a", 0, 2)
            },
            read("a", 100, 11, 14, 0, 1), // overlaps w(2): may precede it
            read("a", 100, 30, 31, 0, 2),
        ];
        let r = check_history(&ops);
        assert!(r.passed(), "{r}: {:?}", r.violations);
    }

    #[test]
    fn wing_gong_rejects_value_from_the_past() {
        // w(1) completes, then w(2) completes, then a read returns 1:
        // real-time order forbids it.
        let ops = vec![
            write("a", 0, 1),
            write("a", 10, 2),
            read("a", 100, 20, 21, 0, 1),
        ];
        let r = check_history(&ops);
        assert_eq!(r.violations.len(), 1, "{r}");
        assert!(matches!(
            &r.violations[0],
            LinzViolation::ValueNotLinearizable { ops: 3, .. }
        ));
    }

    #[test]
    fn forges_break_clean_histories() {
        let mut ops = vec![
            write("a", 0, 7),
            bump(100, 5, 1),
            read("a", 100, 6, 8, 1, 7),
        ];
        assert!(check_history(&ops).passed());
        assert!(forge_stale_linz_read(&mut ops));
        assert!(!check_history(&ops).passed());

        let mut ops = vec![write("a", 0, 7), read("a", 100, 1, 2, 0, 7)];
        assert!(check_history(&ops).passed());
        assert!(forge_corrupt_read_value(&mut ops));
        let r = check_history(&ops);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn read_of_unwritten_key_is_inconclusive_not_violating() {
        let ops = vec![read("ghost", 100, 1, 2, 0, 5)];
        let r = check_history(&ops);
        assert!(r.passed());
        assert_eq!(r.inconclusive, 1);
    }
}
