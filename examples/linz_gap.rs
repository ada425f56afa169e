// probe: read completes at t=2 returning digest 7; the ONLY write of 7 is invoked at t=10.
// No linearization exists (read precedes the write in real time), so this must be a violation.
use ftc_analysis::linz::{check_history, OpKind, OpRecord};
use ftc_hashring::NodeId;
use std::time::Duration;
fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}
fn main() {
    let ops = vec![
        OpRecord {
            actor: NodeId(100),
            kind: OpKind::Read,
            key: "a".into(),
            epoch: 0,
            invoke: ms(1),
            ret: ms(2),
            digest: 7,
            handoff: false,
        },
        OpRecord {
            actor: NodeId(9),
            kind: OpKind::Write,
            key: "a".into(),
            epoch: 0,
            invoke: ms(10),
            ret: ms(10),
            digest: 7,
            handoff: false,
        },
    ];
    let r = check_history(&ops);
    println!(
        "passed={} violations={:?} inconclusive={}",
        r.passed(),
        r.violations,
        r.inconclusive
    );
}
