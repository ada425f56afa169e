//! The deterministic `chaos` outputs, checked in: every virtual-clock
//! scenario row and every explored-schedule summary below must print
//! exactly the bytes under `tests/golden/chaos/`. A refactor that should
//! not change behaviour proves it here; one that does re-blesses the
//! files it changes, and the diff shows what moved.
//!
//! On a mismatch the actual output is written under the cargo target
//! directory and the failure message prints the `cp` that re-blesses it.
//! All 40 runs take a few seconds: `cargo test -p ftc-bench --test
//! chaos_golden`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(golden file stem, chaos arguments)`.
type Case = (String, Vec<String>);

fn case(stem: String, args: &str) -> Case {
    (stem, args.split_whitespace().map(str::to_owned).collect())
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos")
}

/// Run every case and diff it against its golden file; panic listing
/// every mismatch with the command that re-blesses it.
fn check(cases: Vec<Case>) {
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-golden");
    std::fs::create_dir_all(&actual_dir).expect("create the actual-output directory");
    let mut mismatches = Vec::new();
    for (stem, args) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
            .args(args)
            .output()
            .expect("chaos runs");
        assert!(
            out.status.success(),
            "chaos {} exited {:?}:\n{}",
            args.join(" "),
            out.status.code(),
            String::from_utf8_lossy(&out.stdout)
        );
        let golden = golden_dir().join(format!("{stem}.txt"));
        let want = std::fs::read(&golden).unwrap_or_default();
        if out.stdout != want {
            let actual = actual_dir.join(format!("{stem}.txt"));
            std::fs::write(&actual, &out.stdout).expect("write the actual output");
            mismatches.push(format!(
                "chaos {} differs from its golden; to re-bless:\n  cp {} {}",
                args.join(" "),
                actual.display(),
                golden.display()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn scale_sweep_matches_its_goldens() {
    check(
        [32, 128, 256]
            .iter()
            .map(|n| {
                let args = format!("--scenario scale-sweep --seed 42 --nodes {n}");
                case(format!("scale-sweep-nodes{n}"), &args)
            })
            .collect(),
    );
}

#[test]
fn scenario_rows_match_their_goldens() {
    let mut cases = Vec::new();
    for row in ["shifting-intensity", "cascading-overload"] {
        for seed in 1..=12 {
            let args = format!("--scenario {row} --seed {seed}");
            cases.push(case(format!("{row}-seed{seed}"), &args));
        }
    }
    check(cases);
}

#[test]
fn explored_schedules_match_their_goldens() {
    let mut cases = Vec::new();
    for seed in 1..=4 {
        for (strategy, extra) in [
            ("random", ""),
            ("pct", ""),
            ("dfs", " --schedules 30 --depth 8"),
        ] {
            let args = format!("--explore --explore-strategy {strategy}{extra} --seed {seed}");
            cases.push(case(format!("explore-{strategy}-seed{seed}"), &args));
        }
    }
    check(cases);
}

#[test]
fn linearizability_sweep_matches_its_golden() {
    check(vec![case(
        "check-linz-seed1".into(),
        "--check-linz --campaigns 50 --seed 1",
    )]);
}
