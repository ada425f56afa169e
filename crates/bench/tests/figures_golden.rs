//! The deterministic figure bins, checked against the outputs the repo
//! publishes: `table2`, `fig4` and `ablation_cascade` must print exactly
//! the bytes of `results/<bin>.txt`. A change that should not move a
//! figure proves it here; one that does re-blesses the file, and the
//! diff shows what moved.
//!
//! On a mismatch the actual output is written under the cargo target
//! directory and the failure message prints the `cp` that re-blesses it.
//! The three runs take well under a second in release:
//! `cargo test -p ftc-bench --test figures_golden`.

use std::path::Path;
use std::process::Command;

/// `(bin name, path of the bin)`: each prints `results/<name>.txt`.
const BINS: [(&str, &str); 3] = [
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("ablation_cascade", env!("CARGO_BIN_EXE_ablation_cascade")),
];

#[test]
fn deterministic_figures_match_the_published_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let results = root.expect("the workspace root").join("results");
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-golden");
    std::fs::create_dir_all(&actual_dir).expect("create the actual-output directory");
    let mut mismatches = Vec::new();
    for (name, bin) in BINS {
        let out = Command::new(bin).output().expect("figure bin runs");
        assert!(
            out.status.success(),
            "{name} exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = results.join(format!("{name}.txt"));
        let want = std::fs::read(&golden).unwrap_or_default();
        if out.stdout != want {
            let actual = actual_dir.join(format!("{name}.txt"));
            std::fs::write(&actual, &out.stdout).expect("write the actual output");
            mismatches.push(format!(
                "{name} differs from its published result; to re-bless:\n  cp {} {}",
                actual.display(),
                golden.display()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
