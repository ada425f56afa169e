//! Figure 6(a) — in-depth analysis of per-epoch time in the event of a
//! failure, 64–1024 nodes.
//!
//! `cargo run -p ftc-bench --release --bin fig6a [--scale 16] [--seed 7]`

use ftc_bench::{fmt_mmss, Cli};
use ftc_sim::{fig6a, SimCalibration, SimWorkload, PAPER_NODE_COUNTS};

fn main() {
    let cli = Cli::parse("fig6a [--scale 16] [--seed 7]", &["scale", "seed"], &[]);
    let scale: u32 = cli.get("scale", 16);
    let seed: u64 = cli.get("seed", 7);
    let workload = SimWorkload::cosmoflow(scale);
    let cal = SimCalibration::frontier();

    ftc_bench::header(&format!(
        "Fig 6(a) — per-epoch time in the event of a failure ({} samples, {} epochs)",
        workload.samples, workload.epochs
    ));
    println!(
        "{:>6} {:>14} {:>18} {:>18}",
        "nodes", "no failure", "PFS redirection", "NVMe recaching"
    );
    for row in fig6a(&PAPER_NODE_COUNTS, workload, &cal, seed) {
        println!(
            "{:>6} {:>14} {:>18} {:>18}",
            row.nodes,
            fmt_mmss(row.no_failure_epoch_s),
            fmt_mmss(row.pfs_redirect_epoch_s),
            fmt_mmss(row.nvme_recache_epoch_s),
        );
    }
    println!(
        "[paper: no-failure shortest; PFS redirection much longer, especially at 64-128\n nodes; NVMe recaching approaches the no-failure time as the node count grows]"
    );
}
