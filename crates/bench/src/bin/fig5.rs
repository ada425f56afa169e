//! Figure 5 — end-to-end CosmoFlow training time, 64–1024 nodes, with and
//! without failures, for NoFT / FT w/ PFS / FT w/ NVMe.
//!
//! `cargo run -p ftc-bench --release --bin fig5 [--scale 16] [--failures 5] [--seed 2024]`
//!
//! `--scale k` divides the cosmoUniverse sample count by `k` (size per
//! sample preserved). `--scale 1` is the paper's full 524,288-sample
//! dataset (slower; minutes of wall time).

use ftc_bench::{fmt_mmss, Cli};
use ftc_core::FtPolicy;
use ftc_sim::{fig5, SimCalibration, SimWorkload, PAPER_NODE_COUNTS};

fn main() {
    let cli = Cli::parse(
        "fig5 [--scale 16] [--failures 5] [--seed 2024]",
        &["scale", "failures", "seed"],
        &[],
    );
    let scale: u32 = cli.get("scale", 16);
    let failures: u32 = cli.get("failures", 5);
    let seed: u64 = cli.get("seed", 2024);
    let workload = SimWorkload::cosmoflow(scale);
    let cal = SimCalibration::frontier();

    ftc_bench::header(&format!(
        "Fig 5 — end-to-end training time ({} samples = cosmoUniverse/{}, {} epochs, {} failures)",
        workload.samples, scale, workload.epochs, failures
    ));
    let cells = fig5(&PAPER_NODE_COUNTS, workload, &cal, failures, seed);

    println!("\n(a) no failures — simulated seconds (mm:ss)");
    println!(
        "{:>6} {:>16} {:>16} {:>16}",
        "nodes", "NoFT", "FT w/ PFS", "FT w/ NVMe"
    );
    for &n in &PAPER_NODE_COUNTS {
        let get = |p: FtPolicy| {
            cells
                .iter()
                .find(|c| c.nodes == n && c.policy == p)
                .unwrap()
                .no_failure_s
        };
        println!(
            "{:>6} {:>16} {:>16} {:>16}",
            n,
            fmt_mmss(get(FtPolicy::NoFt)),
            fmt_mmss(get(FtPolicy::PfsRedirect)),
            fmt_mmss(get(FtPolicy::RingRecache)),
        );
    }
    println!("[paper: all three within 1-2 min; NoFT consistently best; time falls with nodes]");

    println!("\n(b) {failures} random single-node failures after epoch 1");
    println!(
        "{:>6} {:>14} {:>14} {:>9} {:>14} {:>9} {:>10}",
        "nodes", "no-fail (ref)", "FT w/ PFS", "+%", "FT w/ NVMe", "+%", "NVMe win"
    );
    for &n in &PAPER_NODE_COUNTS {
        let get = |p: FtPolicy| {
            cells
                .iter()
                .find(|c| c.nodes == n && c.policy == p)
                .unwrap()
        };
        let noft = get(FtPolicy::NoFt);
        let pfs = get(FtPolicy::PfsRedirect);
        let ring = get(FtPolicy::RingRecache);
        let p = pfs.with_failures_s.unwrap();
        let r = ring.with_failures_s.unwrap();
        println!(
            "{:>6} {:>14} {:>14} {:>8.1}% {:>14} {:>8.1}% {:>9.1}%",
            n,
            fmt_mmss(noft.no_failure_s),
            fmt_mmss(p),
            pfs.overhead_pct.unwrap(),
            fmt_mmss(r),
            ring.overhead_pct.unwrap(),
            100.0 * (p - r) / p,
        );
    }
    println!(
        "[paper: FT w/ PFS +32.2% (64) -> +68.7% (1024) vs its no-failure run;\n         FT w/ NVMe +12.5% -> +26.7%; FT w/ NVMe beats FT w/ PFS by 14.8% / 24.9%]"
    );

    // Recache accounting, for the "one extra PFS access per lost file" claim.
    println!("\npost-failure PFS reads (owner fetches + client redirects):");
    for &n in &PAPER_NODE_COUNTS {
        let get = |p: FtPolicy| {
            cells
                .iter()
                .find(|c| c.nodes == n && c.policy == p)
                .unwrap()
        };
        let pfs = get(FtPolicy::PfsRedirect).failure_report.as_ref().unwrap();
        let ring = get(FtPolicy::RingRecache).failure_report.as_ref().unwrap();
        let cold = u64::from(workload.samples);
        println!(
            "  n={n:<5} FT w/ PFS: {:>8}   FT w/ NVMe: {:>8}   (cold-epoch floor: {cold})",
            pfs.pfs_reads, ring.pfs_reads
        );
    }
}
