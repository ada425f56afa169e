//! Figure 6(b) — impact of virtual-node count on post-failure load
//! redistribution: 1024 physical nodes, 500 trials, 524,288 files.
//!
//! `cargo run -p ftc-bench --release --bin fig6b [--nodes 1024] [--files 524288] [--trials 500] [--seed 42]`

use ftc_bench::Cli;
use ftc_sim::{fig6b, PAPER_VNODE_COUNTS};

fn main() {
    let cli = Cli::parse(
        "fig6b [--nodes 1024] [--files 524288] [--trials 500] [--seed 42]",
        &["nodes", "files", "trials", "seed"],
        &[],
    );
    let nodes: u32 = cli.get("nodes", 1024);
    let files: u32 = cli.get("files", 524_288);
    let trials: u32 = cli.get("trials", 500);
    let seed: u64 = cli.get("seed", 42);

    ftc_bench::header(&format!(
        "Fig 6(b) — load redistribution after a failure ({nodes} nodes, {files} files, {trials} trials)"
    ));
    println!(
        "{:>7} {:>16} {:>10} {:>18} {:>10}",
        "vnodes", "receiver nodes", "±std", "files/receiver", "±std"
    );
    for row in fig6b(&PAPER_VNODE_COUNTS, nodes, files, trials, seed) {
        println!(
            "{:>7} {:>16.1} {:>10.1} {:>18.1} {:>10.1}",
            row.vnodes,
            row.receivers.mean,
            row.receivers.std_dev,
            row.files_per_receiver.mean,
            row.files_per_receiver.std_dev,
        );
    }
    println!(
        "[paper: ~3 receivers at 10 vnodes -> ~300 at 1000:1, saturating around ~350;\n files/receiver falls correspondingly; diminishing returns beyond 500; optimal 100]"
    );
}
