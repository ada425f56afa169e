//! Figure 4 — hash-ring reassignment on node failure: data items map to
//! the first node token clockwise; on failure only the failed node's
//! items move, to the next clockwise owner.
//!
//! `cargo run -p ftc-bench --release --bin fig4 [--nodes 4] [--vnodes 4] [--files 8]`

use ftc_bench::Cli;
use ftc_hashring::{hash::key_hash, HashRing, Placement};

fn main() {
    let cli = Cli::parse(
        "fig4 [--nodes 4] [--vnodes 4] [--files 8]",
        &["nodes", "vnodes", "files"],
        &[],
    );
    let nodes: u32 = cli.get("nodes", 4);
    let vnodes: u32 = cli.get("vnodes", 4);
    let files: u32 = cli.get("files", 8);

    ftc_bench::header("Fig 4 — ring reassignment on failure");
    let mut ring = HashRing::with_nodes(nodes, vnodes);
    let names: Vec<String> = (0..files)
        .map(|i| format!("file_{}", (b'A' + (i % 26) as u8) as char))
        .collect();

    println!("(a) before fault — {nodes} nodes x {vnodes} vnodes");
    let before: Vec<_> = names
        .iter()
        .map(|f| {
            let h = key_hash(f);
            let owner = ring.owner(f).unwrap();
            println!("  {f}  hash={:.6}  -> {owner}", h as f64 / u64::MAX as f64);
            owner
        })
        .collect();

    let failed = before[0];
    println!("\n(b) after fault of {failed} — only its items move, clockwise:");
    ring.remove_node(failed).unwrap();
    let mut moved = 0;
    for (f, owner_before) in names.iter().zip(&before) {
        let owner_after = ring.owner(f).unwrap();
        if owner_after != *owner_before {
            moved += 1;
            println!("  {f}  {owner_before} -> {owner_after}   (reassigned)");
        } else {
            println!("  {f}  stays on {owner_before}");
        }
    }
    let lost = before.iter().filter(|&&o| o == failed).count();
    println!(
        "\nmoved {moved}/{files} files; {failed} owned {lost} — minimal movement: moved == lost: {}",
        moved == lost
    );
    println!("arc fractions after failure:");
    for n in ring.live_nodes() {
        println!("  {n}: {:.1}% of the ring", 100.0 * ring.arc_fraction(n));
    }
}
