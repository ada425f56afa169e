//! Quickstart: boot a fault-tolerant cache cluster, lose a node
//! mid-training, and keep going.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ft_cache::prelude::*;
use ft_cache::storage::verify_synth;

fn main() {
    println!("== FT-Cache quickstart ==\n");

    // 1. A 4-node cluster running the paper's hash-ring recaching design.
    let cluster =
        Cluster::start(ClusterConfig::small(4, FtPolicy::RingRecache)).expect("boot cluster");
    let paths = cluster.stage_dataset("train", 64, 4096);
    println!(
        "staged {} files ({} KiB each) on the PFS",
        paths.len(),
        4096 / 1024
    );

    // 2. Epoch 1: every read misses, servers fetch from the PFS and
    //    persist each file onto node-local NVMe behind its reply.
    let client = cluster.client(0);
    for p in &paths {
        client.read(p).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    println!(
        "epoch 1: {} PFS fetches, caches now hold {:?} objects/node",
        cluster.pfs().total_reads(),
        cluster.cached_objects_per_node()
    );

    // 3. Epoch 2 is PFS-free.
    cluster.pfs().reset_read_counters();
    for p in &paths {
        client.read(p).unwrap();
    }
    println!(
        "epoch 2: {} PFS reads (all NVMe hits)",
        cluster.pfs().total_reads()
    );

    // 4. Kill a node the way SLURM drains one: it just goes silent.
    println!("\n-- killing n2 --");
    cluster.kill(NodeId(2));

    // 5. Training continues; lost files are recached exactly once.
    cluster.pfs().reset_read_counters();
    for pass in 1..=3 {
        for p in &paths {
            let bytes = client.read(p).unwrap();
            assert!(verify_synth(p, &bytes), "corruption on {p}");
        }
        println!(
            "post-failure pass {pass}: cumulative PFS reads = {}",
            cluster.pfs().total_reads()
        );
    }

    let m = cluster.metrics();
    println!(
        "\nmetrics: {} reads ok, {} timeouts, {} nodes declared failed, {} files recached",
        m.clients.reads_ok,
        m.clients.rpc_timeouts,
        m.clients.nodes_declared_failed,
        m.files_recached
    );
    println!(
        "cache distribution after failover: {:?} objects/node (n2 is dead)",
        cluster.cached_objects_per_node()
    );
    cluster.shutdown();
    println!("\nok: every byte verified across the failure.");
}
