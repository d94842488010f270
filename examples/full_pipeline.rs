//! The whole system end to end, exactly like the paper's deployment
//! story:
//!
//! 1. generate a Table-I-style dataset and store it as CSV in the
//!    mini-DFS (HDFS stand-in) with 3-way replication;
//! 2. read it back as an RDD of lines (one partition per DFS block),
//!    parse into points — "read an input file from HDFS and generate
//!    RDDs" (Algorithm 2, line 1);
//! 3. run the partitioned SEED-based DBSCAN;
//! 4. kill a datanode *and* inject executor task failures, re-run, and
//!    verify the result is unchanged — the fault-tolerance argument the
//!    paper opens with;
//! 5. compare against the MapReduce baseline.
//!
//! Run: `cargo run --release --example full_pipeline`

use scalable_dbscan::datagen::{self, StandardDataset};
use scalable_dbscan::dbscan::{core_labels_equivalent, MrDbscan};
use scalable_dbscan::dfs::{DfsCluster, DfsConfig};
use scalable_dbscan::engine::{FaultPlan, FaultRule};
use scalable_dbscan::prelude::*;
use std::sync::Arc;

fn main() {
    // ---- 1. data into the DFS -------------------------------------
    let spec = StandardDataset::C10k.scaled_spec(8); // 1250 points
    let (dataset, _) = spec.generate();
    let dfs = Arc::new(
        DfsCluster::new(DfsConfig { num_datanodes: 4, replication: 3, block_size: 32 * 1024 })
            .expect("valid dfs config"),
    );
    datagen::write_dataset_to_dfs(&dfs, "/data/c10k.csv", &dataset).expect("write to dfs");
    let stat = dfs.stat("/data/c10k.csv").expect("stat");
    println!(
        "stored {} bytes in {} blocks across {} datanodes (replication 3)",
        stat.len,
        stat.num_blocks,
        dfs.num_datanodes()
    );

    // ---- 2. RDD of lines -> points --------------------------------
    let ctx = Context::new(ClusterConfig::local(4));
    let lines = ctx.text_file(Arc::clone(&dfs), "/data/c10k.csv").expect("open rdd");
    println!("text RDD: {} partitions (one per DFS block)", lines.num_partitions());
    let rows: Vec<Vec<f64>> = lines
        .map(|l| datagen::parse_csv_row(&l).expect("well-formed CSV"))
        .collect()
        .expect("parse job");
    let data = Arc::new(Dataset::from_rows(rows));
    assert_eq!(data.len(), dataset.len(), "every line read exactly once");

    // ---- 3. cluster -------------------------------------------------
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");
    let clean = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
    println!(
        "clean run: {} clusters, {} noise, {} partial clusters, {} shuffle records",
        clean.clustering.num_clusters(),
        clean.clustering.noise_count(),
        clean.num_partial_clusters,
        clean.shuffle_records
    );

    // ---- 4. chaos run ----------------------------------------------
    dfs.kill_datanode(0).expect("kill datanode");
    let chaos_cfg = ClusterConfig::local(4)
        .with_fault(FaultPlan::tasks(FaultRule::with_prob(0.5, 2)))
        .with_max_attempts(4);
    let chaos_ctx = Context::new(chaos_cfg);
    let lines = chaos_ctx.text_file(Arc::clone(&dfs), "/data/c10k.csv").expect("reopen");
    let rows: Vec<Vec<f64>> = lines
        .map(|l| datagen::parse_csv_row(&l).expect("well-formed CSV"))
        .collect()
        .expect("parse despite dead datanode");
    let data2 = Arc::new(Dataset::from_rows(rows));
    let chaos = SparkDbscan::new(params).run(&chaos_ctx, Arc::clone(&data2));
    let retried = chaos_ctx.job_metrics().iter().map(|j| j.failed_attempts()).sum::<usize>();
    println!("chaos run: datanode 0 dead, {retried} task attempts failed and were retried");
    assert_eq!(
        chaos.clustering.canonicalize().labels,
        clean.clustering.canonicalize().labels,
        "failures must not change the answer"
    );
    println!("chaos result identical to clean result ✔");

    // ---- 5. MapReduce baseline --------------------------------------
    let mr = MrDbscan::new(params, 4).run(Arc::clone(&data), 4).expect("mapreduce run");
    assert!(core_labels_equivalent(&mr.clustering, &clean.clustering));
    println!(
        "MapReduce baseline agrees; it spilled {} bytes to disk (Spark path: 0)",
        mr.spilled_bytes
    );

    // and everything agrees with the sequential oracle
    let seq = SequentialDbscan::new(params).run(data);
    assert!(core_labels_equivalent(&clean.clustering, &seq));
    println!("all three implementations agree with sequential DBSCAN ✔");
}
