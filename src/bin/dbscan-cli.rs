//! Command-line DBSCAN over CSV data, driven by the paper's partitioned
//! algorithm (or the sequential / MapReduce baselines).
//!
//! ```console
//! $ dbscan-cli --input points.csv --eps 0.5 --min-pts 4
//! $ dbscan-cli --dataset r10k --scale small --partitions 8 --exact
//! $ dbscan-cli --input points.csv --eps 25 --min-pts 5 --algo mapreduce \
//!       --output labels.csv
//! ```
//!
//! The input CSV has one point per line, comma-separated coordinates,
//! no header. The output CSV has `index,label` rows where label is a
//! cluster id or `noise`.

use scalable_dbscan::datagen::{dataset_from_csv, StandardDataset};
use scalable_dbscan::dbscan::{Label, MrDbscan};
use scalable_dbscan::prelude::*;
use std::sync::Arc;

struct Options {
    input: Option<String>,
    dataset: Option<StandardDataset>,
    scale_factor: usize,
    eps: Option<f64>,
    min_pts: Option<usize>,
    partitions: usize,
    exact: bool,
    algo: String,
    output: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dbscan-cli (--input <csv> --eps <f> --min-pts <n> | --dataset <c10k|c100k|r10k|r100k|r1m> [--scale <small|medium|paper>])
       [--partitions <n>] [--exact] [--algo spark|sequential|mapreduce] [--output <csv>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        input: None,
        dataset: None,
        scale_factor: 64,
        eps: None,
        min_pts: None,
        partitions: 4,
        exact: false,
        algo: "spark".to_string(),
        output: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match args[i].as_str() {
            "--input" => {
                o.input = Some(take(i));
                i += 2;
            }
            "--dataset" => {
                o.dataset = StandardDataset::from_name(&take(i)).or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                o.scale_factor = match take(i).as_str() {
                    "small" => 64,
                    "medium" => 8,
                    "paper" | "full" => 1,
                    _ => usage(),
                };
                i += 2;
            }
            "--eps" => {
                o.eps = take(i).parse().ok().or_else(|| usage());
                i += 2;
            }
            "--min-pts" => {
                o.min_pts = take(i).parse().ok().or_else(|| usage());
                i += 2;
            }
            "--partitions" => {
                o.partitions = take(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--exact" => {
                o.exact = true;
                i += 1;
            }
            "--algo" => {
                o.algo = take(i);
                i += 2;
            }
            "--output" => {
                o.output = Some(take(i));
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    o
}

fn main() {
    let o = parse_args();

    // ---- load or generate data ----
    let (data, params) = match (&o.input, o.dataset) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let data = dataset_from_csv(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            if data.is_empty() {
                eprintln!("no points in {path}");
                std::process::exit(1);
            }
            let (Some(eps), Some(min_pts)) = (o.eps, o.min_pts) else {
                eprintln!("--eps and --min-pts are required with --input");
                usage();
            };
            let params = DbscanParams::new(eps, min_pts).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            (Arc::new(data), params)
        }
        (None, Some(ds)) => {
            let spec = ds.scaled_spec(o.scale_factor);
            let (data, _) = spec.generate();
            let params =
                DbscanParams::new(o.eps.unwrap_or(spec.eps), o.min_pts.unwrap_or(spec.min_pts))
                    .expect("catalog params are valid");
            (Arc::new(data), params)
        }
        _ => usage(),
    };

    eprintln!(
        "clustering {} points (d={}) with eps={} min_pts={} [{} / {} partitions{}]",
        data.len(),
        data.dim(),
        params.eps,
        params.min_pts,
        o.algo,
        o.partitions,
        if o.exact { ", exact mode" } else { "" }
    );

    // ---- run ----
    let start = std::time::Instant::now();
    let clustering = match o.algo.as_str() {
        "sequential" => SequentialDbscan::new(params).run(Arc::clone(&data)),
        "mapreduce" => {
            let mut alg = MrDbscan::new(params, o.partitions);
            if o.exact {
                alg = alg.exact();
            }
            alg.run(Arc::clone(&data), o.partitions)
                .unwrap_or_else(|e| {
                    eprintln!("mapreduce job failed: {e}");
                    std::process::exit(1);
                })
                .clustering
        }
        "spark" => {
            let ctx = Context::new(ClusterConfig::local(o.partitions));
            let mut alg = SparkDbscan::new(params).partitions(o.partitions);
            if o.exact {
                alg = alg.exact();
            }
            let result = alg.run(&ctx, Arc::clone(&data));
            eprintln!(
                "partial clusters: {}  merges: {}  shuffle records: {}",
                result.num_partial_clusters, result.merge_ops, result.shuffle_records
            );
            result.clustering
        }
        other => {
            eprintln!("unknown --algo {other}");
            usage();
        }
    };
    let elapsed = start.elapsed();

    // ---- report ----
    println!("clusters: {}", clustering.num_clusters());
    println!("noise:    {}", clustering.noise_count());
    println!("core:     {}", clustering.core_count());
    println!("time:     {elapsed:?}");
    let sizes = clustering.cluster_sizes();
    let mut shown: Vec<_> = sizes.iter().collect();
    shown.sort_by_key(|(_, &s)| std::cmp::Reverse(s));
    for (id, size) in shown.iter().take(10) {
        println!("  cluster {id}: {size} points");
    }
    if sizes.len() > 10 {
        println!("  ... and {} more clusters", sizes.len() - 10);
    }

    if let Some(out) = o.output {
        let mut text = String::with_capacity(clustering.len() * 8);
        for (i, l) in clustering.labels.iter().enumerate() {
            match l {
                Label::Cluster(c) => text.push_str(&format!("{i},{c}\n")),
                Label::Noise => text.push_str(&format!("{i},noise\n")),
            }
        }
        std::fs::write(&out, text).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("labels written to {out}");
    }
}
