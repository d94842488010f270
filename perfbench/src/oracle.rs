//! An independent DBSCAN oracle: an O(n^2) all-pairs loop that shares no
//! distance, kernel or index code with the program under test.
//!
//! The benchmark trusts `SequentialDbscan` as its reference at full
//! scale, but that reference queries the same tree and leaf kernels as
//! the parallel job. On scaled-down copies of each workload this oracle
//! checks both of them.

use dbscan_core::{Clustering, Label};
use std::collections::HashMap;

/// Brute-force DBSCAN facts about a point set.
pub struct Oracle {
    /// `core[i]`: point `i` has at least `min_pts` points (itself
    /// included) within `eps`.
    core: Vec<bool>,
    /// Connected component of each core point (core points within `eps`
    /// of each other share one); `usize::MAX` for non-core points.
    component: Vec<usize>,
    /// Core neighbours of every point.
    core_neighbors: Vec<Vec<u32>>,
}

fn within(a: &[f64], b: &[f64], eps2: f64) -> bool {
    let mut s = 0.0;
    for k in 0..a.len() {
        let d = a[k] - b[k];
        s += d * d;
    }
    s <= eps2
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

impl Oracle {
    /// Cluster the row-major `coords` (`dim` values per point).
    pub fn new(coords: &[f64], dim: usize, eps: f64, min_pts: usize) -> Self {
        let n = coords.len() / dim;
        let row = |i: usize| &coords[i * dim..(i + 1) * dim];
        let eps2 = eps * eps;
        let neighbors: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..n).filter(|&j| within(row(i), row(j), eps2)).map(|j| j as u32).collect())
            .collect();
        let core: Vec<bool> = neighbors.iter().map(|nb| nb.len() >= min_pts).collect();
        let core_neighbors: Vec<Vec<u32>> = neighbors
            .into_iter()
            .map(|nb| nb.into_iter().filter(|&j| core[j as usize]).collect())
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        for i in (0..n).filter(|&i| core[i]) {
            for &j in &core_neighbors[i] {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j as usize));
                parent[a.max(b)] = a.min(b);
            }
        }
        let component =
            (0..n).map(|i| if core[i] { find(&mut parent, i) } else { usize::MAX }).collect();
        Oracle { core, component, core_neighbors }
    }

    /// Whether `c` is a DBSCAN answer: the same core points, the same
    /// partition of them, noise exactly where no core point is within
    /// `eps`, and every border point in the cluster of a core neighbour.
    pub fn check(&self, c: &Clustering) -> Result<(), String> {
        let n = self.core.len();
        if c.len() != n || c.core.len() != n {
            return Err(format!("{} labels for {n} points", c.len()));
        }
        if let Some(i) = (0..n).find(|&i| c.core[i] != self.core[i]) {
            return Err(format!(
                "core flag of point {i} is {}, oracle says {}",
                c.core[i], !c.core[i]
            ));
        }
        let mut label_of: HashMap<usize, u32> = HashMap::new();
        let mut component_of: HashMap<u32, usize> = HashMap::new();
        for i in (0..n).filter(|&i| self.core[i]) {
            let Label::Cluster(l) = c.labels[i] else {
                return Err(format!("core point {i} is labelled noise"));
            };
            let comp = self.component[i];
            if *label_of.entry(comp).or_insert(l) != l
                || *component_of.entry(l).or_insert(comp) != comp
            {
                return Err(format!("core point {i} is in the wrong cluster"));
            }
        }
        for i in (0..n).filter(|&i| !self.core[i]) {
            match (c.labels[i], self.core_neighbors[i].is_empty()) {
                (Label::Noise, true) => {}
                (Label::Noise, false) => return Err(format!("border point {i} is labelled noise")),
                (Label::Cluster(_), true) => return Err(format!("noise point {i} is clustered")),
                (Label::Cluster(l), false) => {
                    if !self.core_neighbors[i]
                        .iter()
                        .any(|&j| c.labels[j as usize] == Label::Cluster(l))
                    {
                        return Err(format!(
                            "border point {i} joined a cluster with no core neighbour"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Scaled-down copy sizes, at most a few thousand points each.
pub const SCALED_POINTS: usize = 2048;

/// Check the exact-mode job and the `SequentialDbscan` reference against
/// the oracle on a scaled-down copy of `w`.
pub fn self_check(w: &crate::workload::Workload, workers: usize) -> Result<(), String> {
    use dbscan_core::{SequentialDbscan, SparkDbscan};
    use sparklet::{ClusterConfig, Context};
    use std::sync::Arc;

    let small = w.scaled(SCALED_POINTS);
    let data = Arc::new(small.generate());
    let oracle = Oracle::new(data.flat(), data.dim(), small.params.eps, small.params.min_pts);
    let ctx = Context::new(ClusterConfig::local(workers));
    let job = SparkDbscan::new(small.params)
        .partitions(small.partitions)
        .exact()
        .resources(crate::workload::resources(workers))
        .run(&ctx, Arc::clone(&data));
    oracle.check(&job.clustering).map_err(|e| format!("{} job vs oracle: {e}", w.name))?;
    let reference = SequentialDbscan::new(small.params).run(data);
    oracle.check(&reference).map_err(|e| format!("{} reference vs oracle: {e}", w.name))?;
    crate::workload::check_labels(&reference, &job.clustering)
        .map_err(|e| format!("{} job vs reference: {e}", w.name))?;
    if oracle.core.iter().all(|&c| !c) || oracle.core.iter().all(|&c| c) {
        return Err(format!("{}: scaled copy has no core/non-core contrast", w.name));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, NAMES};

    #[test]
    fn job_and_reference_agree_with_the_oracle_on_scaled_workloads() {
        for name in NAMES {
            for seed in [1, 2, 3] {
                let w = Workload::by_name(name, seed).expect("known workload");
                self_check(&w, 2).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        // a 1-d chain 0..5 (one cluster) and an isolated point
        let coords = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0];
        let oracle = Oracle::new(&coords, 1, 1.0, 3);
        let good = Clustering {
            labels: vec![Label::Cluster(7); 5].into_iter().chain([Label::Noise]).collect(),
            core: vec![false, true, true, true, false, false],
        };
        oracle.check(&good).expect("correct answer");

        let mut split = good.clone();
        split.labels[3] = Label::Cluster(8);
        assert!(oracle.check(&split).is_err(), "split core component");
        let mut flag = good.clone();
        flag.core[0] = true;
        assert!(oracle.check(&flag).is_err(), "wrong core flag");
        let mut noise = good.clone();
        noise.labels[5] = Label::Cluster(7);
        assert!(oracle.check(&noise).is_err(), "noise clustered");
        let mut border = good;
        border.labels[0] = Label::Noise;
        assert!(oracle.check(&border).is_err(), "border dropped to noise");
    }
}
