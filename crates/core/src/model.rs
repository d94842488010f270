//! Partitions and partial clusters — the paper's core data model.

use serde::{Deserialize, Serialize};

/// The contiguous index-range partitioning of `n` points into `p`
/// partitions (Fig. 4's "Range: 0 -- 2499").
///
/// Represented as `p + 1` sorted cut points `cuts[0] = 0 <= cuts[1] <=
/// ... <= cuts[p] = n`; partition `i` owns `[cuts[i], cuts[i+1])`. The
/// equal-count constructor ([`PartitionRanges::new`]) reproduces the
/// paper's `[i*n/p, (i+1)*n/p)` split exactly; the cost-balanced planner
/// ([`crate::partitioned::planner`]) supplies arbitrary contiguous cuts
/// through [`PartitionRanges::from_cuts`]. SEED semantics only require
/// ranges to be contiguous and ordered, which every cut vector satisfies
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionRanges {
    n: u32,
    cuts: Vec<u32>,
}

impl PartitionRanges {
    /// Partition `n` points into `p` equal-count contiguous ranges
    /// (partition `i` owns `[i*n/p, (i+1)*n/p)`, as in the paper).
    pub fn new(n: usize, p: usize) -> Self {
        let p = p.max(1);
        let cuts = (0..=p as u64).map(|i| (i * n as u64 / p as u64) as u32).collect();
        PartitionRanges { n: n as u32, cuts }
    }

    /// Partition `n` points along explicit cut points. `cuts` must have
    /// length `p + 1 >= 2`, start at `0`, end at `n`, and be
    /// non-decreasing (empty partitions are allowed).
    pub fn from_cuts(n: usize, cuts: Vec<u32>) -> Self {
        assert!(cuts.len() >= 2, "need at least one partition");
        assert_eq!(cuts[0], 0, "first cut must be 0");
        assert_eq!(*cuts.last().unwrap() as usize, n, "last cut must be n");
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be sorted");
        PartitionRanges { n: n as u32, cuts }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Total number of points.
    pub fn num_points(&self) -> usize {
        self.n as usize
    }

    /// The cut points (`num_partitions() + 1` sorted values from `0` to
    /// `n`).
    pub fn cut_points(&self) -> &[u32] {
        &self.cuts
    }

    /// The half-open index range `[start, end)` of partition `i`.
    pub fn range(&self, i: usize) -> (u32, u32) {
        (self.cuts[i], self.cuts[i + 1])
    }

    /// Which partition owns point `idx`.
    pub fn partition_of(&self, idx: u32) -> usize {
        debug_assert!(idx < self.n);
        // last cut <= idx; empty partitions share a cut value but only
        // the rightmost of them contains idx, which is what this finds
        let i = self.cuts.partition_point(|&c| c <= idx) - 1;
        debug_assert!(self.contains(i, idx));
        i
    }

    /// Whether `idx` lies in partition `i`.
    pub fn contains(&self, i: usize, idx: u32) -> bool {
        let (a, b) = self.range(i);
        idx >= a && idx < b
    }
}

/// Merge status of a partial cluster (Algorithm 4 / Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartialStatus {
    /// Not yet considered by the merge loop.
    Unfinished,
    /// Merged (either absorbed into another cluster or closed out).
    Finished,
}

/// A partial cluster built inside one executor.
///
/// `members` holds global point indices; members **inside** the owner's
/// range are regular elements, members **outside** it are SEEDs ("the
/// SEEDs are not related to the locations\[;\] if the current point's
/// index is beyond the range of \[the\] current partition it is taken as a
/// SEED").
///
/// **Layout contract**: the regular members come first, in the order
/// the executor claimed them, then the SEEDs, in the order it placed
/// them. [`regulars`](Self::regulars) and [`seeds`](Self::seeds) are
/// the prefix and suffix split at the first SEED; the merge relies on
/// the split and checks the layout in debug builds. Code that builds
/// partial clusters by hand must keep it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialCluster {
    /// Partition that built this cluster.
    pub owner: u32,
    /// The owner's index range `[start, end)`.
    pub range: (u32, u32),
    /// Regular members, then SEEDs.
    pub members: Vec<u32>,
}

impl PartialCluster {
    /// New empty partial cluster for a partition.
    pub fn new(owner: u32, range: (u32, u32)) -> Self {
        PartialCluster { owner, range, members: Vec::new() }
    }

    /// Whether an index is a regular element (inside the owner's range).
    pub fn is_regular(&self, idx: u32) -> bool {
        idx >= self.range.0 && idx < self.range.1
    }

    /// Whether `members` keeps the layout contract: no regular member
    /// after a SEED.
    #[cfg(test)]
    pub(crate) fn has_contract_layout(&self) -> bool {
        self.members.iter().skip_while(|&&m| self.is_regular(m)).all(|&m| !self.is_regular(m))
    }

    /// The SEEDs: members outside the owner's range, the suffix of
    /// `members`.
    pub fn seeds(&self) -> impl Iterator<Item = u32> + '_ {
        self.view().seeds.iter().copied()
    }

    /// Regular members only, the prefix of `members`.
    pub fn regulars(&self) -> impl Iterator<Item = u32> + '_ {
        self.view().regulars.iter().copied()
    }

    /// Number of members (regulars + SEEDs).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cluster as the merge reads it: `members` split at the first
    /// SEED. A linear scan over the regulars, not a binary search: the
    /// merge reads the regulars anyway, and on merge-bound inputs most
    /// partials hold one or two regulars ahead of dozens of SEEDs, where
    /// a binary search would first load the middle of the list.
    pub fn view(&self) -> PartialView<'_> {
        let k = self.members.iter().position(|&m| !self.is_regular(m));
        let (regulars, seeds) = self.members.split_at(k.unwrap_or(self.members.len()));
        PartialView { range: self.range, regulars, seeds }
    }
}

/// A borrowed partial cluster: its owner's range, its regular members
/// and its SEEDs, each in the order the executor recorded them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialView<'a> {
    /// The owner's index range `[start, end)`.
    pub range: (u32, u32),
    /// Members inside the range, in claim order.
    pub regulars: &'a [u32],
    /// Members outside the range, in placement order.
    pub seeds: &'a [u32],
}

/// One task's partial clusters in one buffer: every partial's members
/// back to back, each in the [`PartialCluster`] layout (regulars, then
/// SEEDs), with the offsets that split them. An executor appends to it
/// as it clusters, so a task's output is a handful of buffers however
/// many partials it holds.
///
/// A *forward-only* arena, which only the driver's exact union-find
/// path asks for, holds only the SEEDs above `range`, plus a short list
/// of border candidates that stands in for the SEEDs below it (see
/// [`crate::partitioned::merge`], "Who records each edge"). Its
/// partials are not whole, so it cannot be converted into owned ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialArena {
    /// Partition that built these partials.
    pub owner: u32,
    /// The owner's index range `[start, end)`.
    pub range: (u32, u32),
    /// Every partial's members; the open partial's regulars at the end.
    pub(crate) members: Vec<u32>,
    /// Per closed partial, where its SEEDs start in `members` and where
    /// it ends; it starts where the one before it ends.
    bounds: Vec<(u32, u32)>,
    /// `None` for an arena holding every SEED. For a forward-only one,
    /// `(s, q)` for each non-core own point `s` and each neighbour `q`
    /// of it above `range`, in query order.
    pub(crate) border_candidates: Option<Vec<(u32, u32)>>,
}

impl PartialArena {
    /// An empty arena for a partition.
    pub fn new(owner: u32, range: (u32, u32)) -> Self {
        let (members, bounds) = (Vec::new(), Vec::new());
        PartialArena { owner, range, members, bounds, border_candidates: None }
    }

    /// An empty forward-only arena for a partition.
    pub(crate) fn forward_only(owner: u32, range: (u32, u32)) -> Self {
        PartialArena { border_candidates: Some(Vec::new()), ..Self::new(owner, range) }
    }

    /// The border candidates of a forward-only arena; none for an arena
    /// holding every SEED.
    pub(crate) fn border_candidates(&self) -> &[(u32, u32)] {
        self.border_candidates.as_deref().unwrap_or_default()
    }

    /// Number of partial clusters.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the arena holds no partial cluster.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Close the partial whose regulars were appended since the last
    /// one closed: append `seeds` after them.
    pub(crate) fn close(&mut self, seeds: &[u32]) {
        let at = |len: usize| u32::try_from(len).expect("a task's partials hold < 2^32 members");
        let seed_start = at(self.members.len());
        self.members.extend_from_slice(seeds);
        self.bounds.push((seed_start, at(self.members.len())));
    }

    /// Append a partial cluster of this arena's partition.
    pub fn push(&mut self, cluster: &PartialCluster) {
        assert_eq!((cluster.owner, cluster.range), (self.owner, self.range), "foreign partial");
        let PartialView { regulars, seeds, .. } = cluster.view();
        self.members.extend_from_slice(regulars);
        self.close(seeds);
    }

    /// Where the `i`-th partial starts, where its SEEDs start and where
    /// it ends in `members`.
    fn span(&self, i: usize) -> [usize; 3] {
        let start = i.checked_sub(1).map_or(0, |j| self.bounds[j].1);
        let (seed_start, end) = self.bounds[i];
        [start as usize, seed_start as usize, end as usize]
    }

    /// The `i`-th partial cluster.
    fn view(&self, i: usize) -> PartialView<'_> {
        let [start, seed_start, end] = self.span(i);
        PartialView {
            range: self.range,
            regulars: &self.members[start..seed_start],
            seeds: &self.members[seed_start..end],
        }
    }

    /// Every partial cluster, in the order the executor closed them.
    pub fn views(&self) -> impl ExactSizeIterator<Item = PartialView<'_>> + Clone {
        (0..self.len()).map(|i| self.view(i))
    }

    /// The partials as owned clusters, one `Vec` each.
    ///
    /// # Panics
    /// Panics on a forward-only arena: its partials lack the SEEDs
    /// below their range.
    pub fn into_partials(self) -> Vec<PartialCluster> {
        assert!(self.border_candidates.is_none(), "a forward-only arena lacks its backward SEEDs");
        let (owner, range) = (self.owner, self.range);
        let members = |[start, _, end]: [usize; 3]| self.members[start..end].to_vec();
        (0..self.len())
            .map(|i| PartialCluster { owner, range, members: members(self.span(i)) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_everything_exactly_once() {
        for (n, p) in [(10usize, 3usize), (5000, 2), (7, 7), (100, 1), (13, 5)] {
            let r = PartitionRanges::new(n, p);
            let mut covered = vec![0u8; n];
            for i in 0..p {
                let (a, b) = r.range(i);
                for x in a..b {
                    covered[x as usize] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={n} p={p}");
        }
    }

    #[test]
    fn arena_round_trips_partial_clusters() {
        // partials with and without SEEDs, and one with no regulars, as
        // hand-built inputs can hold
        let members: [&[u32]; 4] = [&[3, 1, 12, 20], &[4], &[], &[2, 15, 11]];
        let partials: Vec<PartialCluster> = members
            .iter()
            .map(|m| PartialCluster { owner: 1, range: (0, 10), members: m.to_vec() })
            .collect();
        let mut arena = PartialArena::new(1, (0, 10));
        assert!(arena.is_empty());
        for c in &partials {
            arena.push(c);
        }
        assert_eq!(arena.len(), 4);
        let views: Vec<PartialView> = arena.views().collect();
        let want: Vec<PartialView> = partials.iter().map(PartialCluster::view).collect();
        assert_eq!(views, want);
        assert_eq!((views[0].regulars, views[0].seeds), (&[3, 1][..], &[12, 20][..]));
        assert_eq!((views[2].regulars, views[2].seeds), (&[][..], &[][..]));
        assert_eq!(arena.into_partials(), partials);
    }

    #[test]
    #[should_panic(expected = "a forward-only arena lacks its backward SEEDs")]
    fn forward_only_arena_refuses_conversion() {
        let _ = PartialArena::forward_only(0, (0, 10)).into_partials();
    }

    #[test]
    #[should_panic(expected = "foreign partial")]
    fn arena_refuses_a_foreign_partial() {
        PartialArena::new(0, (0, 10)).push(&PartialCluster::new(1, (10, 20)));
    }

    #[test]
    fn paper_example_ranges() {
        // Fig. 4: 5000 points, 2 partitions -> 0..2499 and 2500..4999
        let r = PartitionRanges::new(5000, 2);
        assert_eq!(r.range(0), (0, 2500));
        assert_eq!(r.range(1), (2500, 5000));
        assert_eq!(r.partition_of(2499), 0);
        assert_eq!(r.partition_of(2500), 1);
        assert_eq!(r.partition_of(3000), 1);
    }

    #[test]
    fn partition_of_agrees_with_ranges() {
        for (n, p) in [(100usize, 7usize), (1001, 13), (64, 64)] {
            let r = PartitionRanges::new(n, p);
            for idx in 0..n as u32 {
                let i = r.partition_of(idx);
                assert!(r.contains(i, idx), "n={n} p={p} idx={idx} -> {i}");
            }
        }
    }

    #[test]
    fn more_partitions_than_points() {
        let r = PartitionRanges::new(3, 10);
        let total: u32 = (0..10).map(|i| r.range(i)).map(|(a, b)| b - a).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn from_cuts_partitions_everything_exactly_once() {
        let r = PartitionRanges::from_cuts(10, vec![0, 4, 4, 9, 10]);
        assert_eq!(r.num_partitions(), 4);
        assert_eq!(r.range(0), (0, 4));
        assert_eq!(r.range(1), (4, 4)); // empty partition allowed
        assert_eq!(r.range(2), (4, 9));
        assert_eq!(r.range(3), (9, 10));
        let mut covered = [0u8; 10];
        for i in 0..4 {
            let (a, b) = r.range(i);
            for x in a..b {
                covered[x as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
        // partition_of skips the empty partition at the shared cut
        assert_eq!(r.partition_of(3), 0);
        assert_eq!(r.partition_of(4), 2);
        assert_eq!(r.partition_of(9), 3);
    }

    #[test]
    fn equal_count_cuts_match_closed_form() {
        for (n, p) in [(10usize, 3usize), (5000, 2), (7, 7), (100, 1), (13, 5), (3, 10)] {
            let r = PartitionRanges::new(n, p);
            for i in 0..p.max(1) {
                let (a, b) = r.range(i);
                assert_eq!(a as u64, i as u64 * n as u64 / p.max(1) as u64);
                assert_eq!(b as u64, (i as u64 + 1) * n as u64 / p.max(1) as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "last cut must be n")]
    fn from_cuts_rejects_short_coverage() {
        let _ = PartitionRanges::from_cuts(10, vec![0, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "cuts must be sorted")]
    fn from_cuts_rejects_unsorted() {
        let _ = PartitionRanges::from_cuts(10, vec![0, 6, 4, 10]);
    }

    #[test]
    fn partition_ranges_serde_roundtrip() {
        let r = PartitionRanges::from_cuts(10, vec![0, 4, 4, 9, 10]);
        let json = serde_json::to_string(&r).unwrap();
        let back: PartitionRanges = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn seeds_are_out_of_range_members() {
        // Fig. 4a: C[0] has range 0..2500 and contains 3000 as a SEED,
        // listed after the regulars as the layout contract requires
        let mut c = PartialCluster::new(0, (0, 2500));
        c.members = vec![0, 5, 6, 11, 223, 2300, 23, 45, 1000, 3000];
        assert!(c.is_regular(0) && c.is_regular(2300));
        assert!(!c.is_regular(3000));
        assert_eq!(c.seeds().collect::<Vec<_>>(), vec![3000]);
        assert_eq!(c.regulars().count(), 9);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = PartialCluster::new(1, (10, 20));
        c.members = vec![10, 11, 25];
        let json = serde_json::to_string(&c).unwrap();
        let back: PartialCluster = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
