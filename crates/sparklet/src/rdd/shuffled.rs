//! The shuffle operator (`combine_by_key` and friends).
//!
//! Map side: each parent partition is **combined map-side** (Spark's
//! `reduceByKey` behaviour) into per-key combiners, bucketed by key hash
//! into one bucket per reduce partition, and registered with the
//! [`ShuffleManager`]. Reduce side: each output partition fetches its
//! bucket column and merges combiners. Records and bytes moved are
//! accounted *after* map-side combining, so shuffle volume reflects what
//! a real cluster would put on the wire.

use super::{AnyRdd, Parent, RddNode, ShuffleDepObj};
use crate::context::Context;
use crate::shuffle::{Bucket, ShuffleManager};
use crate::task::{TaskOutput, TaskWork};
use crate::Data;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::Arc;

type CreateFn<V, C> = Box<dyn Fn(V) -> C + Send + Sync>;
type MergeValueFn<C, V> = Box<dyn Fn(&mut C, V) + Send + Sync>;
type MergeCombinersFn<C> = Box<dyn Fn(&mut C, C) + Send + Sync>;

/// Reduce-side aggregation functions.
pub(crate) struct Aggregator<K, V, C> {
    pub create: CreateFn<V, C>,
    pub merge_value: MergeValueFn<C, V>,
    pub merge_combiners: MergeCombinersFn<C>,
    _pd: std::marker::PhantomData<fn(K)>,
}

/// Deterministic key -> reduce-partition assignment (Spark's
/// HashPartitioner).
pub(crate) fn hash_partition<K: Hash>(key: &K, num_partitions: usize) -> usize {
    let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
    (h % num_partitions as u64) as usize
}

/// The post-shuffle RDD node.
pub(crate) struct ShuffledRdd<K, V, C> {
    id: usize,
    shuffle_id: usize,
    parent: Arc<dyn RddNode<Item = (K, V)>>,
    num_reduces: usize,
    agg: Arc<Aggregator<K, V, C>>,
    shuffles: Arc<ShuffleManager>,
}

impl<K, V, C> ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Build the node (and implicitly its shuffle dependency); keys are
    /// routed by [`hash_partition`].
    pub(crate) fn create(
        ctx: &Context,
        parent: Arc<dyn RddNode<Item = (K, V)>>,
        num_reduces: usize,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(&mut C, V) + Send + Sync + 'static,
        merge_combiners: impl Fn(&mut C, C) + Send + Sync + 'static,
    ) -> Arc<Self> {
        let num_reduces = num_reduces.max(1);
        Arc::new(ShuffledRdd {
            id: ctx.inner.next_rdd_id(),
            shuffle_id: ctx.inner.next_shuffle_id(),
            parent,
            num_reduces,
            agg: Arc::new(Aggregator {
                create: Box::new(create),
                merge_value: Box::new(merge_value),
                merge_combiners: Box::new(merge_combiners),
                _pd: std::marker::PhantomData,
            }),
            shuffles: Arc::clone(&ctx.inner.shuffles),
        })
    }
}

impl<K, V, C> AnyRdd for ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.num_reduces
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Shuffle(Arc::new(ShuffleDepImpl {
            shuffle_id: self.shuffle_id,
            parent: self.parent.clone(),
            num_reduces: self.num_reduces,
            agg: Arc::clone(&self.agg),
            shuffles: Arc::clone(&self.shuffles),
        }))]
    }
}

impl<K, V, C> RddNode for ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    type Item = (K, C);

    fn compute(&self, part: usize) -> Result<Vec<(K, C)>, crate::task::TaskError> {
        // fetch_checked applies the fault plan's fetch-failure rule and
        // returns typed errors, routing recovery through lineage; the
        // fetch itself is an Arc refcount bump per map output
        let column = self.shuffles.fetch_checked(self.shuffle_id, part)?;
        if let [only] = column.as_slice() {
            // single map output: map-side combine already made the keys
            // unique within the bucket, so there is nothing to merge —
            // skip the combiner table (the bucket is shared with the
            // manager, so the pairs are still cloned out, once)
            let pairs = only
                .downcast_ref::<Vec<(K, C)>>()
                .ok_or_else(|| "shuffle bucket type mismatch".to_string())?;
            let records = pairs.len() as u64;
            let bytes = records * std::mem::size_of::<(K, C)>() as u64;
            self.shuffles.trace_read(self.shuffle_id, records, bytes);
            return Ok(pairs.clone());
        }
        let mut table: std::collections::HashMap<K, C> = std::collections::HashMap::new();
        let mut records = 0u64;
        for bucket in column {
            let pairs = bucket
                .downcast_ref::<Vec<(K, C)>>()
                .ok_or_else(|| "shuffle bucket type mismatch".to_string())?;
            records += pairs.len() as u64;
            table.reserve(pairs.len());
            for (k, c) in pairs.iter().cloned() {
                match table.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        (self.agg.merge_combiners)(e.get_mut(), c)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(c);
                    }
                }
            }
        }
        let bytes = records * std::mem::size_of::<(K, C)>() as u64;
        self.shuffles.trace_read(self.shuffle_id, records, bytes);
        Ok(table.into_iter().collect())
    }
}

/// The shuffle dependency handed to the scheduler.
struct ShuffleDepImpl<K, V, C> {
    shuffle_id: usize,
    parent: Arc<dyn RddNode<Item = (K, V)>>,
    num_reduces: usize,
    agg: Arc<Aggregator<K, V, C>>,
    shuffles: Arc<ShuffleManager>,
}

impl<K, V, C> ShuffleDepObj for ShuffleDepImpl<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn shuffle_id(&self) -> usize {
        self.shuffle_id
    }

    fn parent_node(&self) -> Arc<dyn AnyRdd> {
        self.parent.clone()
    }

    fn num_maps(&self) -> usize {
        self.parent.num_partitions()
    }

    fn num_reduces(&self) -> usize {
        self.num_reduces
    }

    fn make_map_task(&self, part: usize, executor: usize) -> TaskWork {
        let parent = self.parent.clone();
        let shuffles = Arc::clone(&self.shuffles);
        let agg = Arc::clone(&self.agg);
        let shuffle_id = self.shuffle_id;
        let num_reduces = self.num_reduces;
        Arc::new(move || {
            let data = parent.compute(part)?;
            // map-side combine: one combiner per key in this partition
            let mut combined: std::collections::HashMap<K, C> = std::collections::HashMap::new();
            for (k, v) in data {
                match combined.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        (agg.merge_value)(e.get_mut(), v)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((agg.create)(v));
                    }
                }
            }
            let records = combined.len() as u64;
            let bytes = records * std::mem::size_of::<(K, C)>() as u64;
            let mut buckets: Vec<Vec<(K, C)>> = vec![Vec::new(); num_reduces];
            for (k, c) in combined {
                buckets[hash_partition(&k, num_reduces)].push((k, c));
            }
            let buckets: Vec<Bucket> = buckets.into_iter().map(|b| Arc::new(b) as Bucket).collect();
            shuffles.put_map_output(shuffle_id, part, executor, buckets, records, bytes);
            Ok(TaskOutput::Unit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partition_is_stable_and_in_range() {
        for k in 0..100u32 {
            let p = hash_partition(&k, 7);
            assert!(p < 7);
            assert_eq!(p, hash_partition(&k, 7));
        }
    }

    #[test]
    fn hash_partition_spreads_keys() {
        let mut counts = vec![0usize; 4];
        for k in 0..1000u32 {
            counts[hash_partition(&k, 4)] += 1;
        }
        for c in counts {
            assert!(c > 150, "partition badly unbalanced: {c}");
        }
    }
}
