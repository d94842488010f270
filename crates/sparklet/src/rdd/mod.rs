//! RDDs: lazy, typed, lineage-tracked distributed collections.
//!
//! An [`Rdd<T>`] is a handle over an operator node; transformations build
//! new nodes without computing anything, and actions (`collect`, `count`,
//! `reduce`, `foreach_partition`, ...) submit a job through the DAG
//! scheduler. Wide operations (`reduce_by_key`, `group_by_key`) insert a
//! shuffle dependency, which the scheduler materializes as a separate
//! stage — exactly the stage-splitting behaviour the paper describes for
//! Spark's DAGScheduler.

pub(crate) mod ops;
pub(crate) mod shuffled;
pub(crate) mod text;

use crate::context::Context;
use crate::error::SparkResult;
use crate::scheduler;
use crate::Data;
use std::hash::Hash;
use std::sync::Arc;

/// A shuffle dependency, type-erased for the scheduler.
pub(crate) trait ShuffleDepObj: Send + Sync {
    /// Unique id of this shuffle.
    fn shuffle_id(&self) -> usize;
    /// The map-side parent RDD.
    fn parent_node(&self) -> Arc<dyn AnyRdd>;
    /// Number of map partitions.
    fn num_maps(&self) -> usize;
    /// Number of reduce partitions.
    fn num_reduces(&self) -> usize;
    /// Build the work of map task `part` bound to `executor`.
    fn make_map_task(&self, part: usize, executor: usize) -> crate::task::TaskWork;
}

/// A parent edge in the lineage graph.
pub(crate) enum Parent {
    /// One-to-one dependency (map, filter, union, ...).
    Narrow(Arc<dyn AnyRdd>),
    /// All-to-all dependency through a shuffle.
    Shuffle(Arc<dyn ShuffleDepObj>),
}

/// Type-erased view of an RDD node, sufficient for scheduling.
pub(crate) trait AnyRdd: Send + Sync {
    /// Unique id of the node.
    fn rdd_id(&self) -> usize;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Lineage edges.
    fn parents(&self) -> Vec<Parent>;
    /// Declared working-set bytes of one partition's task, reserved in
    /// the memory ledger before the task is submitted. Zero
    /// (the default) means "no reservation". Set via [`Rdd::mem_hints`];
    /// the hint lives on the hinted node only, so attach it as the last
    /// transformation before the action.
    fn mem_hint(&self, _part: usize) -> u64 {
        0
    }
}

/// A typed RDD node: the scheduler computes partitions through this.
pub(crate) trait RddNode: AnyRdd {
    /// Element type.
    type Item: Data;
    /// Materialize one partition. Errors become typed task failures:
    /// the scheduler retries generic ones in place and recovers fetch
    /// failures via lineage recomputation.
    fn compute(&self, part: usize) -> Result<Vec<Self::Item>, crate::task::TaskError>;
}

/// A lazy distributed collection of `T`.
pub struct Rdd<T: Data> {
    pub(crate) node: Arc<dyn RddNode<Item = T>>,
    pub(crate) ctx: Context,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd { node: Arc::clone(&self.node), ctx: self.ctx.clone() }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn new(node: Arc<dyn RddNode<Item = T>>, ctx: Context) -> Self {
        Rdd { node, ctx }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    // ---- transformations (lazy) -------------------------------------

    /// Element-wise transformation.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let node = Arc::new(ops::MapRdd {
            id: self.ctx.inner.next_rdd_id(),
            prev: Arc::clone(&self.node),
            f: Arc::new(f),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// Keep elements satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let node = Arc::new(ops::FilterRdd {
            id: self.ctx.inner.next_rdd_id(),
            prev: Arc::clone(&self.node),
            f: Arc::new(f),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// One-to-many transformation.
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        let node = Arc::new(ops::FlatMapRdd {
            id: self.ctx.inner.next_rdd_id(),
            prev: Arc::clone(&self.node),
            f: Arc::new(f),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// Concatenate two RDDs (partitions of `other` follow ours).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let node = Arc::new(ops::UnionRdd {
            id: self.ctx.inner.next_rdd_id(),
            first: Arc::clone(&self.node),
            second: Arc::clone(&other.node),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// Mark this RDD's partitions for in-memory caching: the first
    /// action materializes them, later actions reuse them. Partitions
    /// lost with their executor are recomputed from lineage on next use.
    pub fn cache(&self) -> Rdd<T> {
        let node = Arc::new(ops::CachedRdd {
            id: self.ctx.inner.next_rdd_id(),
            prev: Arc::clone(&self.node),
            cache: Arc::clone(&self.ctx.inner.cache),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// Attach per-partition working-set hints (bytes): before a task for
    /// partition `p` is submitted, the scheduler reserves `hints[p]` in
    /// the memory ledger, released when the attempt ends. The hint
    /// lives on the returned node only — attach it as the last
    /// transformation before the action. Missing entries mean zero (no
    /// reservation).
    pub fn mem_hints(&self, hints: Vec<u64>) -> Rdd<T> {
        let node = Arc::new(ops::MemHintRdd {
            id: self.ctx.inner.next_rdd_id(),
            prev: Arc::clone(&self.node),
            hints: Arc::new(hints),
        });
        Rdd::new(node, self.ctx.clone())
    }

    /// Drop this RDD's cached partitions. Returns how many were evicted.
    /// Only meaningful on a handle returned by [`Rdd::cache`].
    pub fn unpersist(&self) -> usize {
        self.ctx.inner.cache.unpersist(self.node.rdd_id())
    }

    // ---- actions (eager) --------------------------------------------

    /// Materialize every element on the driver, in partition order.
    pub fn collect(&self) -> SparkResult<Vec<T>> {
        let parts = scheduler::run_job(&self.ctx, Arc::clone(&self.node), Arc::new(|_, d| d))?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Count elements.
    pub fn count(&self) -> SparkResult<usize> {
        Ok(self.partition_sizes()?.into_iter().sum())
    }

    /// Per-partition element counts.
    pub fn partition_sizes(&self) -> SparkResult<Vec<usize>> {
        scheduler::run_job(&self.ctx, Arc::clone(&self.node), Arc::new(|_, d: Vec<T>| d.len()))
    }

    /// Reduce all elements with an associative function; `None` if empty.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> SparkResult<Option<T>> {
        let f = Arc::new(f);
        let g = Arc::clone(&f);
        let partials = scheduler::run_job(
            &self.ctx,
            Arc::clone(&self.node),
            Arc::new(move |_, d: Vec<T>| d.into_iter().reduce(|a, b| g(a, b))),
        )?;
        Ok(partials.into_iter().flatten().reduce(|a, b| f(a, b)))
    }

    /// Fold with a zero value (applied per partition, then across
    /// partition results on the driver).
    pub fn fold(&self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> SparkResult<T> {
        let f = Arc::new(f);
        let g = Arc::clone(&f);
        let z = zero.clone();
        let partials = scheduler::run_job(
            &self.ctx,
            Arc::clone(&self.node),
            Arc::new(move |_, d: Vec<T>| d.into_iter().fold(z.clone(), |a, b| g(a, b))),
        )?;
        Ok(partials.into_iter().fold(zero, |a, b| f(a, b)))
    }

    /// First `n` elements in partition order.
    pub fn take(&self, n: usize) -> SparkResult<Vec<T>> {
        // simple implementation: collect then truncate (fine at our scale)
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// Run `f` once per partition on the executors — the paper's
    /// `foreach` closure (Algorithm 2, lines 4–29). Combined with an
    /// accumulator this is how partial clusters travel to the driver.
    pub fn foreach_partition(
        &self,
        f: impl Fn(usize, Vec<T>) + Send + Sync + 'static,
    ) -> SparkResult<()> {
        let f = Arc::new(f);
        scheduler::run_job(
            &self.ctx,
            Arc::clone(&self.node),
            Arc::new(move |p, d: Vec<T>| f(p, d)),
        )?;
        Ok(())
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Generic shuffle: build per-key combiners across all partitions.
    pub fn combine_by_key<C: Data>(
        &self,
        num_partitions: usize,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(&mut C, V) + Send + Sync + 'static,
        merge_combiners: impl Fn(&mut C, C) + Send + Sync + 'static,
    ) -> Rdd<(K, C)> {
        let node = shuffled::ShuffledRdd::create(
            &self.ctx,
            Arc::clone(&self.node),
            num_partitions,
            create,
            merge_value,
            merge_combiners,
        );
        Rdd::new(node, self.ctx.clone())
    }

    /// Merge values per key with an associative function (wide — incurs
    /// a shuffle, which the engine accounts).
    pub fn reduce_by_key(
        &self,
        num_partitions: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        let f = Arc::new(f);
        let f2 = Arc::clone(&f);
        self.combine_by_key(
            num_partitions,
            |v| v,
            move |c, v| {
                let old = c.clone();
                *c = f(old, v);
            },
            move |c, v| {
                let old = c.clone();
                *c = f2(old, v);
            },
        )
    }

    /// Group all values per key (wide — incurs a shuffle).
    pub fn group_by_key(&self, num_partitions: usize) -> Rdd<(K, Vec<V>)> {
        self.combine_by_key(
            num_partitions,
            |v| vec![v],
            |c, v| c.push(v),
            |c, mut v| c.append(&mut v),
        )
    }
}
