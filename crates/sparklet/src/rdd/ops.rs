//! Narrow operator nodes.

use super::{AnyRdd, Parent, RddNode};
use crate::storage::CacheManager;
use crate::task::current_executor;
use crate::Data;
use std::sync::Arc;

/// Source RDD over driver-provided data, sliced into partitions.
pub(crate) struct ParallelRdd<T> {
    pub id: usize,
    pub data: Arc<Vec<T>>,
    pub num_partitions: usize,
}

impl<T> ParallelRdd<T> {
    /// Element range of a partition: contiguous, balanced slices.
    fn slice(&self, part: usize) -> (usize, usize) {
        let n = self.data.len();
        let p = self.num_partitions;
        let start = part * n / p;
        let end = (part + 1) * n / p;
        (start, end)
    }
}

impl<T: Data> AnyRdd for ParallelRdd<T> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn parents(&self) -> Vec<Parent> {
        Vec::new()
    }
}

impl<T: Data> RddNode for ParallelRdd<T> {
    type Item = T;

    fn compute(&self, part: usize) -> Result<Vec<T>, crate::task::TaskError> {
        let (a, b) = self.slice(part);
        Ok(self.data[a..b].to_vec())
    }
}

/// Source RDD of a contiguous `u64` range — how the DBSCAN driver hands
/// each executor its index range.
pub(crate) struct RangeRdd {
    pub id: usize,
    pub start: u64,
    pub end: u64,
    pub num_partitions: usize,
}

impl AnyRdd for RangeRdd {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn parents(&self) -> Vec<Parent> {
        Vec::new()
    }
}

impl RddNode for RangeRdd {
    type Item = u64;

    fn compute(&self, part: usize) -> Result<Vec<u64>, crate::task::TaskError> {
        let n = self.end.saturating_sub(self.start);
        let p = self.num_partitions as u64;
        let a = self.start + (part as u64) * n / p;
        let b = self.start + (part as u64 + 1) * n / p;
        Ok((a..b).collect())
    }
}

/// `map` node.
pub(crate) struct MapRdd<T, U> {
    pub id: usize,
    pub prev: Arc<dyn RddNode<Item = T>>,
    pub f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Data, U: Data> AnyRdd for MapRdd<T, U> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.prev.clone())]
    }
}

impl<T: Data, U: Data> RddNode for MapRdd<T, U> {
    type Item = U;

    fn compute(&self, part: usize) -> Result<Vec<U>, crate::task::TaskError> {
        Ok(self.prev.compute(part)?.into_iter().map(|t| (self.f)(t)).collect())
    }
}

/// `filter` node.
pub(crate) struct FilterRdd<T> {
    pub id: usize,
    pub prev: Arc<dyn RddNode<Item = T>>,
    pub f: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Data> AnyRdd for FilterRdd<T> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.prev.clone())]
    }
}

impl<T: Data> RddNode for FilterRdd<T> {
    type Item = T;

    fn compute(&self, part: usize) -> Result<Vec<T>, crate::task::TaskError> {
        Ok(self.prev.compute(part)?.into_iter().filter(|t| (self.f)(t)).collect())
    }
}

/// `flat_map` node.
pub(crate) struct FlatMapRdd<T, U> {
    pub id: usize,
    pub prev: Arc<dyn RddNode<Item = T>>,
    pub f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> AnyRdd for FlatMapRdd<T, U> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.prev.clone())]
    }
}

impl<T: Data, U: Data> RddNode for FlatMapRdd<T, U> {
    type Item = U;

    fn compute(&self, part: usize) -> Result<Vec<U>, crate::task::TaskError> {
        Ok(self.prev.compute(part)?.into_iter().flat_map(|t| (self.f)(t)).collect())
    }
}

/// `union` node: partitions of `second` are appended after `first`'s.
pub(crate) struct UnionRdd<T> {
    pub id: usize,
    pub first: Arc<dyn RddNode<Item = T>>,
    pub second: Arc<dyn RddNode<Item = T>>,
}

impl<T: Data> AnyRdd for UnionRdd<T> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.first.num_partitions() + self.second.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.first.clone()), Parent::Narrow(self.second.clone())]
    }
}

impl<T: Data> RddNode for UnionRdd<T> {
    type Item = T;

    fn compute(&self, part: usize) -> Result<Vec<T>, crate::task::TaskError> {
        let nf = self.first.num_partitions();
        if part < nf {
            self.first.compute(part)
        } else {
            self.second.compute(part - nf)
        }
    }
}

/// Pass-through node carrying per-partition working-set hints for the
/// scheduler's memory reservations (see [`super::Rdd::mem_hints`]).
pub(crate) struct MemHintRdd<T> {
    pub id: usize,
    pub prev: Arc<dyn RddNode<Item = T>>,
    pub hints: Arc<Vec<u64>>,
}

impl<T: Data> AnyRdd for MemHintRdd<T> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.prev.clone())]
    }

    fn mem_hint(&self, part: usize) -> u64 {
        self.hints.get(part).copied().unwrap_or(0)
    }
}

impl<T: Data> RddNode for MemHintRdd<T> {
    type Item = T;

    fn compute(&self, part: usize) -> Result<Vec<T>, crate::task::TaskError> {
        self.prev.compute(part)
    }
}

/// Caching node: first computation stores the partition in the memory
/// store tagged with the computing executor; later computations reuse it.
/// Under memory pressure the entry is evicted and recomputed from
/// lineage.
pub(crate) struct CachedRdd<T> {
    pub id: usize,
    pub prev: Arc<dyn RddNode<Item = T>>,
    pub cache: Arc<CacheManager>,
}

impl<T: Data> AnyRdd for CachedRdd<T> {
    fn rdd_id(&self) -> usize {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.prev.num_partitions()
    }

    fn parents(&self) -> Vec<Parent> {
        vec![Parent::Narrow(self.prev.clone())]
    }
}

impl<T: Data> RddNode for CachedRdd<T> {
    type Item = T;

    fn compute(&self, part: usize) -> Result<Vec<T>, crate::task::TaskError> {
        if let Some(hit) = self.cache.get(self.id, part) {
            let data = hit.downcast_ref::<Vec<T>>().expect("cached partition type");
            return Ok(data.clone());
        }
        let data = self.prev.compute(part)?;
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        // a refused put (budget full, nothing evictable) just means the
        // partition stays uncached; later uses recompute from lineage
        let _ = self.cache.put(self.id, part, current_executor(), Arc::new(data.clone()), bytes);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parallel(data: Vec<i64>, parts: usize) -> Arc<ParallelRdd<i64>> {
        Arc::new(ParallelRdd { id: 0, data: Arc::new(data), num_partitions: parts })
    }

    #[test]
    fn parallel_slices_are_balanced_and_complete() {
        let r = parallel((0..10).collect(), 3);
        let all: Vec<i64> = (0..3).flat_map(|p| r.compute(p).unwrap()).collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // sizes are 3,3,4 (or similar balanced split)
        let sizes: Vec<usize> = (0..3).map(|p| r.compute(p).unwrap().len()).collect();
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn parallel_more_partitions_than_elements() {
        let r = parallel(vec![1, 2], 5);
        let total: usize = (0..5).map(|p| r.compute(p).unwrap().len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn range_partitions_cover_range() {
        let r = RangeRdd { id: 0, start: 10, end: 30, num_partitions: 4 };
        let all: Vec<u64> = (0..4).flat_map(|p| r.compute(p).unwrap()).collect();
        assert_eq!(all, (10..30).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range() {
        let r = RangeRdd { id: 0, start: 5, end: 5, num_partitions: 2 };
        assert!(r.compute(0).unwrap().is_empty());
        assert!(r.compute(1).unwrap().is_empty());
    }

    #[test]
    fn map_and_filter_compose() {
        let base = parallel((0..8).collect(), 2);
        let mapped = Arc::new(MapRdd { id: 1, prev: base, f: Arc::new(|x: i64| x * 2) });
        let filtered = FilterRdd { id: 2, prev: mapped, f: Arc::new(|x: &i64| *x % 4 == 0) };
        assert_eq!(filtered.compute(0).unwrap(), vec![0, 4]);
        assert_eq!(filtered.compute(1).unwrap(), vec![8, 12]);
    }

    #[test]
    fn union_routes_partitions() {
        let a = parallel(vec![1, 2], 1);
        let b = parallel(vec![3, 4], 2);
        let u = UnionRdd { id: 3, first: a, second: b };
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.compute(0).unwrap(), vec![1, 2]);
        assert_eq!(u.compute(1).unwrap(), vec![3]);
        assert_eq!(u.compute(2).unwrap(), vec![4]);
    }

    #[test]
    fn cached_rdd_computes_once() {
        let cache = Arc::new(CacheManager::new(crate::storage::CacheConfig::unbounded()));
        let base = parallel(vec![5, 6, 7], 1);
        let c = CachedRdd { id: 9, prev: base, cache: Arc::clone(&cache) };
        assert_eq!(c.compute(0).unwrap(), vec![5, 6, 7]);
        assert_eq!(cache.len(), 1);
        assert_eq!(c.compute(0).unwrap(), vec![5, 6, 7]);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn mem_hint_rdd_is_pass_through_with_hints() {
        let base = parallel((0..6).collect(), 3);
        let h = MemHintRdd { id: 1, prev: base, hints: Arc::new(vec![64, 128]) };
        assert_eq!(h.compute(0).unwrap(), vec![0, 1]);
        assert_eq!(h.mem_hint(0), 64);
        assert_eq!(h.mem_hint(1), 128);
        // partitions past the hint vector reserve nothing
        assert_eq!(h.mem_hint(2), 0);
    }
}
