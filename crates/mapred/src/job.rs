//! The job runner: map phase → (disk) shuffle → sort/merge → reduce.

use crate::config::JobConfig;
use crate::counters::Counters;
use crate::emitter::Emitter;
use crate::error::{MrError, MrResult};
use crate::spill::{group_sorted, merge_sorted_runs, read_spill, spill_path, write_spill};
use crate::traits::{Combiner, Mapper, Reducer};
use parking_lot::Mutex;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseMetrics {
    /// Map phase (including partition/sort/spill).
    pub map: Duration,
    /// Shuffle reads + merge/sort, summed over reduce tasks.
    pub shuffle_sort: Duration,
    /// Reduce phase wall time.
    pub reduce: Duration,
    /// Whole job.
    pub total: Duration,
    /// Failed map attempts (then retried).
    pub map_retries: usize,
    /// Failed reduce attempts (then retried).
    pub reduce_retries: usize,
}

/// Output of a finished job.
pub struct JobResult<Out> {
    /// Reducer outputs, concatenated in reduce-partition order.
    pub outputs: Vec<Out>,
    /// The job's counters.
    pub counters: Arc<Counters>,
    /// Phase timings.
    pub metrics: PhaseMetrics,
    /// Busy time of each successful map task (feeds makespan
    /// simulation for core counts beyond the host's).
    pub map_task_times: Vec<Duration>,
    /// Busy time of each successful reduce task (including its shuffle
    /// reads).
    pub reduce_task_times: Vec<Duration>,
}

static JOB_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Type-erased map-side combiner hook.
type CombineFn<K, V> = Arc<dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync>;

/// A configured MapReduce job, ready to run on input splits.
pub struct MapReduceJob<M, R>
where
    M: Mapper,
{
    mapper: Arc<M>,
    reducer: Arc<R>,
    combiner: Option<CombineFn<M::KOut, M::VOut>>,
    config: JobConfig,
}

impl<M, R> MapReduceJob<M, R>
where
    M: Mapper + 'static,
    R: Reducer<KIn = M::KOut, VIn = M::VOut> + 'static,
{
    /// Assemble a job.
    pub fn new(mapper: M, reducer: R, config: JobConfig) -> Self {
        MapReduceJob {
            mapper: Arc::new(mapper),
            reducer: Arc::new(reducer),
            combiner: None,
            config,
        }
    }

    /// Install a map-side combiner (Hadoop's `setCombinerClass`): each
    /// map task folds its values per key before spilling, shrinking
    /// intermediate files and shuffle reads.
    pub fn with_combiner<C>(mut self, combiner: C) -> Self
    where
        C: Combiner<K = M::KOut, V = M::VOut> + 'static,
    {
        let c = Arc::new(combiner);
        self.combiner = Some(Arc::new(move |k: &M::KOut, vs| c.combine(k, vs)));
        self
    }

    /// Run over pre-formed input splits (one map task per split).
    pub fn run(&self, splits: Vec<Vec<M::In>>) -> MrResult<JobResult<R::Out>> {
        let job_start = Instant::now();
        let counters = Arc::new(Counters::new());
        let num_maps = splits.len();
        let num_reduces = self.config.num_reducers.max(1);

        let job_dir = self.config.spill_root.join(format!(
            "mapred-job-{}-{}",
            std::process::id(),
            JOB_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&job_dir)?;
        let result = self.run_inner(splits, num_maps, num_reduces, &job_dir, &counters, job_start);
        // always clean the intermediate files, like a finished Hadoop job
        let _ = std::fs::remove_dir_all(&job_dir);
        result
    }

    fn run_inner(
        &self,
        splits: Vec<Vec<M::In>>,
        num_maps: usize,
        num_reduces: usize,
        job_dir: &Path,
        counters: &Arc<Counters>,
        job_start: Instant,
    ) -> MrResult<JobResult<R::Out>> {
        // ---------------- map phase ----------------
        let map_start = Instant::now();
        let splits = Arc::new(splits);
        let next_map = AtomicUsize::new(0);
        let map_error: Mutex<Option<MrError>> = Mutex::new(None);
        let map_retries = AtomicUsize::new(0);
        let map_task_times: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..self.config.map_slots.max(1) {
                scope.spawn(|| loop {
                    let task = next_map.fetch_add(1, Ordering::Relaxed);
                    if task >= num_maps || map_error.lock().is_some() {
                        return;
                    }
                    let mut attempt = 0;
                    loop {
                        let attempt_start = Instant::now();
                        match self.try_map_task(
                            task,
                            attempt,
                            &splits[task],
                            num_reduces,
                            job_dir,
                            counters,
                        ) {
                            Ok(()) => {
                                map_task_times.lock().push(attempt_start.elapsed());
                                break;
                            }
                            Err(msg) => {
                                map_retries.fetch_add(1, Ordering::Relaxed);
                                attempt += 1;
                                if attempt >= self.config.max_task_attempts {
                                    *map_error.lock() = Some(MrError::TaskFailed {
                                        phase: "map",
                                        task,
                                        attempts: attempt,
                                        message: msg,
                                    });
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = map_error.into_inner() {
            return Err(e);
        }
        let map_time = map_start.elapsed();

        // ---------------- shuffle + reduce phase ----------------
        let reduce_start = Instant::now();
        let next_reduce = AtomicUsize::new(0);
        let reduce_error: Mutex<Option<MrError>> = Mutex::new(None);
        let reduce_retries = AtomicUsize::new(0);
        let shuffle_nanos = AtomicU64::new(0);
        let reduce_task_times: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
        let outputs: Mutex<Vec<Option<Vec<R::Out>>>> =
            Mutex::new((0..num_reduces).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..self.config.reduce_slots.max(1) {
                scope.spawn(|| loop {
                    let part = next_reduce.fetch_add(1, Ordering::Relaxed);
                    if part >= num_reduces || reduce_error.lock().is_some() {
                        return;
                    }
                    let mut attempt = 0;
                    loop {
                        let attempt_start = Instant::now();
                        match self.try_reduce_task(
                            part,
                            attempt,
                            num_maps,
                            job_dir,
                            counters,
                            &shuffle_nanos,
                        ) {
                            Ok(out) => {
                                reduce_task_times.lock().push(attempt_start.elapsed());
                                outputs.lock()[part] = Some(out);
                                break;
                            }
                            Err(msg) => {
                                reduce_retries.fetch_add(1, Ordering::Relaxed);
                                attempt += 1;
                                if attempt >= self.config.max_task_attempts {
                                    *reduce_error.lock() = Some(MrError::TaskFailed {
                                        phase: "reduce",
                                        task: part,
                                        attempts: attempt,
                                        message: msg,
                                    });
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = reduce_error.into_inner() {
            return Err(e);
        }
        let reduce_time = reduce_start.elapsed();

        let outputs: Vec<R::Out> = outputs
            .into_inner()
            .into_iter()
            .flat_map(|o| o.expect("all reduce partitions completed"))
            .collect();

        Ok(JobResult {
            outputs,
            counters: Arc::clone(counters),
            metrics: PhaseMetrics {
                map: map_time,
                shuffle_sort: Duration::from_nanos(shuffle_nanos.load(Ordering::Relaxed)),
                reduce: reduce_time,
                total: job_start.elapsed(),
                map_retries: map_retries.load(Ordering::Relaxed),
                reduce_retries: reduce_retries.load(Ordering::Relaxed),
            },
            map_task_times: map_task_times.into_inner(),
            reduce_task_times: reduce_task_times.into_inner(),
        })
    }

    /// One map attempt: run the mapper, partition, sort, spill to disk.
    fn try_map_task(
        &self,
        task: usize,
        attempt: usize,
        split: &[M::In],
        num_reduces: usize,
        job_dir: &Path,
        counters: &Counters,
    ) -> Result<(), String> {
        if self.config.should_fail(0, task, attempt) {
            return Err(format!("injected map failure (task {task} attempt {attempt})"));
        }
        let mapper = Arc::clone(&self.mapper);
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            let mut emitter = Emitter::new();
            for record in split {
                counters.add(&counters.map_input_records, 1);
                mapper.map(record.clone(), &mut emitter, counters);
            }
            let mut pairs = emitter.into_pairs();
            counters.add(&counters.map_output_records, pairs.len() as u64);
            if let Some(combine) = &self.combiner {
                // map-side combine: sort, group per key, fold
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                let mut combined = Vec::with_capacity(pairs.len());
                for (k, vs) in group_sorted(pairs) {
                    for v in combine(&k, vs) {
                        combined.push((k.clone(), v));
                    }
                }
                pairs = combined;
                counters.add(&counters.combined_records, pairs.len() as u64);
            }

            // partition by key hash, sort each bucket, spill to disk
            let hasher = BuildHasherDefault::<DefaultHasher>::default();
            let mut buckets: Vec<Vec<(M::KOut, M::VOut)>> = vec![Vec::new(); num_reduces];
            for (k, v) in pairs {
                let b = (hasher.hash_one(&k) % num_reduces as u64) as usize;
                buckets[b].push((k, v));
            }
            for (r, mut bucket) in buckets.into_iter().enumerate() {
                bucket.sort_by(|a, b| a.0.cmp(&b.0));
                write_spill(&spill_path(job_dir, task, r), &bucket, counters)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        }));
        match run {
            Ok(r) => r,
            Err(_) => Err("map task panicked".to_string()),
        }
    }

    /// One reduce attempt: fetch spills, merge, group, reduce.
    #[allow(clippy::too_many_arguments)]
    fn try_reduce_task(
        &self,
        part: usize,
        attempt: usize,
        num_maps: usize,
        job_dir: &Path,
        counters: &Counters,
        shuffle_nanos: &AtomicU64,
    ) -> Result<Vec<R::Out>, String> {
        if self.config.should_fail(1, part, attempt) {
            return Err(format!("injected reduce failure (part {part} attempt {attempt})"));
        }
        let reducer = Arc::clone(&self.reducer);
        let fetch_latency = self.config.fetch_latency;
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<R::Out>, String> {
            let shuffle_start = Instant::now();
            let mut runs: Vec<Vec<(R::KIn, R::VIn)>> = Vec::with_capacity(num_maps);
            for m in 0..num_maps {
                if !fetch_latency.is_zero() {
                    std::thread::sleep(fetch_latency);
                }
                runs.push(
                    read_spill(&spill_path(job_dir, m, part), counters)
                        .map_err(|e| e.to_string())?,
                );
            }
            let merged = merge_sorted_runs(runs);
            let groups = group_sorted(merged);
            shuffle_nanos.fetch_add(shuffle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);

            let mut out = Vec::new();
            for (k, vs) in groups {
                counters.add(&counters.reduce_input_groups, 1);
                reducer.reduce(k, vs, &mut out, counters);
            }
            counters.add(&counters.reduce_output_records, out.len() as u64);
            Ok(out)
        }));
        match run {
            Ok(r) => r,
            Err(_) => Err("reduce task panicked".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tokenize;

    impl Mapper for Tokenize {
        type In = String;
        type KOut = String;
        type VOut = u64;

        fn map(&self, record: String, emit: &mut Emitter<String, u64>, _c: &Counters) {
            for w in record.split_whitespace() {
                emit.emit(w.to_string(), 1);
            }
        }
    }

    struct Sum;

    impl Reducer for Sum {
        type KIn = String;
        type VIn = u64;
        type Out = (String, u64);

        fn reduce(
            &self,
            key: String,
            values: Vec<u64>,
            out: &mut Vec<(String, u64)>,
            _c: &Counters,
        ) {
            out.push((key, values.iter().sum()));
        }
    }

    fn wordcount(splits: Vec<Vec<String>>, cfg: JobConfig) -> JobResult<(String, u64)> {
        MapReduceJob::new(Tokenize, Sum, cfg).run(splits).unwrap()
    }

    fn splits_of(text: &[&str], n: usize) -> Vec<Vec<String>> {
        let lines: Vec<String> = text.iter().map(|s| s.to_string()).collect();
        let chunk = lines.len().div_ceil(n.max(1)).max(1);
        lines.chunks(chunk).map(|c| c.to_vec()).collect()
    }

    #[test]
    fn wordcount_end_to_end() {
        let r = wordcount(splits_of(&["a b a", "c b", "a"], 2), JobConfig::with_slots(2));
        let mut out = r.outputs;
        out.sort_unstable();
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(r.counters.map_input_records.load(Ordering::Relaxed), 3);
        assert_eq!(r.counters.map_output_records.load(Ordering::Relaxed), 6);
        assert!(r.counters.spilled_bytes.load(Ordering::Relaxed) > 0, "intermediates hit disk");
        assert!(r.counters.shuffled_bytes.load(Ordering::Relaxed) > 0, "reducers read disk");
        assert_eq!(r.counters.reduce_input_groups.load(Ordering::Relaxed), 3);
        assert!(r.metrics.total >= r.metrics.map);
    }

    #[test]
    fn result_is_independent_of_parallelism_and_reducers() {
        let text = &["x y z", "y z z", "w", "x x x x"];
        let mut base = wordcount(splits_of(text, 1), JobConfig::with_slots(1)).outputs;
        base.sort_unstable();
        for slots in [2, 3, 4] {
            let mut out = wordcount(splits_of(text, slots), JobConfig::with_slots(slots)).outputs;
            out.sort_unstable();
            assert_eq!(out, base, "slots={slots}");
        }
    }

    #[test]
    fn empty_input_runs_fine() {
        let r = wordcount(vec![], JobConfig::with_slots(2));
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn empty_splits_run_fine() {
        let r = wordcount(vec![vec![], vec![]], JobConfig::with_slots(2));
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn injected_failures_are_retried() {
        let cfg = JobConfig::with_slots(2).with_faults(1.0, 1);
        let r = wordcount(splits_of(&["a a", "b"], 2), cfg);
        let mut out = r.outputs;
        out.sort_unstable();
        assert_eq!(out, vec![("a".into(), 2), ("b".into(), 1)]);
        assert!(r.metrics.map_retries >= 2, "every map's first attempt failed");
        assert!(r.metrics.reduce_retries >= 1);
    }

    #[test]
    fn exhausted_retries_abort_job() {
        let cfg =
            JobConfig { max_task_attempts: 2, ..JobConfig::with_slots(1).with_faults(1.0, 10) };
        let err = MapReduceJob::new(Tokenize, Sum, cfg)
            .run(splits_of(&["a"], 1))
            .err()
            .expect("job must fail");
        assert!(matches!(err, MrError::TaskFailed { phase: "map", .. }));
    }

    struct PanickyMapper;

    impl Mapper for PanickyMapper {
        type In = String;
        type KOut = String;
        type VOut = u64;

        fn map(&self, _r: String, _e: &mut Emitter<String, u64>, _c: &Counters) {
            panic!("mapper bug");
        }
    }

    #[test]
    fn mapper_panic_is_task_failure_not_crash() {
        let cfg = JobConfig { max_task_attempts: 2, ..JobConfig::with_slots(1) };
        let err = MapReduceJob::new(PanickyMapper, Sum, cfg)
            .run(vec![vec!["x".to_string()]])
            .err()
            .expect("job must fail");
        match err {
            MrError::TaskFailed { message, .. } => assert!(message.contains("panicked")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spill_dir_is_cleaned_up() {
        // a spill root of its own: concurrent tests' jobs spill to the
        // shared temp dir and must not be counted
        let root = std::env::temp_dir().join(format!("mapred-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let _ = wordcount(splits_of(&["a b"], 1), JobConfig::with_slots(1).spill_root(&root));
        let left = std::fs::read_dir(&root).unwrap().count();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(left, 0, "job directory removed after completion");
    }

    #[test]
    fn fetch_latency_slows_shuffle() {
        let fast = wordcount(splits_of(&["a b c d"], 2), JobConfig::with_slots(2));
        let slow = wordcount(
            splits_of(&["a b c d"], 2),
            JobConfig::with_slots(2).fetch_latency(Duration::from_millis(5)),
        );
        assert!(slow.metrics.shuffle_sort > fast.metrics.shuffle_sort);
    }

    #[test]
    fn values_arrive_grouped_per_key() {
        struct CollectAll;
        impl Reducer for CollectAll {
            type KIn = String;
            type VIn = u64;
            type Out = (String, Vec<u64>);

            fn reduce(&self, k: String, vs: Vec<u64>, out: &mut Vec<Self::Out>, _c: &Counters) {
                out.push((k, vs));
            }
        }
        let r = MapReduceJob::new(Tokenize, CollectAll, JobConfig::with_slots(3))
            .run(splits_of(&["k k", "k"], 3))
            .unwrap();
        assert_eq!(r.outputs.len(), 1, "one group for the single key");
        assert_eq!(r.outputs[0].1.len(), 3);
    }
}

#[cfg(test)]
mod combiner_tests {
    use super::*;

    struct Tokenize;

    impl Mapper for Tokenize {
        type In = String;
        type KOut = String;
        type VOut = u64;

        fn map(&self, record: String, emit: &mut Emitter<String, u64>, _c: &Counters) {
            for w in record.split_whitespace() {
                emit.emit(w.to_string(), 1);
            }
        }
    }

    struct Sum;

    impl Reducer for Sum {
        type KIn = String;
        type VIn = u64;
        type Out = (String, u64);

        fn reduce(
            &self,
            key: String,
            values: Vec<u64>,
            out: &mut Vec<(String, u64)>,
            _c: &Counters,
        ) {
            out.push((key, values.iter().sum()));
        }
    }

    struct SumCombiner;

    impl Combiner for SumCombiner {
        type K = String;
        type V = u64;

        fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }
    }

    fn splits() -> Vec<Vec<String>> {
        vec![vec!["a a a b".to_string(), "a b".to_string()], vec!["b b b a".to_string()]]
    }

    #[test]
    fn combiner_preserves_results() {
        let plain =
            MapReduceJob::new(Tokenize, Sum, JobConfig::with_slots(2)).run(splits()).unwrap();
        let combined = MapReduceJob::new(Tokenize, Sum, JobConfig::with_slots(2))
            .with_combiner(SumCombiner)
            .run(splits())
            .unwrap();
        let sort = |mut v: Vec<(String, u64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sort(plain.outputs), sort(combined.outputs));
    }

    #[test]
    fn combiner_shrinks_spilled_data() {
        let plain =
            MapReduceJob::new(Tokenize, Sum, JobConfig::with_slots(2)).run(splits()).unwrap();
        let combined = MapReduceJob::new(Tokenize, Sum, JobConfig::with_slots(2))
            .with_combiner(SumCombiner)
            .run(splits())
            .unwrap();
        let spilled =
            |r: &JobResult<(String, u64)>| r.counters.spilled_bytes.load(Ordering::Relaxed);
        assert!(
            spilled(&combined) < spilled(&plain),
            "combined {} vs plain {}",
            spilled(&combined),
            spilled(&plain)
        );
        // 10 map-output records fold into 2 keys x 2 map tasks = 4
        assert_eq!(combined.counters.map_output_records.load(Ordering::Relaxed), 10);
        assert_eq!(combined.counters.combined_records.load(Ordering::Relaxed), 4);
        assert_eq!(plain.counters.combined_records.load(Ordering::Relaxed), 0);
    }
}
