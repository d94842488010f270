//! The repository's benchmark: the DFS-to-labels DBSCAN job, timed end
//! to end at 2 workers and at 1, with a per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <c100k-p2|d2-p128> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run first measures `peak_rss_mb` on
//! one single-worker job in the still-fresh process (see
//! [`memory_probe`]). Set-up (repeated, median reported as `setup_s`)
//! then generates the points from `--seed`, writes them as CSV into a
//! mini-DFS, computes the `SequentialDbscan` reference and runs one
//! warm-up job. Then jobs run in a closed loop, one at a time,
//! alternating a 2-worker and a 1-worker context, for `--seconds`; every
//! job is checked against the reference. `job_s` and `job_1w_s` are the
//! fastest job of each kind (interleaved best-of-N): on a shared 2-vCPU
//! host a fixed compute loop swings by up to 45% in phases of seconds to
//! minutes, and per-run medians of one seed spread by 15% where the
//! fastest job spread by 3 to 7%. With `--trace 1` a per-layer pass
//! follows (see `layers.rs`). Every run ends with the brute-force
//! self-check on a scaled-down copy of the workload (see `oracle.rs`).
//!
//! The last line of standard output is the JSON result; the line before
//! it records the measured environment. The exit code is 0 only when
//! every check passed.

mod layers;
mod oracle;
mod workload;

use dbscan_core::SparkDbscanResult;
use sparklet::{ClusterConfig, Context};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use workload::{check_job, prepare, run_job, Prepared, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed jobs per worker count, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// Worker threads of the measured configuration (capped by the host).
const WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The leaf-scan path the host's CPU selects at run time.
fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// The commit checked out in the working directory, when it is a git
/// checkout; read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.into() };
    if let Some(hash) = read(name) {
        return hash.trim().into();
    }
    read("packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the program's sources, identifying the code measured
/// when the working directory is not a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for dir in ["src", "crates", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Reset the kernel's peak-resident-set counter of this process to its
/// current resident set (Linux `clear_refs` code 5), so the next
/// [`peak_rss_mib`] covers only what runs after this call.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// The kernel's peak resident set of this process (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hand the allocator's cached free pages back to the OS.
fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and may be called at any
    // time from any thread.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set in MiB of one single-worker job, run before any
/// other so that every run starts it from the same heap: behind the
/// set-ups and timed jobs, the allocator's leftovers moved the peak of
/// one `d2-p128` job between 229 and 342 MiB across runs. One worker,
/// because per-thread allocator arenas made two-worker peaks vary more.
fn memory_probe(w: &Workload) -> Result<f64, String> {
    let prep = prepare(w)?;
    let ctx = Context::new(ClusterConfig::local(1));
    trim_heap();
    reset_peak_rss()?;
    let (_, r) = run_job(w, &prep.dfs, &ctx, 1)?;
    let peak = peak_rss_mib()?;
    check_job(w, &prep.reference, &r)?;
    Ok(peak)
}

/// What one set-up leaves for the measurement.
struct Setup {
    prep: Prepared,
    ctx_w: Context,
    ctx_1: Context,
}

fn setup(w: &Workload, workers: usize) -> Result<Setup, String> {
    let prep = prepare(w)?;
    let ctx_w = Context::new(ClusterConfig::local(workers));
    let ctx_1 = Context::new(ClusterConfig::local(1));
    // a job on fresh contexts runs slower than the steady state (the
    // first of a process about 60% slower)
    let (_, warm) = run_job(w, &prep.dfs, &ctx_w, workers)?;
    check_job(w, &prep.reference, &warm).map_err(|e| format!("warm-up job: {e}"))?;
    Ok(Setup { prep, ctx_w, ctx_1 })
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn json_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &layers::Metrics,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    // SparkDbscan::new and the kernel read DBSCAN_* variables; the
    // measured configuration is the explicit one in workload::resources
    let set: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("DBSCAN_")).collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        std::process::exit(2);
    }
    // the engine's spill stores live under the temp dir: keep them in
    // the working directory
    let tmp = Path::new(".bench_build").join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", tmp.canonicalize().unwrap_or(tmp.clone()));

    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = WORKERS.min(nproc);
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"workers\": {workers}, \"kernel_path\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}}}",
        w.name,
        args.seed,
        kernel_path(),
        commit(),
        source_digest()
    );

    let (correct, attempted, failed, metrics) = run(&w, &args, workers);
    println!("{}", json_result(correct, attempted, failed, &metrics));
    let _ = std::fs::remove_dir(&tmp);
    std::process::exit(if correct { 0 } else { 1 });
}

/// The whole measurement: `(correct, attempted, failed, metrics)`.
fn run(w: &Workload, args: &Args, workers: usize) -> (bool, usize, usize, layers::Metrics) {
    let fail = |e: String| {
        eprintln!("perfbench: {e}");
        (false, 1, 1, Vec::new())
    };

    let mut attempted = 0;
    let peak_rss = if args.trace {
        None
    } else {
        attempted += 1;
        match guarded(|| memory_probe(w)) {
            Ok(mib) => Some(mib),
            Err(e) => return fail(format!("memory job: {e}")),
        }
    };

    // ---- set-up, repeated ----
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut current = None;
    for _ in 0..SETUP_REPEATS {
        drop(current.take());
        let t = Instant::now();
        match guarded(|| setup(w, workers)) {
            Ok(s) => current = Some(s),
            Err(e) => return fail(format!("set-up: {e}")),
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Setup { prep, ctx_w, ctx_1 } = current.expect("SETUP_REPEATS > 0");

    // ---- timed jobs: closed loop, alternating 2 workers and 1 ----
    let (mut times_w, mut times_1) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let mut last: Option<SparkDbscanResult> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || (failed == 0 && (times_w.len() < MIN_JOBS || times_1.len() < MIN_JOBS))
    {
        for (ctx, threads, multi) in [(&ctx_w, workers, true), (&ctx_1, 1, false)] {
            attempted += 1;
            let outcome = guarded(|| {
                let (s, r) = run_job(w, &prep.dfs, ctx, threads)?;
                check_job(w, &prep.reference, &r)?;
                Ok((s, r))
            });
            match outcome {
                Ok((s, r)) if multi => {
                    times_w.push(s);
                    last = Some(r);
                }
                Ok((s, _)) => times_1.push(s),
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: job on {threads} worker(s) failed: {e}");
                }
            }
        }
    }
    let mut correct = failed == 0;

    let mut metrics: layers::Metrics = Vec::new();
    let fastest = |t: &[f64]| t.iter().cloned().fold(f64::INFINITY, f64::min);
    let job_s = fastest(&times_w);
    if args.trace {
        attempted += 1;
        let layered = match &last {
            Some(untraced) => {
                guarded(|| layers::measure(w, &prep, &ctx_w, workers, untraced, job_s))
            }
            None => Err("no successful job to compare with".into()),
        };
        match layered {
            Ok(m) => metrics = m,
            Err(e) => {
                failed += 1;
                correct = false;
                eprintln!("perfbench: per-layer pass: {e}");
            }
        }
        metrics.push(("error_rate", failed as f64 / attempted as f64, "share"));
    } else if correct {
        metrics.push(("job_s", job_s, "s"));
        metrics.push(("job_1w_s", fastest(&times_1), "s"));
        metrics.push(("setup_s", median(&setup_times), "s"));
        metrics.push(("peak_rss_mb", peak_rss.expect("measured without --trace"), "MiB"));
    }

    attempted += 1;
    if let Err(e) = guarded(|| oracle::self_check(w, workers)) {
        failed += 1;
        correct = false;
        eprintln!("perfbench: brute-force self-check: {e}");
    }
    eprintln!(
        "perfbench: {} seed {}: job times at {workers} workers {times_w:.4?}, at 1 worker {times_1:.4?}, set-up {setup_times:.4?}, peak RSS MiB {peak_rss:.1?}; {failed} failed of {attempted}",
        w.name, args.seed,
    );
    (correct, attempted, failed, metrics)
}
