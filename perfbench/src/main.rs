//! The repository benchmark: three NuPS workloads, each a closed loop of
//! 2 worker threads driven through `run_epoch`, repeated (fresh parameter
//! server each time) until `--seconds` have passed.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload drift-tcp|kge-local|drift-adaptive-sim --seed N --seconds S --trace 0|1
//! ```
//!
//! Every repetition checks its output (the drift workloads compare every
//! key of the final model with its closed form, KGE checks loss and MRR);
//! a repetition that fails a check, times out in finalize or wedges
//! counts all of its ops as failed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it say how the numbers were obtained.
//!
//! `--trace 1` alternates untraced and traced repetitions: the traced
//! ones record one span per call into the parameter server, parented to
//! its step, and the first traced repetition's spans are written as
//! Chrome-trace JSON to `perfbench/out/`.

mod drift;
mod kge;
mod rep;
mod span;
mod stats;
mod timed;
mod watchdog;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nups_sim::topology::Topology;

use crate::drift::DriftPlan;
use crate::kge::KgeInputs;
use crate::rep::{Rep, Value};
use crate::stats::{median, Tally};
use crate::watchdog::Watchdog;

/// Spans kept per traced worker for the Chrome-trace export.
pub const SPAN_CAP: usize = 10_000;

/// A repetition that has not finished after this long has wedged.
const REP_BUDGET: Duration = Duration::from_secs(60);

/// End-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("keys_per_s", "keys/s"),
    ("samples_per_s", "samples/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("virtual_s", "s"),
    ("virtual_op_mean_us", "us"),
    ("setup_s", "s"),
];

/// Printed with the end-to-end metrics but not part of the result: on the
/// TCP workload the op p99 moves with host scheduling hiccups by 20% or
/// more between runs, where p95 moves by 6%.
const REPORTED_ONLY: [(&str, &str); 1] = [("op_p99_us", "us")];

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_share") || name.ends_with("_per_write") {
        "ratio"
    } else if name.ends_with("bytes_per_key") {
        "bytes/key"
    } else if name.ends_with("_per_key") {
        "1/key"
    } else if name.ends_with("bytes") {
        "bytes"
    } else {
        "count"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DriftTcp,
    KgeLocal,
    DriftAdaptiveSim,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::DriftTcp, Workload::KgeLocal, Workload::DriftAdaptiveSim];

    fn name(self) -> &'static str {
        match self {
            Workload::DriftTcp => "drift-tcp",
            Workload::KgeLocal => "kge-local",
            Workload::DriftAdaptiveSim => "drift-adaptive-sim",
        }
    }

    fn topology(self) -> &'static str {
        match self {
            Workload::DriftTcp => {
                "2 nodes x 1 worker, one thread per node, TCP loopback, wall clock"
            }
            Workload::KgeLocal => "1 node x 2 workers, in-process, wall clock",
            Workload::DriftAdaptiveSim => "2 nodes x 1 worker, in-process, virtual time",
        }
    }

    fn check(self) -> &'static str {
        match self {
            Workload::KgeLocal => "training loss finite and filtered MRR above the floor",
            _ => "final model equals init + push count on every key",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Threads of this process right now (0 where `/proc` is unavailable).
pub fn threads_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:").and_then(|n| n.trim().parse().ok()))
        })
        .unwrap_or(0)
}

/// The generated inputs of one workload.
enum Inputs {
    Drift { plan: DriftPlan, want: Vec<Vec<u32>> },
    Kge(KgeInputs),
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::DriftTcp | Workload::DriftAdaptiveSim => {
                let plan = DriftPlan::standard(seed, Topology::new(2, 1));
                let want = plan.expected_model();
                Inputs::Drift { plan, want }
            }
            Workload::KgeLocal => Inputs::Kge(KgeInputs::new(seed)),
        }
    }

    fn ops_per_rep(&self) -> u64 {
        match self {
            Inputs::Drift { plan, .. } => plan.ops(),
            Inputs::Kge(k) => k.ops_per_rep(),
        }
    }

    /// One repetition under the watchdog. A panic inside the program fails
    /// the repetition instead of ending the run without a result.
    fn rep(&self, workload: Workload, seed: u64, traced: bool, wd: &Watchdog) -> Rep {
        wd.arm(REP_BUDGET);
        let run = || self.rep_unguarded(workload, seed, traced, wd);
        let rep =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|_| {
                let mut rep = Rep { traced, ops: self.ops_per_rep(), ..Rep::default() };
                rep.fail("the repetition panicked");
                rep
            });
        wd.disarm();
        rep
    }

    fn rep_unguarded(&self, workload: Workload, seed: u64, traced: bool, wd: &Watchdog) -> Rep {
        match (self, workload) {
            (Inputs::Drift { plan, want }, Workload::DriftTcp) => {
                drift::rep_tcp(plan, want, traced, wd)
            }
            (Inputs::Drift { plan, want }, _) => drift::rep_sim(plan, want, traced, wd),
            (Inputs::Kge(k), _) => kge::rep(k, seed, traced, wd),
        }
    }
}

/// What survives of a repetition once its samples are reduced.
struct Measured {
    traced: bool,
    failures: Vec<String>,
    window: Duration,
    threads: u64,
    quality: Option<f64>,
    e2e: Vec<Value>,
    layers: Vec<Value>,
    /// Numbers the simulator should repeat exactly for one seed.
    fingerprint: (u64, Option<f64>, u64, u64),
}

fn value_of(values: &[Value], name: &str) -> Option<f64> {
    values.iter().find(|v| v.name == name).and_then(|v| v.value)
}

impl Measured {
    fn value(&self, name: &str) -> Option<f64> {
        value_of(&self.e2e, name)
    }
}

fn reduce(rep: Rep) -> Measured {
    let e2e = rep.end_to_end();
    Measured {
        traced: rep.traced,
        fingerprint: (
            rep.makespan.as_nanos(),
            value_of(&e2e, "virtual_op_mean_us"),
            rep.counters.msgs_sent,
            rep.counters.bytes_sent,
        ),
        layers: if rep.traced { rep.per_layer() } else { Vec::new() },
        e2e,
        failures: rep.failures,
        window: rep.window,
        threads: rep.threads,
        quality: rep.quality,
    }
}

/// Median of one metric over repetitions, with the samples behind it.
struct Summary {
    name: &'static str,
    value: Option<f64>,
    reps: usize,
    /// Samples, and samples beyond the percentile, summed over repetitions.
    samples: Option<(usize, Option<usize>)>,
}

fn summarize<'a>(name: &'static str, reps: impl Iterator<Item = &'a Value>) -> Summary {
    let mut values = Vec::new();
    let mut samples: Option<(usize, Option<usize>)> = None;
    for v in reps.filter(|v| v.name == name) {
        if let Some(x) = v.value {
            values.push(x);
        }
        if let Some((n, b)) = v.samples {
            let s = samples.get_or_insert((0, b.map(|_| 0)));
            s.0 += n;
            s.1 = s.1.zip(b).map(|(x, y)| x + y);
        }
    }
    Summary { name, value: median(&values), reps: values.len(), samples }
}

fn print_summary(s: &Summary, unit: &str) {
    let value = s.value.map(|v| format!("{v:.6}")).unwrap_or_else(|| "n/a".into());
    let detail = match s.samples {
        Some((n, b)) => format!(
            "  [{n} samples{}, median of {} repetitions]",
            b.map(|b| format!(", {b} beyond the percentile")).unwrap_or_default(),
            s.reps
        ),
        None => String::new(),
    };
    println!("#   {:<34} {value} {unit}{detail}", s.name);
}

fn json_result(correct: bool, tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// The metric names a run reports, with units.
fn metric_names(trace: bool) -> Vec<(&'static str, &'static str)> {
    if !trace {
        return END_TO_END.to_vec();
    }
    let mut v: Vec<_> =
        Rep::default().per_layer().iter().map(|x| (x.name, layer_unit(x.name))).collect();
    v.push(("tracing.overhead_share", "ratio"));
    v
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload drift-tcp|kge-local|drift-adaptive-sim \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let inputs = Inputs::new(workload, args.seed);
    let ops_per_rep = inputs.ops_per_rep();

    // On a wedge: the flight records are printed, then the run is
    // reported as failed, with every op of the wedged repetition lost.
    let tally = Arc::new(Mutex::new(Tally::default()));
    let on_fire = {
        let tally = Arc::clone(&tally);
        let trace = args.trace;
        move || {
            let mut t = *tally.lock().unwrap();
            t.record(ops_per_rep, false);
            println!(
                "# correctness: FAILED — a repetition wedged past its {REP_BUDGET:?} deadline"
            );
            let zeros: Vec<_> = metric_names(trace).into_iter().map(|(n, u)| (n, 0.0, u)).collect();
            println!("{}", json_result(false, t, &zeros));
            std::process::exit(0);
        }
    };
    let wd = Watchdog::start(on_fire);

    // The first repetition warms the process and the host up (thread
    // stacks, allocator arenas, a vCPU back from idle): its output is
    // checked and its ops count, but it is not measured.
    let warm = inputs.rep(workload, args.seed, false, &wd);
    tally.lock().unwrap().record(warm.ops, warm.ok());
    let mut failures: Vec<String> =
        warm.failures.iter().map(|f| format!("warm-up repetition: {f}")).collect();
    drop(warm);

    let started = Instant::now();
    let min_reps = if args.trace { 4 } else { 3 };
    let mut reps: Vec<Measured> = Vec::new();
    let mut trace_export = None;
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && reps.len() % 2 == 1;
        let mut rep = inputs.rep(workload, args.seed, traced, &wd);
        if traced && trace_export.is_none() {
            trace_export = rep.trace.as_mut().map(|t| std::mem::take(&mut t.spans));
        }
        tally.lock().unwrap().record(rep.ops, rep.ok());
        let m = reduce(rep);
        eprintln!(
            "[perfbench] repetition {}{}: {:.3} s window, {:.0} keys/s, setup {:.6} s{}",
            reps.len(),
            if m.traced { " (traced)" } else { "" },
            m.window.as_secs_f64(),
            m.value("keys_per_s").unwrap_or(0.0),
            m.value("setup_s").unwrap_or(0.0),
            if m.failures.is_empty() {
                String::new()
            } else {
                format!(", FAILED: {:?}", m.failures)
            }
        );
        reps.push(m);
    }
    drop(wd);
    let tally = *tally.lock().unwrap();

    // Run-level checks on top of each repetition's own.
    for (i, r) in reps.iter().enumerate() {
        for f in &r.failures {
            failures.push(format!("repetition {i}: {f}"));
        }
    }
    // The simulator's numbers should repeat exactly for one seed. They
    // usually do; the adaptive manager occasionally shifts a repetition's
    // virtual clock by microseconds. Reported, not gated: the model is
    // still exact, and each metric is a median over repetitions.
    let determinism = (workload == Workload::DriftAdaptiveSim).then(|| {
        let first = reps[0].fingerprint;
        let differ = reps.iter().filter(|r| r.fingerprint != first).count();
        if differ == 0 {
            format!(
                "ok — virtual time, virtual op mean, msgs and bytes identical in all {} \
                 repetitions",
                reps.len()
            )
        } else {
            let other = reps.iter().find(|r| r.fingerprint != first).map(|r| r.fingerprint);
            format!(
                "DIFFERS — {differ} of {} repetitions differ from the first: {first:?} vs {other:?} \
                 (virtual_ns, virtual_op_mean_us, msgs, bytes)",
                reps.len()
            )
        }
    });

    let untraced = || reps.iter().filter(|r| !r.traced);
    let e2e: Vec<Summary> = END_TO_END
        .iter()
        .map(|(n, _)| summarize(n, untraced().flat_map(|r| r.e2e.iter())))
        .collect();
    for s in e2e.iter().filter(|s| s.value.is_none()) {
        failures.push(format!("{} has too few samples to report", s.name));
    }

    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let windows: Vec<f64> = reps.iter().map(|r| r.window.as_secs_f64()).collect();
    println!(
        "# perfbench workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host nproc {nproc}; topology {}; closed loop, 2 worker threads; {} program threads",
        workload.topology(),
        reps.iter().map(|r| r.threads).max().unwrap_or(0)
    );
    println!(
        "# {} repetitions ({} traced); timed window {:.3} s in total, {:.3} s median per \
         repetition (after a warm-up; set-up, finalize and checks outside it)",
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
        windows.iter().sum::<f64>(),
        median(&windows).unwrap_or(0.0)
    );
    println!("# end-to-end, median over untraced repetitions:");
    for (s, (_, unit)) in e2e.iter().zip(END_TO_END) {
        print_summary(s, unit);
    }
    println!("# reported, not gated:");
    for (name, unit) in REPORTED_ONLY {
        print_summary(&summarize(name, untraced().flat_map(|r| r.e2e.iter())), unit);
    }
    println!(
        "#   {:<34} {} ({} of {} ops)",
        "failed_share",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        println!("# per-layer, median over traced repetitions (n/a: the layer saw no work):");
        let mut out = Vec::new();
        for (name, unit) in metric_names(true) {
            let s = if name == "tracing.overhead_share" {
                let kps = |traced: bool| {
                    let v: Vec<f64> = reps
                        .iter()
                        .filter(|r| r.traced == traced)
                        .filter_map(|r| r.value("keys_per_s"))
                        .collect();
                    median(&v)
                };
                let value = match (kps(true), kps(false)) {
                    (Some(t), Some(u)) if u > 0.0 => Some(1.0 - t / u),
                    _ => None,
                };
                Summary { name, value, reps: 0, samples: None }
            } else {
                summarize(name, reps.iter().flat_map(|r| r.layers.iter()))
            };
            print_summary(&s, unit);
            out.push((name, s.value.unwrap_or(0.0), unit));
        }
        if let Some(spans) = trace_export {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{}-seed{}.json", workload.name(), args.seed);
            match std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, span::chrome_trace(&spans)))
            {
                Ok(()) => println!("# chrome trace: {path} ({} spans)", spans.len()),
                Err(e) => println!("# chrome trace not written: {e}"),
            }
        }
        out
    } else {
        e2e.iter().zip(END_TO_END).map(|(s, (n, u))| (n, s.value.unwrap_or(0.0), u)).collect()
    };

    let quality: Vec<f64> = reps.iter().filter_map(|r| r.quality).collect();
    if let (Some(lo), Some(mid)) = (quality.iter().copied().reduce(f64::min), median(&quality)) {
        println!(
            "# quality: filtered MRR {mid:.5} median, {lo:.5} lowest (floor {})",
            kge::MRR_FLOOR
        );
    }
    if let Some(d) = determinism {
        println!("# determinism: {d}");
    }
    if failures.is_empty() {
        println!(
            "# correctness: ok — {}, {} of {} repetitions",
            workload.check(),
            reps.len(),
            reps.len()
        );
    } else {
        for f in &failures {
            println!("# correctness: FAILED — {f}");
        }
    }
    println!("{}", json_result(failures.is_empty(), tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload kge-local --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::KgeLocal);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload drift-tcp --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let t = Tally { attempted: 10, failed: 0 };
        let line = json_result(true, t, &[("keys_per_s", 1.5, "keys/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"keys_per_s\": {\"value\": 1.5, \"unit\": \"keys/s\"}}}"
        );
    }

    #[test]
    fn every_layer_metric_has_a_unit_and_a_unique_name() {
        let names = metric_names(true);
        let mut seen = std::collections::HashSet::new();
        for (n, u) in &names {
            assert!(seen.insert(*n), "duplicate {n}");
            assert!(!u.is_empty());
        }
        assert_eq!(layer_unit("net.queue_wait_p99_us"), "us");
        assert_eq!(layer_unit("runtime.bytes_per_key"), "bytes/key");
        assert_eq!(layer_unit("replication.sync_bytes"), "bytes");
        assert_eq!(layer_unit("store.relocations"), "count");
    }
}
