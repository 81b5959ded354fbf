//! Determinism regression: the reproducibility claim of the simulated
//! substrate. Two runs of the same seeded configuration must produce
//! byte-identical metrics snapshots, bit-identical model state, and the
//! same virtual makespan — regardless of how the real-time race between
//! worker threads and server threads plays out.

use std::time::Duration;

use nups::core::sampling::{DistId, SampleHandle};
use nups::core::syncgate::SyncStats;
use nups::core::system::run_epoch;
use nups::core::{
    DistributionKind, Key, NupsConfig, ParameterServer, PsWorker, ReuseParams, SamplingScheme,
};
use nups::sim::metrics::MetricsSnapshot;
use nups::sim::time::{SimDuration, SimTime};
use nups::sim::topology::{NodeId, Topology, WorkerId};

/// One full run of a seeded two-node workload exercising relocation,
/// replication, synchronization, and pooled sampling from one worker.
/// Returns everything an experiment would report.
fn seeded_run(seed: u64) -> (SimTime, MetricsSnapshot, Vec<Vec<u32>>) {
    let topo = Topology::new(2, 1);
    let n_keys = 40u64;
    let cfg =
        NupsConfig::nups(topo, n_keys, 2).with_replicated_keys(vec![0, 1, 2, 3]).with_seed(seed);
    let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32 * 0.25));
    let dist = ps.register_distribution_with_scheme(
        4,
        n_keys - 4,
        DistributionKind::Uniform,
        SamplingScheme::Reuse(ReuseParams { pool_size: 8, use_frequency: 2 }),
    );

    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    let mut buf = vec![0.0f32; 2];
    for round in 0..20 {
        for k in 0..n_keys {
            if round % 5 == 0 {
                w.localize(&[k]);
            }
            w.pull(k, &mut buf);
            w.push(k, &[0.125, -0.25]);
            w.charge_compute(500);
        }
        // Pooled sampling: prepare announces pools (async localizes), the
        // drain pulls every announced key, so nothing is left in flight.
        let mut h = w.prepare_sample(dist, 16);
        let drawn = w.pull_sample(&mut h, 16);
        assert_eq!(drawn.len(), 16);
    }
    let makespan = w.now();
    drop(w);

    ps.flush_replicas();
    // Bit-exact model state (f32 comparison via bit patterns).
    let model: Vec<Vec<u32>> =
        ps.read_all().into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect();
    let metrics = ps.metrics();
    ps.shutdown();
    (makespan, metrics, model)
}

#[test]
fn seeded_runs_are_byte_identical() {
    let (t1, m1, s1) = seeded_run(42);
    let (t2, m2, s2) = seeded_run(42);
    assert_eq!(t1, t2, "virtual makespan must be deterministic");
    assert_eq!(s1, s2, "model state must be bit-identical");
    // Byte-identical snapshots: compare the full rendered counter table so
    // a failure names the counter that diverged.
    let render = |m: &MetricsSnapshot| format!("{m:#?}");
    assert_eq!(render(&m1), render(&m2), "metrics snapshots must be byte-identical");
    assert!(t1 > SimTime::ZERO);
    assert!(m1.samples_drawn > 0 && m1.relocations > 0, "workload too trivial to guard");
}

#[test]
fn different_seeds_change_sampling_but_not_coverage() {
    let (_, m1, s1) = seeded_run(7);
    let (_, m2, _) = seeded_run(8);
    // The deterministic direct-access part is seed-independent.
    assert_eq!(m1.samples_drawn, m2.samples_drawn);
    assert_eq!(s1.len(), 40);
}

/// Multi-worker epochs keep the *aggregate* invariants deterministic even
/// though thread interleaving is real: every push lands exactly once.
#[test]
fn multi_worker_totals_are_exact_across_runs() {
    let run = || -> Vec<u32> {
        let topo = Topology::new(2, 2);
        let cfg = NupsConfig::lapse(topo, 8, 1);
        let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
        let mut ws = ps.workers();
        run_epoch(&mut ws, |i, w| {
            for round in 0..50 {
                let key = ((i + round) % 8) as u64;
                if round % 10 == i {
                    w.localize(&[key]);
                }
                w.push(key, &[1.0]);
            }
        });
        drop(ws);
        let model: Vec<u32> = ps.read_all().into_iter().map(|v| v[0].to_bits()).collect();
        ps.shutdown();
        model
    };
    assert_eq!(run(), run(), "per-key push totals must not depend on interleaving");
}

/// A worker whose epoch registration starts late — the stand-in for a
/// worker thread the OS schedules after its peers.
struct LateStart<W> {
    inner: W,
    delay: Option<Duration>,
}

impl<W: PsWorker> PsWorker for LateStart<W> {
    fn value_len(&self) -> usize {
        self.inner.value_len()
    }
    fn pull(&mut self, key: Key, out: &mut [f32]) {
        self.inner.pull(key, out)
    }
    fn push(&mut self, key: Key, delta: &[f32]) {
        self.inner.push(key, delta)
    }
    fn localize(&mut self, keys: &[Key]) {
        self.inner.localize(keys)
    }
    fn advance_clock(&mut self) {
        self.inner.advance_clock()
    }
    fn charge_compute(&mut self, flops: u64) {
        self.inner.charge_compute(flops)
    }
    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        self.inner.prepare_sample(dist, n)
    }
    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        self.inner.pull_sample(handle, n)
    }
    fn begin_epoch(&mut self) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        self.inner.begin_epoch()
    }
    fn end_epoch(&mut self) {
        self.inner.end_epoch()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// Two workers on two nodes share replicated key 0 under a 100 µs sync
/// period: 400 pull/push steps of 10 µs compute each. Worker 1 may
/// register for the epoch `late`.
fn gated_run(late: Option<Duration>) -> (SimTime, SyncStats, MetricsSnapshot) {
    let topo = Topology::new(2, 1);
    let cfg = NupsConfig::nups(topo, 16, 2)
        .with_replicated_keys(vec![0])
        .with_sync_period(SimDuration::from_micros(100));
    let flops_per_step = (10e-6 / cfg.cost.seconds_per_flop).round() as u64;
    let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
    let mut workers: Vec<_> = ps
        .workers()
        .into_iter()
        .enumerate()
        .map(|(i, inner)| LateStart { inner, delay: late.filter(|_| i == 1) })
        .collect();
    run_epoch(&mut workers, |_, w| {
        let mut out = [0.0f32; 2];
        for _ in 0..400 {
            w.pull(0, &mut out);
            w.push(0, &[1.0, 1.0]);
            w.charge_compute(flops_per_step);
        }
    });
    drop(workers);
    let out = (ps.virtual_time(), ps.sync_stats(), ps.metrics());
    ps.shutdown();
    out
}

/// Every worker joins the sync gate before any of them runs: a worker
/// whose thread starts first must not cross a boundary and merge alone.
#[test]
fn late_worker_start_does_not_change_the_merge_schedule() {
    let (t, stats, m) = gated_run(None);
    let (t_late, stats_late, m_late) = gated_run(Some(Duration::from_millis(50)));
    assert_eq!(t, t_late, "virtual makespan depends on thread start order");
    assert_eq!(stats, stats_late, "sync schedule depends on thread start order");
    let render = |m: &MetricsSnapshot| format!("{m:#?}");
    assert_eq!(render(&m), render(&m_late), "metrics depend on thread start order");
    assert!(stats.syncs_done > 20, "workload too short to cross sync boundaries: {stats:?} {t:?}");
}
