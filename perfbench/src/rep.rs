//! One repetition of a workload — set up, warm up, a timed window, finalize,
//! check, shut down — and the metrics it yields.

use std::time::Duration;

use nups_core::PsWorker;
use nups_sim::hist::{HistSnapshot, OpHistsSnapshot};
use nups_sim::metrics::MetricsSnapshot;
use nups_sim::time::SimDuration;

use crate::span::Span;
use crate::stats::{beyond, percentile};
use crate::timed::{Call, Recorder, TimedWorker, N_CALLS};

/// Wall-clock phases of a repetition outside the timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysTimes {
    /// `connect_cluster` (slowest node); zero in-process.
    pub bootstrap: Duration,
    /// `ParameterServer::new` / `deploy` (slowest node).
    pub deploy: Duration,
    /// All `register_distribution` calls; zero when none.
    pub register: Duration,
    /// Reading the final model (`finalize_distributed` or flush + `read_all`).
    pub finalize: Duration,
    /// `ParameterServer::shutdown` (slowest node).
    pub shutdown: Duration,
}

/// Span sums of a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct TraceSums {
    pub step_ns: u64,
    pub call_self_ns: [u64; N_CALLS],
    pub ml_self_ns: u64,
    pub spans: Vec<Span>,
}

impl TraceSums {
    fn add(&mut self, step_ns: u64, ml_self_ns: u64, calls: [u64; N_CALLS], spans: Vec<Span>) {
        self.step_ns += step_ns;
        self.ml_self_ns += ml_self_ns;
        for (a, b) in self.call_self_ns.iter_mut().zip(calls) {
            *a += b;
        }
        self.spans.extend(spans);
    }
}

/// What one repetition measured. Samples and counters cover the timed
/// window only; `ops` counts every op issued, warm-up included.
#[derive(Debug, Default)]
pub struct Rep {
    pub traced: bool,
    /// Failed checks; empty when the repetition is correct.
    pub failures: Vec<String>,
    pub ops: u64,
    pub keys: u64,
    pub steps: u64,
    pub window: Duration,
    /// The timed work's makespan on the workers' runtime clock.
    pub makespan: SimDuration,
    pub setup: Duration,
    pub sys: SysTimes,
    pub wall: [Vec<u32>; N_CALLS],
    pub virt: Vec<u64>,
    pub counters: MetricsSnapshot,
    pub syncs_done: u64,
    pub hists: OpHistsSnapshot,
    pub trace: Option<TraceSums>,
    /// Threads of this process, sampled as the timed window starts (the
    /// most any worker saw).
    pub threads: u64,
    /// Model quality reached, where the workload measures one (KGE MRR).
    pub quality: Option<f64>,
}

impl Rep {
    /// Fold one worker's timed-window recording into the repetition.
    pub fn absorb(&mut self, rec: Recorder) {
        for (all, mine) in self.wall.iter_mut().zip(rec.wall) {
            all.extend(mine);
        }
        self.virt.extend(rec.virt);
        self.keys += rec.keys;
        self.steps += rec.steps;
        self.threads = self.threads.max(rec.threads);
        if let Some(tr) = rec.tracer {
            self.trace.get_or_insert_with(TraceSums::default).add(
                tr.step_ns,
                tr.ml_self_ns,
                tr.call_self_ns,
                tr.kept,
            );
        }
    }

    /// Absorb every worker's recording.
    pub fn absorb_all<W: PsWorker>(&mut self, workers: Vec<TimedWorker<W>>) {
        for w in workers {
            self.absorb(w.rec);
        }
    }

    /// Fold another node's part of the same repetition into this one:
    /// work and samples add up, system phases take the slowest node.
    pub fn merge_node(&mut self, other: Rep) {
        self.failures.extend(other.failures);
        self.keys += other.keys;
        self.steps += other.steps;
        self.threads = self.threads.max(other.threads);
        self.counters = self.counters.merge(&other.counters);
        self.hists.merge_from(&other.hists);
        self.syncs_done += other.syncs_done;
        for (all, mine) in self.wall.iter_mut().zip(other.wall) {
            all.extend(mine);
        }
        self.virt.extend(other.virt);
        if let Some(t) = other.trace {
            self.trace.get_or_insert_with(TraceSums::default).add(
                t.step_ns,
                t.ml_self_ns,
                t.call_self_ns,
                t.spans,
            );
        }
        let (a, b) = (&mut self.sys, other.sys);
        a.bootstrap = a.bootstrap.max(b.bootstrap);
        a.deploy = a.deploy.max(b.deploy);
        a.register = a.register.max(b.register);
        a.finalize = a.finalize.max(b.finalize);
        a.shutdown = a.shutdown.max(b.shutdown);
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// All op wall-latency samples (every call but `charge_compute`), ns.
    fn op_wall(&self) -> Vec<u64> {
        Call::ALL
            .iter()
            .filter(|c| c.is_op())
            .flat_map(|&c| self.wall[c as usize].iter().map(|&ns| ns as u64))
            .collect()
    }

    fn call_wall(&self, call: Call) -> Vec<u64> {
        self.wall[call as usize].iter().map(|&ns| ns as u64).collect()
    }

    /// The end-to-end metrics of this repetition.
    pub fn end_to_end(&self) -> Vec<Value> {
        let secs = self.window.as_secs_f64();
        let mut ops = self.op_wall();
        vec![
            Value::of("keys_per_s", self.keys as f64 / secs),
            Value::of("samples_per_s", self.steps as f64 / secs),
            Value::pct("op_p50_us", &mut ops, 50.0),
            Value::pct("op_p95_us", &mut ops, 95.0),
            Value::pct("op_p99_us", &mut ops, 99.0),
            Value::of("virtual_s", self.makespan.as_secs_f64()),
            Value::mean("virtual_op_mean_us", &self.virt),
            Value::of("setup_s", self.setup.as_secs_f64()),
        ]
    }

    /// The per-layer metrics of this repetition (spans, counters and
    /// histogram snapshots). `None` where the layer saw no work.
    pub fn per_layer(&self) -> Vec<Value> {
        let m = &self.counters;
        let keys = self.keys as f64;
        let accesses = (m.local_pulls
            + m.local_pushes
            + m.remote_pulls
            + m.remote_pushes
            + m.replica_pulls
            + m.replica_pushes) as f64;
        let h = &self.hists;
        let tr = self.trace.as_ref();
        let share = |ns: u64| tr.and_then(|t| ratio(ns as f64, t.step_ns as f64));
        let call_self = |calls: &[Call]| {
            tr.map(|t| calls.iter().map(|&c| t.call_self_ns[c as usize]).sum()).unwrap_or(0)
        };
        let ms = |d: Duration| (!d.is_zero()).then_some(d.as_secs_f64() * 1e3);
        let count = |n: u64| Some(n as f64);
        vec![
            Value::pct("worker.pull_many_p50_us", &mut self.call_wall(Call::PullMany), 50.0),
            Value::pct("worker.pull_many_p99_us", &mut self.call_wall(Call::PullMany), 99.0),
            Value::pct("worker.push_many_p50_us", &mut self.call_wall(Call::PushMany), 50.0),
            Value::pct("worker.push_many_p99_us", &mut self.call_wall(Call::PushMany), 99.0),
            Value::pct(
                "worker.charge_compute_p99_us",
                &mut self.call_wall(Call::ChargeCompute),
                99.0,
            ),
            Value::opt("worker.ps_share", share(call_self(&Call::ALL))),
            Value::opt("net.bootstrap_ms", ms(self.sys.bootstrap)),
            Value::opt(
                "net.frames_per_write",
                ratio(m.fabric_frames as f64, m.fabric_writes as f64),
            ),
            Value::opt("net.writes_per_key", ratio(m.fabric_writes as f64, keys)),
            Value::opt("net.writer_wakeups", count(m.writer_wakeups)),
            Value::opt(
                "net.pool_hit_share",
                ratio(m.pool_hits as f64, (m.pool_hits + m.pool_misses) as f64),
            ),
            Value::hist("net.queue_wait_p50_us", &h.queue_wait, 50.0),
            Value::hist("net.queue_wait_p99_us", &h.queue_wait, 99.0),
            Value::hist("net.flush_p50_us", &h.flush, 50.0),
            Value::pct(
                "sampling.prepare_sample_p50_us",
                &mut self.call_wall(Call::PrepareSample),
                50.0,
            ),
            Value::pct("sampling.pull_sample_p50_us", &mut self.call_wall(Call::PullSample), 50.0),
            Value::pct("sampling.pull_sample_p99_us", &mut self.call_wall(Call::PullSample), 99.0),
            Value::opt(
                "sampling.ps_share",
                share(call_self(&[Call::PrepareSample, Call::PullSample])),
            ),
            Value::opt("sampling.samples_drawn", count(m.samples_drawn)),
            Value::opt("sampling.samples_postponed", count(m.samples_postponed)),
            Value::opt("sampling.samples_remote", count(m.samples_remote)),
            Value::pct("store.localize_p50_us", &mut self.call_wall(Call::Localize), 50.0),
            Value::opt(
                "server.local_share",
                ratio(
                    (m.local_pulls + m.local_pushes + m.replica_pulls + m.replica_pushes) as f64,
                    accesses,
                ),
            ),
            Value::opt(
                "server.remote_per_key",
                ratio((m.remote_pulls + m.remote_pushes) as f64, keys),
            ),
            Value::opt("store.relocations", count(m.relocations)),
            Value::opt("store.relocation_conflicts", count(m.relocation_conflicts)),
            Value::opt("replication.sync_rounds", count(m.sync_rounds)),
            Value::opt("replication.sync_bytes", count(m.sync_bytes)),
            Value::opt(
                "replication.replica_share",
                ratio((m.replica_pulls + m.replica_pushes) as f64, accesses),
            ),
            Value::opt("syncgate.syncs_done", count(self.syncs_done)),
            Value::hist("syncgate.merge_p50_us", &h.merge, 50.0),
            Value::hist("syncgate.sync_round_p50_us", &h.sync_round, 50.0),
            Value::opt("adaptive.promotions", count(m.promotions)),
            Value::opt("adaptive.demotions", count(m.demotions)),
            Value::opt("adaptive.rounds", count(m.adaptation_rounds)),
            Value::opt("adaptive.migration_msgs", count(m.migration_msgs)),
            Value::opt("adaptive.migration_bytes", count(m.migration_bytes)),
            Value::opt("runtime.msgs_per_key", ratio(m.msgs_sent as f64, keys)),
            Value::opt("runtime.bytes_per_key", ratio(m.bytes_sent as f64, keys)),
            Value::opt("ml.compute_share", share(tr.map(|t| t.ml_self_ns).unwrap_or(0))),
            Value::opt("system.deploy_ms", ms(self.sys.deploy)),
            Value::opt("system.register_distribution_ms", ms(self.sys.register)),
            Value::opt("system.finalize_ms", ms(self.sys.finalize)),
            Value::opt("system.shutdown_ms", ms(self.sys.shutdown)),
        ]
    }
}

/// The histogram samples recorded between two snapshots.
pub fn diff_hists(now: &OpHistsSnapshot, before: &OpHistsSnapshot) -> OpHistsSnapshot {
    OpHistsSnapshot {
        pull: now.pull.saturating_sub(&before.pull),
        push: now.push.saturating_sub(&before.push),
        localize: now.localize.saturating_sub(&before.localize),
        merge: now.merge.saturating_sub(&before.merge),
        sync_round: now.sync_round.saturating_sub(&before.sync_round),
        queue_wait: now.queue_wait.saturating_sub(&before.queue_wait),
        flush: now.flush.saturating_sub(&before.flush),
    }
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

/// One metric of one repetition. Sample statistics carry their sample
/// count and, for percentiles, how many samples lie beyond them.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: Option<f64>,
    pub samples: Option<(usize, Option<usize>)>,
}

impl Value {
    fn of(name: &'static str, v: f64) -> Value {
        Value { name, value: Some(v), samples: None }
    }

    fn opt(name: &'static str, v: Option<f64>) -> Value {
        Value { name, value: v, samples: None }
    }

    /// Percentile of nanosecond samples, in microseconds.
    fn pct(name: &'static str, ns: &mut [u64], pct: f64) -> Value {
        Value {
            name,
            value: percentile(ns, pct).map(|v| v as f64 / 1e3),
            samples: Some((ns.len(), Some(beyond(ns.len(), pct)))),
        }
    }

    /// Mean of nanosecond samples, in microseconds.
    fn mean(name: &'static str, ns: &[u64]) -> Value {
        let n = ns.len();
        Value {
            name,
            value: (n > 0).then(|| ns.iter().sum::<u64>() as f64 / n as f64 / 1e3),
            samples: Some((n, None)),
        }
    }

    /// Percentile of a program histogram (bucket upper bound), in
    /// microseconds, under the same ten-beyond rule.
    fn hist(name: &'static str, h: &HistSnapshot, pct: f64) -> Value {
        let n = h.count as usize;
        let b = beyond(n, pct);
        Value {
            name,
            value: (b >= crate::stats::MIN_BEYOND).then(|| h.percentile(pct) as f64 / 1e3),
            samples: Some((n, Some(b))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_reports_its_sample_count() {
        let m = Value::mean("m", &[1000, 2000, 6000]);
        assert_eq!((m.value, m.samples), (Some(3.0), Some((3, None))));
        assert_eq!(Value::mean("m", &[]).value, None);
        let mut ns: Vec<u64> = (1..=1000).map(|x| x * 1000).collect();
        let p = Value::pct("p", &mut ns, 99.0);
        assert_eq!((p.value, p.samples), (Some(990.0), Some((1000, Some(10)))));
    }

    #[test]
    fn shares_come_from_self_time() {
        let mut rep = Rep::default();
        let mut sums = TraceSums { step_ns: 1000, ml_self_ns: 250, ..TraceSums::default() };
        sums.call_self_ns[Call::PullSample as usize] = 500;
        sums.call_self_ns[Call::PushMany as usize] = 250;
        rep.trace = Some(sums);
        let layers = rep.per_layer();
        let get = |n: &str| layers.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(get("worker.ps_share"), Some(0.75));
        assert_eq!(get("sampling.ps_share"), Some(0.5));
        assert_eq!(get("ml.compute_share"), Some(0.25));
        // No traffic: ratios over zero work are absent, not zero.
        assert_eq!(get("runtime.msgs_per_key"), None);
    }
}
