//! The two drift workloads: the drifting-hotspot batches of
//! `nups_bench::drift_bench` (8-key batches, 90% of accesses on a hot set
//! that rotates every phase, static phase-0 replication, 1 ms sync), on
//!
//! * `drift-tcp`: 2 nodes × 1 worker, each node a thread of this process
//!   with its own TCP fabric, joined by `connect_cluster` over loopback
//!   (`Deployment::SingleNode`, wall clock);
//! * `drift-adaptive-sim`: the same batches with the adaptive technique
//!   manager on the virtual-time backend (2 nodes × 1 worker, in-process).
//!
//! Every pushed delta is 1.0, so the final model has a closed form: each
//! key's initial value plus its push count, exact in `f32`.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nups_bench::drift_bench::{adaptive_ps_config, init_value, model_bits, ps_config, VALUE_LEN};
use nups_core::runtime::Backend;
use nups_core::system::{run_epoch, FinalizeOutcome};
use nups_core::{Deployment, Key, ParameterServer, PsWorker};
use nups_net::{connect_cluster, ClusterOptions};
use nups_sim::metrics::ClusterMetrics;
use nups_sim::topology::{NodeId, Topology};
use nups_sim::trace::Observability;
use nups_workloads::drift::{DriftConfig, DriftingHotspots};

use crate::rep::{diff_hists, Rep};
use crate::timed::{wrap, TimedWorker};
use crate::watchdog::Watchdog;

const FINALIZE_TIMEOUT: Duration = Duration::from_secs(20);

/// Every batch every worker issues: `batches[epoch][worker][batch]`.
/// Epoch 0 is the warm-up (the first `warmup` batches of phase 0); epochs
/// `1..` are the workload's phases, timed.
pub struct DriftPlan {
    pub workload: DriftingHotspots,
    pub topology: Topology,
    pub batches: Vec<Vec<Vec<Vec<Key>>>>,
}

impl DriftPlan {
    pub fn new(cfg: DriftConfig, topology: Topology, warmup: usize) -> DriftPlan {
        let workload = DriftingHotspots::new(cfg);
        let workers = topology.total_workers();
        let mut batches: Vec<Vec<Vec<Vec<Key>>>> = vec![(0..workers)
            .map(|w| workload.worker_batches(0, w).into_iter().take(warmup).collect())
            .collect()];
        for phase in 0..cfg.phases {
            batches.push((0..workers).map(|w| workload.worker_batches(phase, w)).collect());
        }
        DriftPlan { workload, topology, batches }
    }

    /// The benchmark's drift shape: 4 phases of 2000 batches, 4096 keys,
    /// 8 hot keys per phase taking 90% of accesses, from `seed`.
    pub fn standard(seed: u64, topology: Topology) -> DriftPlan {
        let cfg = DriftConfig {
            n_keys: 4096,
            hot_keys: 8,
            hot_share: 0.9,
            phases: 4,
            batches_per_phase: 2000,
            batch: 8,
            seed,
        };
        DriftPlan::new(cfg, topology, 250)
    }

    /// Ops the plan issues: one `pull_many` and one `push_many` per batch.
    pub fn ops(&self) -> u64 {
        2 * self.batches.iter().flatten().map(|w| w.len() as u64).sum::<u64>()
    }

    /// The closed-form final model, as bit patterns: every key's initial
    /// value plus one per push of it.
    pub fn expected_model(&self) -> Vec<Vec<u32>> {
        let n = self.workload.config().n_keys as usize;
        let mut pushes = vec![0u32; n];
        for key in self.batches.iter().flatten().flatten().flatten() {
            pushes[*key as usize] += 1;
        }
        let mut v = vec![0.0f32; VALUE_LEN];
        (0..n)
            .map(|k| {
                init_value(k as Key, &mut v);
                v.iter().map(|x| (x + pushes[k] as f32).to_bits()).collect()
            })
            .collect()
    }

    /// Run `epoch` on `workers`, whose global worker indices are `globals`.
    fn drive<W: PsWorker>(&self, workers: &mut [TimedWorker<W>], globals: &[usize], epoch: usize) {
        run_epoch(workers, |i, w| {
            let mut out = vec![0.0f32; 8 * VALUE_LEN];
            let deltas = vec![1.0f32; 8 * VALUE_LEN];
            for keys in &self.batches[epoch][globals[i]] {
                let vals = keys.len() * VALUE_LEN;
                w.pull_many(keys, &mut out[..vals]);
                w.push_many(keys, &deltas[..vals]);
                w.charge_compute(500 * keys.len() as u64);
                w.advance_clock();
            }
        });
    }

    fn timed_epochs(&self) -> std::ops::Range<usize> {
        1..self.batches.len()
    }
}

/// Compare a final model with the closed form; describe the first
/// mismatch.
fn check_model(rep: &mut Rep, got: Vec<Vec<u32>>, want: &[Vec<u32>]) {
    if got.len() != want.len() {
        rep.fail(format!("final model has {} keys, expected {}", got.len(), want.len()));
        return;
    }
    let bad: Vec<usize> = (0..want.len()).filter(|&k| got[k] != want[k]).collect();
    if let Some(&k) = bad.first() {
        rep.fail(format!(
            "{} keys differ from init + push count; key {k}: got {:?}, want {:?}",
            bad.len(),
            f32::from_bits(got[k][0]),
            f32::from_bits(want[k][0])
        ));
    }
}

/// One repetition of `drift-adaptive-sim`.
pub fn rep_sim(plan: &DriftPlan, want: &[Vec<u32>], traced: bool, wd: &Watchdog) -> Rep {
    let mut rep = Rep { traced, ops: plan.ops(), ..Rep::default() };
    let anchor = Instant::now();
    let ps = ParameterServer::new(adaptive_ps_config(plan.topology, &plan.workload), init_value);
    rep.sys.deploy = anchor.elapsed();
    rep.setup = anchor.elapsed();
    wd.watch(ps.observability());
    let raw = ps.workers();
    let globals: Vec<usize> = raw.iter().map(|w| plan.topology.worker_index(w.id())).collect();
    let mut workers = wrap(raw, traced, anchor, 0);

    plan.drive(&mut workers, &globals, 0);
    workers.iter_mut().for_each(TimedWorker::reset);
    let (m0, h0, s0, v0) =
        (ps.metrics(), ps.observability().hists.snapshot(), ps.sync_stats(), ps.virtual_time());
    let t = Instant::now();
    for e in plan.timed_epochs() {
        plan.drive(&mut workers, &globals, e);
    }
    rep.window = t.elapsed();
    rep.makespan = ps.virtual_time().saturating_since(v0);
    rep.counters = ps.metrics() - m0;
    rep.hists = diff_hists(&ps.observability().hists.snapshot(), &h0);
    rep.syncs_done = ps.sync_stats().syncs_done - s0.syncs_done;
    rep.absorb_all(workers);

    let t = Instant::now();
    ps.flush_replicas();
    let model = model_bits(ps.read_all());
    rep.sys.finalize = t.elapsed();
    check_model(&mut rep, model, want);
    let t = Instant::now();
    ps.shutdown();
    rep.sys.shutdown = t.elapsed();
    rep
}

/// What one node thread of a TCP repetition hands back.
#[derive(Default)]
struct NodeOut {
    rep: Rep,
    model: Option<Vec<Vec<u32>>>,
    v_span: nups_sim::time::SimDuration,
}

/// Where rendezvous ports are drawn from: below Linux's default ephemeral
/// range (32768–60999), so the kernel never hands one out for a `bind` to
/// port 0 or an outgoing connection. A port taken from the ephemeral range
/// and released again could be reissued to a node's own data listener
/// before node 0 binds it (about once in 4000 repetitions): node 0's bind
/// then fails and node 1 dials its own listener until the bootstrap
/// deadline.
const RENDEZVOUS_PORTS: std::ops::Range<u16> = 20_000..32_768;

/// Reserve a loopback port for the rendezvous: a random port of
/// [`RENDEZVOUS_PORTS`] that is free right now. Random, so concurrent
/// benchmark processes rarely try the same one.
fn rendezvous_port() -> std::io::Result<SocketAddr> {
    let random = RandomState::new();
    let span = (RENDEZVOUS_PORTS.end - RENDEZVOUS_PORTS.start) as u64;
    let mut last = None;
    for attempt in 0..64u64 {
        let port = RENDEZVOUS_PORTS.start + (random.hash_one(attempt) % span) as u16;
        match TcpListener::bind(("127.0.0.1", port)).and_then(|l| l.local_addr()) {
            Ok(addr) => return Ok(addr),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no rendezvous port tried")))
}

/// One repetition of `drift-tcp`.
pub fn rep_tcp(plan: &DriftPlan, want: &[Vec<u32>], traced: bool, wd: &Watchdog) -> Rep {
    let mut rep = Rep { traced, ops: plan.ops(), ..Rep::default() };
    let coordinator = match rendezvous_port() {
        Ok(a) => a,
        Err(e) => {
            rep.fail(format!("no loopback port for the rendezvous: {e}"));
            return rep;
        }
    };
    // Three parties — both nodes and this thread — meet when both nodes
    // are deployed, when both are warmed up, and when both finished the
    // timed phases.
    let gate = Barrier::new(3);
    let anchor = Instant::now();
    let outs: Vec<NodeOut> = std::thread::scope(|s| {
        let nodes: Vec<_> = plan
            .topology
            .nodes()
            .map(|node| {
                let gate = &gate;
                std::thread::Builder::new()
                    .name(format!("perfbench-node-{node}"))
                    .spawn_scoped(s, move || {
                        run_node(plan, node, coordinator, traced, anchor, gate, wd)
                    })
                    .expect("spawn node thread")
            })
            .collect();
        gate.wait();
        rep.setup = anchor.elapsed();
        gate.wait();
        let t = Instant::now();
        gate.wait();
        rep.window = t.elapsed();
        nodes
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut out = NodeOut::default();
                    out.rep.fail("a node thread panicked");
                    out
                })
            })
            .collect()
    });

    let mut model = None;
    for out in outs {
        rep.makespan = rep.makespan.max(out.v_span);
        rep.merge_node(out.rep);
        model = model.or(out.model);
    }
    match model {
        Some(m) => check_model(&mut rep, m, want),
        None if rep.ok() => rep.fail("node 0 returned no model"),
        None => {}
    }
    rep
}

/// One node of a TCP repetition, from bootstrap to shutdown. Waits at
/// every gate even when it fails, so its peer and the caller never wait
/// for a node that gave up.
fn run_node(
    plan: &DriftPlan,
    node: NodeId,
    coordinator: SocketAddr,
    traced: bool,
    anchor: Instant,
    gate: &Barrier,
    wd: &Watchdog,
) -> NodeOut {
    let mut out = NodeOut::default();
    let mut passed = 0;
    let mut pass_to = |n: usize| {
        while passed < n {
            gate.wait();
            passed += 1;
        }
    };
    let metrics = Arc::new(ClusterMetrics::new(plan.topology.n_nodes as usize));
    let obs = Arc::new(Observability::new());
    wd.watch(&obs);
    let t = Instant::now();
    let opts = ClusterOptions::new(node, plan.topology, coordinator);
    let fabric = match connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs)) {
        Ok(f) => f,
        Err(e) => {
            out.rep.fail(format!("node {node} bootstrap failed: {e}"));
            eprintln!("{}", obs.flight_record(&format!("bootstrap failed: {e}")));
            pass_to(3);
            return out;
        }
    };
    out.rep.sys.bootstrap = t.elapsed();
    let t = Instant::now();
    let cfg = ps_config(plan.topology, &plan.workload).with_backend(Backend::WallClock);
    let ps = ParameterServer::deploy(
        cfg,
        Arc::new(fabric),
        metrics,
        Arc::clone(&obs),
        Deployment::SingleNode(node),
        init_value,
    );
    out.rep.sys.deploy = t.elapsed();
    let raw = ps.workers();
    let globals: Vec<usize> = raw.iter().map(|w| plan.topology.worker_index(w.id())).collect();
    let mut workers = wrap(raw, traced, anchor, globals[0]);
    pass_to(1);

    plan.drive(&mut workers, &globals, 0);
    workers.iter_mut().for_each(TimedWorker::reset);
    // Counters are read at the gates, so they cover both nodes' timed
    // phases and neither warm-up: this node's server also serves the peer.
    pass_to(2);
    let (m0, h0, s0, v0) = (ps.metrics(), obs.hists.snapshot(), ps.sync_stats(), ps.virtual_time());
    for e in plan.timed_epochs() {
        plan.drive(&mut workers, &globals, e);
    }
    out.v_span = ps.virtual_time().saturating_since(v0);
    pass_to(3);
    out.rep.counters = ps.metrics() - m0;
    out.rep.hists = diff_hists(&obs.hists.snapshot(), &h0);
    out.rep.syncs_done = ps.sync_stats().syncs_done - s0.syncs_done;
    out.rep.absorb_all(workers);

    let t = Instant::now();
    match ps.finalize_distributed(FINALIZE_TIMEOUT) {
        FinalizeOutcome::Model(model) => out.model = Some(model_bits(model)),
        FinalizeOutcome::Released => {}
        FinalizeOutcome::TimedOut => out.rep.fail(format!("node {node} finalize timed out")),
    }
    out.rep.sys.finalize = t.elapsed();
    let t = Instant::now();
    ps.shutdown();
    out.rep.sys.shutdown = t.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(seed: u64) -> DriftPlan {
        let cfg = DriftConfig {
            n_keys: 256,
            hot_keys: 4,
            hot_share: 0.9,
            phases: 3,
            batches_per_phase: 40,
            batch: 8,
            seed,
        };
        DriftPlan::new(cfg, Topology::new(2, 1), 10)
    }

    /// Apply every push of the plan, one key at a time, to a model
    /// initialized like the parameter server's.
    fn replay(plan: &DriftPlan) -> Vec<Vec<u32>> {
        let n = plan.workload.config().n_keys as usize;
        let mut model: Vec<Vec<f32>> = (0..n)
            .map(|k| {
                let mut v = vec![0.0; VALUE_LEN];
                init_value(k as Key, &mut v);
                v
            })
            .collect();
        for epoch in &plan.batches {
            for worker in epoch {
                for batch in worker {
                    for &k in batch {
                        model[k as usize].iter_mut().for_each(|x| *x += 1.0);
                    }
                }
            }
        }
        model_bits(model)
    }

    #[test]
    fn oracle_matches_a_brute_force_replay() {
        for seed in [1, 2, 3] {
            let plan = tiny_plan(seed);
            assert_eq!(plan.expected_model(), replay(&plan));
        }
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        assert_eq!(tiny_plan(5).batches, tiny_plan(5).batches);
        assert_ne!(tiny_plan(5).batches, tiny_plan(6).batches);
        let plan = tiny_plan(5);
        assert_eq!(plan.batches.len(), 4, "warm-up epoch + 3 phases");
        assert_eq!(plan.batches[0][1].len(), 10);
        assert_eq!(plan.ops(), 2 * (2 * 10 + 3 * 2 * 40));
    }

    #[test]
    fn adaptive_sim_rep_is_correct_traced_or_not() {
        let plan = tiny_plan(9);
        let want = plan.expected_model();
        let wd = Watchdog::start(|| panic!("watchdog fired"));
        wd.arm(Duration::from_secs(60));
        for traced in [false, true] {
            let rep = rep_sim(&plan, &want, traced, &wd);
            assert!(rep.ok(), "{:?}", rep.failures);
            // Timed phases only: 2 workers x 3 phases x 40 batches of 8
            // keys, each pulled and pushed.
            assert_eq!(rep.keys, 2 * 3 * 40 * 8 * 2);
            assert_eq!(rep.steps, 2 * 3 * 40);
            assert_eq!(rep.ops, plan.ops());
            assert!(rep.makespan.as_nanos() > 0);
            assert_eq!(rep.trace.is_some(), traced);
            if let Some(t) = rep.trace {
                assert!(t.step_ns > 0 && !t.spans.is_empty());
                // Every span of a step is the step or a child of it.
                assert!(t.spans.iter().all(|s| s.parent.is_none() || s.parent == Some(0)));
            }
        }
    }

    #[test]
    fn a_wrong_model_fails_the_rep() {
        let plan = tiny_plan(4);
        let mut want = plan.expected_model();
        want[3][0] ^= 1;
        let wd = Watchdog::start(|| panic!("watchdog fired"));
        wd.arm(Duration::from_secs(60));
        let rep = rep_sim(&plan, &want, false, &wd);
        assert!(!rep.ok());
        assert!(rep.failures[0].contains("key 3"), "{:?}", rep.failures);
    }

    #[test]
    fn rendezvous_ports_lie_outside_the_ephemeral_range() {
        for _ in 0..20 {
            let port = rendezvous_port().expect("a free rendezvous port").port();
            assert!(RENDEZVOUS_PORTS.contains(&port), "{port}");
        }
    }

    #[test]
    fn tcp_rep_over_loopback_is_correct() {
        let plan = tiny_plan(11);
        let want = plan.expected_model();
        let wd = Watchdog::start(|| panic!("watchdog fired"));
        wd.arm(Duration::from_secs(60));
        let rep = rep_tcp(&plan, &want, true, &wd);
        assert!(rep.ok(), "{:?}", rep.failures);
        assert_eq!(rep.steps, 2 * 3 * 40);
        assert!(rep.counters.fabric_frames > 0, "traffic crossed the sockets");
        assert!(!rep.sys.bootstrap.is_zero());
    }
}
