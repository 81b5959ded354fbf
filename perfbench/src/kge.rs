//! `kge-local`: knowledge-graph embeddings at the `small` scale of
//! `nups_bench::tasks` (ComplEx + AdaGrad, 4 uniform negatives per side
//! through `prepare_sample`/`pull_sample`, `localize` prefetch) on
//! 1 node × 2 workers, wall clock, in-process — the paper's single-node
//! baseline. No network, no relocation, no replica sync: the sampling
//! layer, the local store path and the model's compute do the work.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use nups_core::runtime::Backend;
use nups_core::system::run_epoch;
use nups_core::{NupsConfig, NupsWorker, ParameterServer};
use nups_ml::kge::{KgeConfig, KgeTask};
use nups_ml::task::TrainTask;
use nups_workloads::kg::{KgConfig, KnowledgeGraph};

use crate::rep::{diff_hists, Rep};
use crate::timed::{wrap, TimedWorker};
use crate::watchdog::Watchdog;

/// Epochs per repetition; the first is the warm-up.
pub const EPOCHS: usize = 4;

/// Filtered MRR the trained model must reach after [`EPOCHS`] epochs:
/// 40 times what random ranking of 20 000 entities scores (5e-5). Trained
/// models score 0.004 to 0.04 — the 400 test rankings are few, and
/// Hogwild interleaving varies from run to run.
pub const MRR_FLOOR: f64 = 0.002;

const WORKERS: u16 = 2;

pub struct KgeInputs {
    pub task: KgeTask,
    n_train: u64,
}

impl KgeInputs {
    /// The `small`-scale graph and task, generated from `seed`.
    pub fn new(seed: u64) -> KgeInputs {
        let (e, r, train, test, dc, n_neg) = (20_000, 16, 40_000, 200, 8, 4);
        let kg = Arc::new(KnowledgeGraph::generate(KgConfig {
            n_entities: e,
            n_relations: r,
            n_train: train,
            n_test: test,
            n_clusters: 16,
            popularity_alpha: 1.0,
            noise: 0.05,
            seed,
        }));
        let cfg = KgeConfig { dc, n_neg, eval_triples: test, seed, ..KgeConfig::default() };
        KgeInputs { task: KgeTask::new(kg, cfg, WORKERS as usize), n_train: train as u64 }
    }

    /// Ops one repetition issues: per triple one `localize` (prefetch), one
    /// `prepare_sample`, one `pull_many`, two `pull_sample`s and one
    /// `push_many`.
    pub fn ops_per_rep(&self) -> u64 {
        EPOCHS as u64 * 6 * self.n_train
    }
}

/// One repetition of `kge-local`.
pub fn rep(inputs: &KgeInputs, seed: u64, traced: bool, wd: &Watchdog) -> Rep {
    let task = &inputs.task;
    let mut rep = Rep { traced, ..Rep::default() };
    let anchor = Instant::now();
    let cfg = NupsConfig::single_node(WORKERS, task.n_keys(), task.value_len())
        .with_backend(Backend::WallClock)
        .with_seed(seed);
    let ps = ParameterServer::new(cfg, |k, out| task.init_value(k, out));
    rep.sys.deploy = anchor.elapsed();
    let t = Instant::now();
    for d in task.distributions() {
        ps.register_distribution(d.base_key, d.n, d.kind, d.level);
    }
    rep.sys.register = t.elapsed();
    rep.setup = anchor.elapsed();
    wd.watch(ps.observability());
    let mut workers = wrap(ps.workers(), traced, anchor, 0);

    let losses = Mutex::new(Vec::new());
    let train = |workers: &mut [TimedWorker<NupsWorker>], epoch: usize| {
        run_epoch(workers, |i, w| {
            let loss = task.run_epoch(w, i, epoch);
            losses.lock().unwrap().push(loss);
        });
    };
    train(&mut workers, 0);
    rep.ops = workers.iter().map(|w| w.rec.ops).sum();
    workers.iter_mut().for_each(TimedWorker::reset);
    let (m0, h0, v0) = (ps.metrics(), ps.observability().hists.snapshot(), ps.virtual_time());
    let t = Instant::now();
    for epoch in 1..EPOCHS {
        train(&mut workers, epoch);
    }
    rep.window = t.elapsed();
    rep.makespan = ps.virtual_time().saturating_since(v0);
    rep.counters = ps.metrics() - m0;
    rep.hists = diff_hists(&ps.observability().hists.snapshot(), &h0);
    rep.ops += workers.iter().map(|w| w.rec.ops).sum::<u64>();
    rep.absorb_all(workers);

    let t = Instant::now();
    let model = ps.read_all();
    rep.sys.finalize = t.elapsed();
    let losses = losses.into_inner().unwrap();
    if let Some(l) = losses.iter().find(|l| !l.is_finite()) {
        rep.fail(format!("training loss is not finite ({l})"));
    }
    let mrr = task.evaluate(&model);
    rep.quality = Some(mrr);
    if mrr.is_nan() || mrr < MRR_FLOOR {
        rep.fail(format!("MRR {mrr:.5} is below the floor {MRR_FLOOR}"));
    }
    let t = Instant::now();
    ps.shutdown();
    rep.sys.shutdown = t.elapsed();
    rep
}
