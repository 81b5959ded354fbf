//! A [`PsWorker`] wrapper that times every call into the parameter server
//! from the caller's side, on the wall clock and on the worker's own
//! runtime clock (`PsWorker::now`, virtual on the simulator), and — in a
//! traced run — records one span per call parented to its step.
//!
//! A step ends at `advance_clock`, which both workloads call once per
//! step: after each drift batch and (inside the KGE task) after each
//! training triple.

use std::time::Instant;

use nups_core::api::PsWorker;
use nups_core::key::Key;
use nups_core::sampling::{DistId, SampleHandle};
use nups_sim::time::SimTime;

use crate::span::{self_times, Span};

/// The calls the benchmark times, named after the layer they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Pull,
    Push,
    PullMany,
    PushMany,
    Localize,
    PrepareSample,
    PullSample,
    ChargeCompute,
}

pub const N_CALLS: usize = 8;

impl Call {
    pub const ALL: [Call; N_CALLS] = [
        Call::Pull,
        Call::Push,
        Call::PullMany,
        Call::PushMany,
        Call::Localize,
        Call::PrepareSample,
        Call::PullSample,
        Call::ChargeCompute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Pull => "worker.pull",
            Call::Push => "worker.push",
            Call::PullMany => "worker.pull_many",
            Call::PushMany => "worker.push_many",
            Call::Localize => "store.localize",
            Call::PrepareSample => "sampling.prepare_sample",
            Call::PullSample => "sampling.pull_sample",
            Call::ChargeCompute => "worker.charge_compute",
        }
    }

    /// Whether the call is a parameter access (an "op"). `charge_compute`
    /// only advances the worker's clock and polls the sync gate.
    pub fn is_op(self) -> bool {
        self != Call::ChargeCompute
    }
}

/// Span bookkeeping of one traced worker.
pub struct Tracer {
    anchor: Instant,
    tid: u32,
    step_start: u64,
    open: Vec<Span>,
    /// Spans kept for the Chrome-trace export (bounded by `cap`).
    pub kept: Vec<Span>,
    cap: usize,
    /// Summed step-span durations, and the self time of each call kind
    /// (indexed like [`Call::ALL`]) and of the step itself (`ml`).
    pub step_ns: u64,
    pub call_self_ns: [u64; N_CALLS],
    pub ml_self_ns: u64,
}

impl Tracer {
    pub fn new(anchor: Instant, tid: u32, cap: usize) -> Tracer {
        Tracer {
            anchor,
            tid,
            step_start: 0,
            open: Vec::new(),
            kept: Vec::new(),
            cap,
            step_ns: 0,
            call_self_ns: [0; N_CALLS],
            ml_self_ns: 0,
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    fn step_id(&self, step: u64) -> u64 {
        (self.tid as u64) << 48 | step
    }

    /// Close the current step at `now`: add its spans' self times to the
    /// per-layer sums and keep them for the export while there is room.
    fn close_step(&mut self, step: u64, now: Instant) {
        let end = self.at(now);
        let step_span = Span {
            name: "ml.step",
            step: self.step_id(step),
            id: 0,
            parent: None,
            start: self.step_start,
            end,
            tid: self.tid,
        };
        self.open.push(step_span);
        let selfs = self_times(&self.open);
        for (span, own) in self.open.iter().zip(&selfs) {
            match Call::ALL.iter().position(|c| c.name() == span.name) {
                Some(i) => self.call_self_ns[i] += own,
                None => self.ml_self_ns += own,
            }
        }
        self.step_ns += step_span.dur();
        if self.kept.len() + self.open.len() <= self.cap {
            self.kept.append(&mut self.open);
        }
        self.open.clear();
        self.step_start = end;
    }
}

/// Everything one worker's wrapper observed.
pub struct Recorder {
    /// Wall latency of each call, nanoseconds, by call kind.
    pub wall: [Vec<u32>; N_CALLS],
    /// Latency of each op on the worker's runtime clock, nanoseconds.
    pub virt: Vec<u64>,
    /// Keys pulled + pushed (sampled keys count as pulled).
    pub keys: u64,
    /// Ops issued (calls with [`Call::is_op`]).
    pub ops: u64,
    /// Steps completed.
    pub steps: u64,
    /// Threads of the process at this worker's first recorded call.
    pub threads: u64,
    pub tracer: Option<Tracer>,
}

impl Recorder {
    fn new(tracer: Option<Tracer>) -> Recorder {
        Recorder {
            wall: Default::default(),
            virt: Vec::new(),
            keys: 0,
            ops: 0,
            steps: 0,
            threads: 0,
            tracer,
        }
    }
}

pub struct TimedWorker<W> {
    inner: W,
    pub rec: Recorder,
}

impl<W: PsWorker> TimedWorker<W> {
    pub fn new(inner: W, tracer: Option<Tracer>) -> TimedWorker<W> {
        TimedWorker { inner, rec: Recorder::new(tracer) }
    }

    /// Drop everything recorded so far (the warm-up), keeping the tracer's
    /// anchor and lane.
    pub fn reset(&mut self) {
        let tracer = self.rec.tracer.take().map(|t| Tracer::new(t.anchor, t.tid, t.cap));
        self.rec = Recorder::new(tracer);
    }

    fn timed<R>(&mut self, call: Call, f: impl FnOnce(&mut W) -> R) -> R {
        if self.rec.threads == 0 {
            self.rec.threads = crate::threads_now();
        }
        let v0 = call.is_op().then(|| self.inner.now());
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let t1 = Instant::now();
        if let Some(v0) = v0 {
            self.rec.virt.push(self.inner.now().saturating_since(v0).as_nanos());
            self.rec.ops += 1;
        }
        let ns = t1.duration_since(t0).as_nanos().min(u32::MAX as u128) as u32;
        self.rec.wall[call as usize].push(ns);
        if let Some(tr) = &mut self.rec.tracer {
            let span = Span {
                name: call.name(),
                step: tr.step_id(self.rec.steps),
                id: tr.open.len() as u32 + 1,
                parent: Some(0),
                start: tr.at(t0),
                end: tr.at(t1),
                tid: tr.tid,
            };
            tr.open.push(span);
        }
        r
    }
}

impl<W: PsWorker> PsWorker for TimedWorker<W> {
    fn value_len(&self) -> usize {
        self.inner.value_len()
    }

    fn pull(&mut self, key: Key, out: &mut [f32]) {
        self.rec.keys += 1;
        self.timed(Call::Pull, |w| w.pull(key, out))
    }

    fn push(&mut self, key: Key, delta: &[f32]) {
        self.rec.keys += 1;
        self.timed(Call::Push, |w| w.push(key, delta))
    }

    fn pull_many(&mut self, keys: &[Key], out: &mut [f32]) {
        self.rec.keys += keys.len() as u64;
        self.timed(Call::PullMany, |w| w.pull_many(keys, out))
    }

    fn push_many(&mut self, keys: &[Key], deltas: &[f32]) {
        self.rec.keys += keys.len() as u64;
        self.timed(Call::PushMany, |w| w.push_many(keys, deltas))
    }

    fn localize(&mut self, keys: &[Key]) {
        self.timed(Call::Localize, |w| w.localize(keys))
    }

    fn advance_clock(&mut self) {
        self.inner.advance_clock();
        let now = Instant::now();
        let step = self.rec.steps;
        if let Some(tr) = &mut self.rec.tracer {
            tr.close_step(step, now);
        }
        self.rec.steps += 1;
    }

    fn charge_compute(&mut self, flops: u64) {
        self.timed(Call::ChargeCompute, |w| w.charge_compute(flops))
    }

    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        self.timed(Call::PrepareSample, |w| w.prepare_sample(dist, n))
    }

    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        let out = self.timed(Call::PullSample, |w| w.pull_sample(handle, n));
        self.rec.keys += out.len() as u64;
        out
    }

    fn begin_epoch(&mut self) {
        self.inner.begin_epoch();
        if let Some(tr) = &mut self.rec.tracer {
            tr.step_start = tr.at(Instant::now());
        }
    }

    fn end_epoch(&mut self) {
        self.inner.end_epoch()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// Wrap `workers`; in a traced run, give each a tracer on its own lane,
/// numbered from `first_tid`.
pub fn wrap<W: PsWorker>(
    workers: Vec<W>,
    traced: bool,
    anchor: Instant,
    first_tid: usize,
) -> Vec<TimedWorker<W>> {
    workers
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let tracer =
                traced.then(|| Tracer::new(anchor, (first_tid + i) as u32, crate::SPAN_CAP));
            TimedWorker::new(w, tracer)
        })
        .collect()
}
