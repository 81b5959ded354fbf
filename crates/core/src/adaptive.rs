//! Adaptive technique management: online hot-key detection and live
//! replication ↔ relocation migration.
//!
//! The paper picks each key's management technique *statically before
//! training* from dataset statistics and concedes the choice can be wrong
//! when access patterns shift. This module makes the choice adaptive, with
//! one migration protocol for every deployment:
//!
//! * Workers sample every key access into a lightweight count-min sketch
//!   ([`nups_sim::metrics::FreqSketch`]) — one relaxed atomic increment per
//!   row on the hot path. In a per-node deployment each process ships its
//!   sketch window to the *leader* (node 0) as a [`Msg::SketchReport`]; an
//!   in-process cluster shares one sketch.
//! * At every `adapt_every`-th replica-synchronization merge the leader
//!   re-scores all keys against the paper's replication-benefit heuristic:
//!   promote a relocated key whose estimated frequency exceeds
//!   `promote_factor ×` the mean, demote a replicated key that fell below
//!   `demote_factor ×` the mean (`demote_factor ≪ promote_factor` gives
//!   hysteresis against thrash).
//! * The leader assigns replica slots by simulating its own free list
//!   ([`crate::technique::TechniqueMap::plan_slots`]) and posts a
//!   versioned [`Msg::AdaptPlan`] to every node's server, itself included.
//!   Each server applies plans in epoch order to its own node's technique
//!   map and replica set: demotions seal the replica slot, install the
//!   sealed value at the key's home and ship every other node's unsynced
//!   residue there; promotions fence the key at its home, acquire the
//!   value through the relocation machinery, install the replica and
//!   broadcast a [`Msg::Promote`] that the peers install on receipt. A node
//!   acks the plan with a [`Msg::PlanAck`] once nothing of it is still in
//!   flight locally.
//! * The leader issues a new plan only after every node acked the previous
//!   one. When every worker of the cluster is parked at the leader's gate
//!   (`Deployment::AllInProcess`), the leader additionally waits out
//!   in-flight relocations of the keys it promotes before posting the plan
//!   and holds the gate until every node acked it. No worker can then race
//!   a technique flip and the sketch contents at a merge are a pure
//!   function of the per-worker access streams, which keeps adaptive runs
//!   deterministic in virtual time. A per-node leader's gate parks only
//!   its own workers, so it posts the plan and lets the servers migrate
//!   while the cluster runs.
//!
//! The leader prices every plan it issues: one broadcast of a
//! [`Msg::Promote`] per promotion, one broadcast of a small demotion notice
//! ([`Msg::demote_len`]) per demotion, and one final all-reduce round over
//! the demoted values. The gate folds that duration into the merge time
//! (slipping the next boundary and raising the congestion multiplier —
//! migration traffic competes like sync traffic does).

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use nups_sim::cost::WIRE_HEADER_BYTES;
use nups_sim::metrics::FreqSketch;
use nups_sim::net::Frame;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId};
use nups_sim::trace::actor;
use nups_sim::WireEncode;

use crate::key::Key;
use crate::messages::Msg;
use crate::node::Shared;
use crate::system::Deployment;
use crate::technique::TechniqueMap;

/// The node whose plan state issues adaptation plans and collects acks.
pub const ADAPT_LEADER: NodeId = NodeId(0);

/// How long the in-process leader waits for relocation traffic to drain
/// and for every node to ack its plan before declaring the protocol
/// wedged. Generous: the pending chains are finite and served by live
/// server threads in microseconds.
const MIGRATION_SETTLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Tuning knobs for the adaptive technique manager.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Run an adaptation round every this many synchronization merges.
    pub adapt_every: u64,
    /// Promote a relocated key when its estimated access frequency exceeds
    /// `promote_factor ×` the mean (the paper's untuned heuristic uses
    /// 100×).
    pub promote_factor: f64,
    /// Demote a replicated key when its estimate falls below
    /// `demote_factor ×` the mean. Keep well under `promote_factor` for
    /// hysteresis.
    pub demote_factor: f64,
    /// Hard cap on concurrently replicated keys.
    pub max_replicated: usize,
    /// At most this many promotions and this many demotions per round
    /// (bounds per-round migration cost).
    pub max_migrations_per_round: usize,
    /// Sketch width exponent: `1 << sketch_bits` counters per row.
    pub sketch_bits: u32,
    /// Halve the sketch after every adaptation round so drifting hot sets
    /// age out.
    pub decay: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            adapt_every: 4,
            promote_factor: 100.0,
            demote_factor: 25.0,
            max_replicated: 1 << 16,
            max_migrations_per_round: 64,
            sketch_bits: 16,
            decay: true,
        }
    }
}

/// The online hot-key detector plus the leader's plan issuer.
pub struct AdaptiveManager {
    cfg: AdaptiveConfig,
    sketch: FreqSketch,
    merges: AtomicU64,
}

impl AdaptiveManager {
    pub fn new(cfg: AdaptiveConfig) -> AdaptiveManager {
        let sketch = FreqSketch::new(cfg.sketch_bits);
        AdaptiveManager { cfg, sketch, merges: AtomicU64::new(0) }
    }

    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Record one worker access to `key` (called from every pull/push
    /// path; one relaxed atomic increment per sketch row).
    #[inline]
    pub fn record_access(&self, key: Key) {
        self.sketch.record(key, 1);
    }

    pub fn sketch(&self) -> &FreqSketch {
        &self.sketch
    }

    /// Called by the synchronization merge. Every `adapt_every`-th merge
    /// runs an adaptation round: a per-node peer ships its sketch window to
    /// the leader, the leader issues a plan. Returns the plan's modelled
    /// migration time, which the gate folds into the merge time.
    pub fn maybe_adapt(&self, shared: &Shared) -> SimDuration {
        let n = self.merges.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.cfg.adapt_every.max(1)) {
            return SimDuration::ZERO;
        }
        match shared.deployment {
            Deployment::SingleNode(me) if me != ADAPT_LEADER => {
                self.report_sketch(shared, me);
                SimDuration::ZERO
            }
            _ => self.lead_round(shared),
        }
    }

    /// Score all keys against the merged sketch: hottest promotions first,
    /// coldest demotions first, ties broken by key, both truncated to the
    /// configured per-round and capacity bounds. Deterministic in the
    /// sketch contents and the leader's technique map.
    fn score(&self, technique: &TechniqueMap) -> (Vec<Key>, Vec<Key>) {
        let total = self.sketch.total();
        if total == 0 {
            return (Vec::new(), Vec::new());
        }
        let n_keys = technique.n_keys();
        let mean = total as f64 / n_keys as f64;
        let promote_thr = (self.cfg.promote_factor * mean).max(1.0);
        let demote_thr = self.cfg.demote_factor * mean;

        let replicated = technique.replicated_flags();
        let mut promos: Vec<(u64, Key)> = Vec::new();
        let mut demos: Vec<(u64, Key)> = Vec::new();
        for key in 0..n_keys {
            let est = self.sketch.estimate(key);
            if replicated[key as usize] {
                if (est as f64) < demote_thr {
                    demos.push((est, key));
                }
            } else if est as f64 > promote_thr {
                promos.push((est, key));
            }
        }
        promos.sort_by_key(|&(est, key)| (Reverse(est), key));
        demos.sort_by_key(|&(est, key)| (est, key));
        demos.truncate(self.cfg.max_migrations_per_round);
        let slots_after_demote = technique.n_replicated().saturating_sub(demos.len());
        let capacity = self.cfg.max_replicated.saturating_sub(slots_after_demote);
        promos.truncate(self.cfg.max_migrations_per_round.min(capacity));
        let keys = |scored: Vec<(u64, Key)>| scored.into_iter().map(|(_, k)| k).collect();
        (keys(promos), keys(demos))
    }

    /// A per-node peer's share of a round: ship the sketch window.
    fn report_sketch(&self, shared: &Shared, me: NodeId) {
        let (rows, total) = self.sketch.drain_sparse();
        if total == 0 {
            return;
        }
        let [row0, row1] = rows;
        let report = Msg::SketchReport { from: me, total, row0, row1 };
        post_server(shared, me, ADAPT_LEADER, shared.gate.merge_boundary(), &report);
    }

    /// One adaptation round at the leader: score, then post a versioned
    /// plan to every node — but only once every node acked the previous
    /// plan, so the leader's technique map (and thus the slot assignment it
    /// simulates) reflects every migration it has ever issued, and at most
    /// one plan's traffic is in flight. When the gate parks every worker of
    /// the cluster, the round also holds the gate until the plan is acked.
    fn lead_round(&self, shared: &Shared) -> SimDuration {
        let leader = &shared.nodes[ADAPT_LEADER.index()];
        let ready = {
            let st = leader.plan.lock();
            st.quiesced(st.last_issued) && st.all_acked(st.last_issued)
        };
        if !ready {
            // Only reachable per-node: the sketch keeps accumulating.
            return SimDuration::ZERO;
        }
        shared.metrics.node(ADAPT_LEADER).inc(|m| &m.adaptation_rounds);
        let (promo_keys, demotions) = self.score(&leader.technique);
        if promo_keys.is_empty() && demotions.is_empty() {
            if self.cfg.decay {
                self.sketch.decay();
            }
            return SimDuration::ZERO;
        }
        let hold_gate = shared.deployment == Deployment::AllInProcess;
        if hold_gate {
            // Determinism requires that an already-issued localize is
            // *always* honored before the promotion fence goes up, never
            // raced: whether the home server had drained it first is a
            // real-time accident. Every worker is parked, so no new
            // relocation mark can appear once the last one clears.
            settle_or_abort(shared, "relocation traffic failed to quiesce", &mut || {
                !promo_keys.iter().any(|&k| shared.nodes.iter().any(|n| n.store.is_inflight(k)))
            });
        }
        let promotions = leader.technique.plan_slots(&demotions, &promo_keys);
        let epoch = leader.plan.lock().issue_plan();
        let boundary = shared.gate.merge_boundary();
        let n_migrations = (promotions.len() + demotions.len()) as u64;
        shared.obs.event(
            boundary,
            ADAPT_LEADER.0,
            actor::SYNC,
            "adapt_plan_issue",
            epoch,
            n_migrations,
        );
        let duration = price_plan(shared, &promotions, &demotions);
        let plan = Msg::AdaptPlan { epoch, promotions, demotions };
        for node in shared.topology.nodes() {
            // Including the leader itself: applying the plan on the server
            // loop serializes it with every other protocol message.
            post_server(shared, ADAPT_LEADER, node, boundary, &plan);
        }
        if hold_gate {
            settle_or_abort(shared, "an adaptation plan was not acked by every node", &mut || {
                leader.plan.lock().all_acked(epoch)
            });
        }
        if self.cfg.decay {
            self.sketch.decay();
        }
        duration
    }
}

/// Post a protocol message to `dst`'s server port over the fabric.
fn post_server(shared: &Shared, src: NodeId, dst: NodeId, sent_at: SimTime, msg: &Msg) {
    shared.fabric.post(Frame {
        src: Addr::server(src),
        dst: Addr::server(dst),
        sent_at,
        payload: msg.to_bytes(),
    });
}

/// Price one plan and record its migration traffic: the key's home
/// broadcasts a [`Msg::Promote`] per promotion and a demotion notice per
/// demotion to every peer, and one final all-reduce round carries the
/// demoted values' last deltas.
fn price_plan(shared: &Shared, promotions: &[(Key, u32)], demotions: &[Key]) -> SimDuration {
    let peers = shared.topology.n_nodes - 1;
    let pricing = shared.runtime.pricing();
    let mut duration = SimDuration::ZERO;
    let mut count = |key: Key, payload: usize| {
        let m = shared.metrics.node(shared.keyspace.home(key));
        m.add(|m| &m.migration_msgs, peers as u64);
        m.add(|m| &m.migration_bytes, (peers as usize * (payload + WIRE_HEADER_BYTES)) as u64);
        duration += pricing.broadcast(peers, payload);
    };
    for &key in demotions {
        count(key, Msg::demote_len());
    }
    for &(key, _) in promotions {
        count(key, Msg::promote_len(shared.value_len));
    }
    if !demotions.is_empty() {
        let bytes = demotions.len() * shared.value_bytes();
        duration += pricing.allreduce(shared.topology.sync_rounds(), bytes);
    }
    duration
}

/// Park the gate merge until `done` holds. The awaited work is finite and
/// served by live server threads in real time (each step wakes us via the
/// runtime's progress notification). A panic here would unwind inside the
/// gate merge and leave every other worker parked forever (parking_lot
/// does not poison), so a wedged protocol fails the process fast instead.
fn settle_or_abort(shared: &Shared, what: &str, done: &mut dyn FnMut() -> bool) {
    if !shared.runtime.wait_until(MIGRATION_SETTLE_TIMEOUT, done) {
        eprintln!("fatal: {what}");
        std::process::abort();
    }
}

/// One node's position in the adaptation plan stream.
///
/// Every node applies the leader's [`Msg::AdaptPlan`]s in plan order on its
/// server thread, fencing migrating keys so late-chasing traffic takes the
/// tombstone paths. This struct tracks where the node stands in that
/// pipeline; all transitions happen on the node's server thread (or, for
/// [`PlanProgress::issue_plan`], in the leader's gate merge), serialized by
/// the mutex.
pub type PlanState = Mutex<PlanProgress>;

#[derive(Default)]
pub struct PlanProgress {
    /// Leader only: epoch of the most recently issued plan.
    pub(crate) last_issued: u64,
    /// Epoch of the last plan this node applied (demotions executed,
    /// promotions initiated or awaiting their value): the number of
    /// adaptation rounds that migrated at least one key.
    pub(crate) applied_epoch: u64,
    /// Keys whose promotion is in flight: key → (plan epoch, target slot).
    pub(crate) pending_promote: FxHashMap<Key, (u64, u32)>,
    /// `Msg::Promote` installs for the next plan that arrived before it
    /// (a peer's Promote broadcast can overtake the leader's plan
    /// broadcast): `(key, epoch, slot, value)`.
    pub(crate) buffered_promotes: Vec<(Key, u64, u32, Vec<f32>)>,
    /// Sync-broadcast deltas for keys whose promotion is pending here: the
    /// sender already installed the replica, we have not. Applied right
    /// after the install so this node's base copy converges with the
    /// sender's (the coordinator's copy is what finalize reads). Only
    /// deltas from the pending promotion's own era are stashed — a
    /// stale-era delta (broadcast before the key's previous demotion) is
    /// already conserved through the home's store chain, and stashing it
    /// too would double-count it in the re-promoted replica.
    pub(crate) pending_deltas: FxHashMap<Key, Vec<Vec<f32>>>,
    /// Sync-broadcast deltas whose plan has not arrived here yet: the
    /// sender applied the next [`Msg::AdaptPlan`] (its stamp is one past
    /// our `applied_epoch`) and its broadcast overtook the leader's plan on
    /// a different link. Re-dispatched, in order, when the plan applies —
    /// dropping them instead would lose the delta whenever this node is
    /// the coordinator (its replica copy is what finalize reads).
    pub(crate) early_deltas: Vec<(u64, Key, Vec<f32>)>,
    /// Self-addressed residue pushes (demotion accumulators, stray keyed
    /// deltas folded at the home) not yet acknowledged.
    pub(crate) acks_outstanding: usize,
    /// Highest epoch this node has sent a [`Msg::PlanAck`] for.
    pub(crate) last_acked: u64,
    /// Leader only: highest epoch acked per node (self included).
    pub(crate) peer_acked: Vec<u64>,
}

impl PlanProgress {
    pub fn new(n_nodes: u16) -> PlanProgress {
        PlanProgress { peer_acked: vec![0; n_nodes as usize], ..PlanProgress::default() }
    }

    /// Leader: mint the next plan epoch.
    pub(crate) fn issue_plan(&mut self) -> u64 {
        self.last_issued += 1;
        self.last_issued
    }

    /// No migration work from any applied plan is still in flight locally.
    pub(crate) fn settled(&self) -> bool {
        self.pending_promote.is_empty()
            && self.buffered_promotes.is_empty()
            && self.pending_deltas.is_empty()
            && self.early_deltas.is_empty()
            && self.acks_outstanding == 0
    }

    /// Has this node fully applied every plan up to and including `epoch`?
    pub(crate) fn quiesced(&self, epoch: u64) -> bool {
        self.applied_epoch >= epoch && self.settled()
    }

    /// Leader: record a [`Msg::PlanAck`] (or the leader's own local ack).
    pub(crate) fn note_ack(&mut self, from: NodeId, epoch: u64) {
        let slot = &mut self.peer_acked[from.index()];
        *slot = (*slot).max(epoch);
    }

    /// Leader: has every node acked plan `epoch`?
    pub(crate) fn all_acked(&self, epoch: u64) -> bool {
        self.peer_acked.iter().all(|&e| e >= epoch)
    }
}
