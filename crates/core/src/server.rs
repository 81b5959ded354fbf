//! The per-node server loop.
//!
//! One server thread per node demultiplexes protocol messages: remote
//! pulls/pushes (forwarding them along the ownership chain when the key
//! moved), the three-message Lapse relocation protocol, and shutdown. The
//! server never blocks on a parameter: operations against in-flight keys
//! are parked on the store entry and answered when the transfer installs,
//! which keeps the loop live and the per-key operation order sequential.

use std::sync::Arc;

use rustc_hash::FxHashSet;

use nups_sim::codec::WireEncode;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId};
use nups_sim::trace::actor;

use crate::adaptive::ADAPT_LEADER;
use crate::key::Key;
use crate::messages::{KeyUpdate, Msg};
use crate::node::{NodeState, Shared};
use crate::runtime::Port;
use crate::store::{PromoteTake, QueuedOp, ServerAccess, TakeOutcome};

/// Append `item` to `dst`'s group, keeping one group per destination in
/// first-appearance order (node counts are small; linear scan wins over a
/// map).
pub(crate) fn group_by_node<T>(groups: &mut Vec<(NodeId, Vec<T>)>, dst: NodeId, item: T) {
    match groups.iter_mut().find(|(n, _)| *n == dst) {
        Some((_, items)) => items.push(item),
        None => groups.push((dst, vec![item])),
    }
}

pub struct Server {
    shared: Arc<Shared>,
    state: Arc<NodeState>,
    endpoint: Box<dyn Port>,
}

impl Server {
    pub fn new(shared: Arc<Shared>, state: Arc<NodeState>, endpoint: Box<dyn Port>) -> Server {
        Server { shared, state, endpoint }
    }

    /// Run until a `Stop` message arrives or the network shuts down.
    pub fn run(mut self) {
        while let Some(frame) = self.endpoint.recv() {
            let mut payload = frame.payload;
            let Ok(msg) = Msg::decode(&mut payload) else {
                self.reject(frame.sent_at, "undecodable_frame", 0);
                continue;
            };
            if !self.handle(msg, frame.sent_at) {
                break;
            }
        }
    }

    fn me(&self) -> NodeId {
        self.state.node
    }

    fn send(&mut self, dst: Addr, at: SimTime, msg: &Msg) {
        self.endpoint.send(dst, at, msg.to_bytes());
    }

    /// Journal one instant event in this node's server lane. `at` is the
    /// incoming frame's send stamp, so under the virtual backend the
    /// event timeline is a pure function of the workload.
    #[inline]
    fn journal(&self, at: SimTime, name: &'static str, a: u64, b: u64) {
        self.shared.obs.event(at, self.me().0, actor::SERVER, name, a, b);
    }

    /// Returns `false` on `Stop`.
    fn handle(&mut self, msg: Msg, at: SimTime) -> bool {
        match msg {
            Msg::PullReq { key, reply_to, hops } => self.handle_pull(key, reply_to, hops, at),
            Msg::PushReq { key, delta, reply_to, hops } => {
                self.handle_push(key, delta, reply_to, hops, at)
            }
            Msg::LocalizeReq { key, requester } => self.handle_localize(key, requester, at),
            Msg::ForwardLocalize { key, requester } => {
                self.handle_forward_localize(key, requester, at)
            }
            Msg::Transfer { key, value } => self.handle_transfer(key, value, at),
            Msg::PullBatchReq { keys, reply_to, hops } => {
                self.handle_pull_batch(keys, reply_to, hops, at)
            }
            Msg::PushBatchReq { updates, reply_to, hops } => {
                self.handle_push_batch(updates, reply_to, hops, at)
            }
            Msg::LocalizeBatchReq { keys, requester } => {
                for key in keys {
                    self.handle_localize(key, requester, at);
                }
            }
            Msg::ReplicaDeltas { from, epoch, updates } => {
                self.handle_replica_deltas(from, epoch, updates, at)
            }
            Msg::SyncFin { .. } => self.shared.note_sync_fin(),
            Msg::FinFence { .. } => self.shared.note_fin_fence(),
            Msg::SketchReport { from, total, row0, row1 } => {
                self.handle_sketch_report(from, total, &row0, &row1, at)
            }
            Msg::AdaptPlan { epoch, promotions, demotions } => {
                self.handle_adapt_plan(epoch, promotions, demotions, at)
            }
            Msg::Promote { key, epoch, slot, value } => {
                self.handle_promote(key, epoch, slot, value, at)
            }
            Msg::PlanAck { from, epoch } => self.handle_plan_ack(from, epoch, at),
            // The only pushes a server issues carry its own server port as
            // the reply address: demotion residues and stray sync deltas
            // folded at the home. Their acks land here.
            Msg::PushAck { .. } => self.handle_self_ack(at),
            Msg::Stop => return false,
            _ => self.reject(at, "unexpected_message", 0),
        }
        true
    }

    /// Drop a frame no correct peer sends — malformed, out of range, or
    /// contradicting this node's plan state — and count it. Remote input
    /// must never take the server thread down.
    fn reject(&self, at: SimTime, reason: &'static str, key: Key) {
        self.shared.metrics.node(self.me()).inc(|m| &m.protocol_errors);
        self.journal(at, reason, key, 0);
    }

    fn in_keyspace(&self, key: Key) -> bool {
        key < self.shared.keyspace.n_keys()
    }

    /// Resolve where an operation on `key` should go when we do not own
    /// it: follow a tombstone if we have one, otherwise re-route via home.
    fn chase(&self, key: Key, hint: Option<NodeId>) -> NodeId {
        hint.unwrap_or_else(|| self.shared.keyspace.home(key))
    }

    /// Serve a pull for a key that migrated to replication from the local
    /// replica set. `None` when the key has since been demoted again (the
    /// caller re-routes via the home directory).
    ///
    /// The slot lookup and the replica access are two acquisitions; the
    /// keyed replica access re-checks the slot's tenant, so a migration in
    /// between turns into a clean miss.
    fn replica_pull(&self, key: Key) -> Option<Vec<f32>> {
        let slot = self.state.technique.replica_slot(key)?;
        let mut value = vec![0.0; self.shared.value_len];
        if !self.state.replicas.pull(slot, key, &mut value) {
            // The slot is sealed or re-keyed: a demotion is mid-flight on
            // this very thread's message stream. The caller re-routes via
            // the home, which holds (or is about to hold) the key.
            return None;
        }
        self.shared.metrics.node(self.me()).inc(|m| &m.replica_pulls);
        Some(value)
    }

    /// Apply a late-chasing push for a migrated key to the local replica
    /// set (folded into the next synchronization — applied exactly once).
    fn replica_push(&self, key: Key, delta: &[f32]) -> bool {
        let Some(slot) = self.state.technique.replica_slot(key) else { return false };
        if !self.state.replicas.push(slot, key, delta) {
            return false;
        }
        self.shared.metrics.node(self.me()).inc(|m| &m.replica_pushes);
        true
    }

    fn handle_pull(&mut self, key: Key, reply_to: Addr, hops: u8, at: SimTime) {
        // At the home node, consult the directory first: the request may
        // need forwarding to the current owner.
        if let Some(owner) = self.directory_detour(key) {
            let fwd = Msg::PullReq { key, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(owner), at, &fwd);
            return;
        }
        match self.state.store.server_pull(key, reply_to, hops) {
            ServerAccess::Served(Some(value)) => {
                let resp = Msg::PullResp { key, value, hops: hops.saturating_add(1) };
                self.send(reply_to, at, &resp);
            }
            ServerAccess::Served(None) => unreachable!("pull always returns a value"),
            ServerAccess::Queued => {} // answered at install time
            ServerAccess::Migrated => match self.replica_pull(key) {
                Some(value) => {
                    let resp = Msg::PullResp { key, value, hops: hops.saturating_add(1) };
                    self.send(reply_to, at, &resp);
                }
                None => {
                    let fwd = Msg::PullReq { key, reply_to, hops: hops.saturating_add(1) };
                    self.send(Addr::server(self.shared.keyspace.home(key)), at, &fwd);
                }
            },
            ServerAccess::NotHere(hint) => {
                let dst = self.chase(key, hint);
                let fwd = Msg::PullReq { key, reply_to, hops: hops.saturating_add(1) };
                self.send(Addr::server(dst), at, &fwd);
            }
        }
    }

    fn handle_push(&mut self, key: Key, delta: Vec<f32>, reply_to: Addr, hops: u8, at: SimTime) {
        if let Some(owner) = self.directory_detour(key) {
            let fwd = Msg::PushReq { key, delta, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(owner), at, &fwd);
            return;
        }
        // The store borrows the delta: the served fast path applies it in
        // place, and only the queued path copies. On the not-here path we
        // still own `delta` and move it into the forward.
        match self.state.store.server_push(key, &delta, reply_to, hops) {
            ServerAccess::Served(_) => {
                let ack = Msg::PushAck { key, hops: hops.saturating_add(1) };
                self.send(reply_to, at, &ack);
            }
            ServerAccess::Queued => {}
            ServerAccess::Migrated => {
                if self.replica_push(key, &delta) {
                    let ack = Msg::PushAck { key, hops: hops.saturating_add(1) };
                    self.send(reply_to, at, &ack);
                } else {
                    let home = self.shared.keyspace.home(key);
                    let fwd = Msg::PushReq { key, delta, reply_to, hops: hops.saturating_add(1) };
                    self.send(Addr::server(home), at, &fwd);
                }
            }
            ServerAccess::NotHere(hint) => {
                let dst = self.chase(key, hint);
                let fwd = Msg::PushReq { key, delta, reply_to, hops: hops.saturating_add(1) };
                self.send(Addr::server(dst), at, &fwd);
            }
        }
    }

    /// Batched pull: answer the locally-owned subset in one message, park
    /// in-flight entries (each answers individually at install), and
    /// forward the remainder grouped by next hop.
    fn handle_pull_batch(&mut self, keys: Vec<Key>, reply_to: Addr, hops: u8, at: SimTime) {
        let mut fwd: Vec<(NodeId, Vec<Key>)> = Vec::new();
        let mut local = Vec::with_capacity(keys.len());
        for key in keys {
            match self.directory_detour(key) {
                Some(owner) => group_by_node(&mut fwd, owner, key),
                None => local.push(key),
            }
        }
        let out = self.state.store.server_pull_batch(&local, reply_to, hops);
        for (key, hint) in out.not_here {
            group_by_node(&mut fwd, self.chase(key, hint), key);
        }
        let mut values = out.served;
        for key in out.migrated {
            match self.replica_pull(key) {
                Some(value) => values.push(KeyUpdate { key, delta: value }),
                None => group_by_node(&mut fwd, self.shared.keyspace.home(key), key),
            }
        }
        if !values.is_empty() {
            let resp = Msg::PullBatchResp { values, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &resp);
        }
        for (dst, keys) in fwd {
            let m = Msg::PullBatchReq { keys, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(dst), at, &m);
        }
    }

    /// Batched push, mirroring [`Server::handle_pull_batch`].
    fn handle_push_batch(
        &mut self,
        updates: Vec<KeyUpdate>,
        reply_to: Addr,
        hops: u8,
        at: SimTime,
    ) {
        let mut fwd: Vec<(NodeId, Vec<KeyUpdate>)> = Vec::new();
        let mut local = Vec::with_capacity(updates.len());
        for update in updates {
            match self.directory_detour(update.key) {
                Some(owner) => group_by_node(&mut fwd, owner, update),
                None => local.push(update),
            }
        }
        let out = self.state.store.server_push_batch(local, reply_to, hops);
        for (update, hint) in out.not_here {
            let dst = self.chase(update.key, hint);
            group_by_node(&mut fwd, dst, update);
        }
        let mut acked = out.served;
        for update in out.migrated {
            if self.replica_push(update.key, &update.delta) {
                acked.push(update.key);
            } else {
                let home = self.shared.keyspace.home(update.key);
                group_by_node(&mut fwd, home, update);
            }
        }
        if !acked.is_empty() {
            let ack = Msg::PushBatchAck { keys: acked, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &ack);
        }
        for (dst, updates) in fwd {
            let m = Msg::PushBatchReq { updates, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(dst), at, &m);
        }
    }

    /// At the home node, the location directory may say the key lives
    /// elsewhere even though no tombstone survives locally; such requests
    /// detour straight to the recorded owner.
    fn directory_detour(&self, key: Key) -> Option<NodeId> {
        if self.shared.keyspace.home(key) == self.me() {
            let owner = self.state.directory.owner(key);
            if owner != self.me() {
                return Some(owner);
            }
        }
        None
    }

    /// A peer's replica-synchronization broadcast (per-node deployments):
    /// fold its accumulated deltas into the local replica set. Each update
    /// carries the real parameter key; applying is additive and
    /// commutative, so no coordination with concurrent local pushes is
    /// needed beyond the slot lock.
    ///
    /// `epoch` is the sender's applied plan epoch at drain time, which
    /// identifies the replication *era* the deltas belong to (the plan
    /// that last promoted each key). See
    /// [`Server::dispatch_replica_delta`] for the conservation rules.
    fn handle_replica_deltas(
        &mut self,
        from: NodeId,
        epoch: u64,
        updates: Vec<KeyUpdate>,
        at: SimTime,
    ) {
        if from == self.me() || from.0 >= self.shared.topology.n_nodes {
            return self.reject(at, "bad_replica_deltas", 0);
        }
        for u in updates {
            self.dispatch_replica_delta(epoch, u.key, u.delta, at);
        }
        // Replica state advanced: wake evaluation reads parked on progress.
        self.shared.runtime.notify_progress();
    }

    /// Route one sync-broadcast delta so it lands in the final model
    /// exactly once, whatever migrations raced it in flight. `stamp` is
    /// the replication era the delta was drained under — the epoch of the
    /// plan that installed the sender's tenancy — read under the sender's
    /// slot lock, so it is exact:
    ///
    /// * **Same era, slot installed** — the common case — fold into the
    ///   local replica copy. [`ReplicaSet::apply_foreign`] re-checks the
    ///   era under the slot lock, so a racing migration turns the apply
    ///   into a clean miss rather than a cross-era write.
    /// * **Same era, install pending** (our promotion has not landed yet):
    ///   stash in `pending_deltas`; applied right after the install so our
    ///   base copy converges with the sender's.
    /// * **Next era** (the installing plan has not applied here yet):
    ///   hold in `early_deltas` and re-dispatch when the plan applies.
    ///   Dropping would lose the delta whenever we are the coordinator.
    ///   The leader issues a plan only after every node acked the previous
    ///   one, so no correct sender runs more than one plan ahead.
    /// * **Stale era** (the key's tenancy ended — and possibly restarted —
    ///   after the broadcast left the sender): the delta must not touch
    ///   the new era's replica; the demotion already sealed every copy it
    ///   was meant for. Every node received this same broadcast, so
    ///   exactly one of them — the **home** — folds it through the regular
    ///   push path: into its store, a mid-acquisition promotion value, or
    ///   (if the key is replicated again) its replica *accumulator*,
    ///   whence the next sync re-broadcasts it to everyone under the new
    ///   era. Every other node drops it.
    ///
    /// Home folds are self-addressed pushes counted in
    /// `acks_outstanding`, so finalize's drain barrier waits for them even
    /// when the fold chases a relocated key onto another node.
    fn dispatch_replica_delta(&mut self, stamp: u64, key: Key, delta: Vec<f32>, at: SimTime) {
        if !self.in_keyspace(key) {
            return self.reject(at, "bad_replica_delta", key);
        }
        if let Some(slot) = self.state.technique.replica_slot(key) {
            if self.state.replicas.apply_foreign(slot, key, stamp, &delta) {
                return;
            }
            // Era or tenancy mismatch: resolved below like any other miss.
        }
        {
            let mut st = self.state.plan.lock();
            match st.pending_promote.get(&key) {
                Some(&(promote_epoch, _)) if stamp == promote_epoch => {
                    st.pending_deltas.entry(key).or_default().push(delta);
                    return;
                }
                // Stale era: fall through to home-or-drop.
                Some(&(promote_epoch, _)) if stamp < promote_epoch => {}
                None if stamp <= st.applied_epoch => {}
                None if stamp == st.applied_epoch + 1 => {
                    st.early_deltas.push((stamp, key, delta));
                    return;
                }
                _ => {
                    drop(st);
                    return self.reject(at, "replica_delta_from_the_future", key);
                }
            }
        }
        if self.shared.keyspace.home(key) == self.me() {
            self.state.plan.lock().acks_outstanding += 1;
            self.handle_push(key, delta, Addr::server(self.me()), 0, at);
        }
    }

    /// First message of the relocation protocol, handled at the home node:
    /// update the location directory and tell the current owner to hand
    /// the key over.
    fn handle_localize(&mut self, key: Key, requester: NodeId, at: SimTime) {
        debug_assert_eq!(self.shared.keyspace.home(key), self.me(), "localize not at home");
        // Replication-managed keys never relocate, and keys mid-promotion
        // must not start a relocation either: the promotion take would
        // race a transfer it cannot see, stranding the value. The dropped
        // request's in-flight mark at the requester is cleaned up by the
        // promotion sweep.
        if self.state.technique.localize_blocked(key) {
            return;
        }
        let owner = self.state.directory.owner(key);
        if owner == requester {
            // A transfer to the requester is already under way; its
            // in-flight entry will resolve it.
            return;
        }
        self.state.directory.set_owner(key, requester);
        self.journal(at, "localize", key, requester.0 as u64);
        if owner == self.me() {
            self.handle_forward_localize(key, requester, at);
        } else {
            self.send(Addr::server(owner), at, &Msg::ForwardLocalize { key, requester });
        }
    }

    /// Second message: the (believed) owner relinquishes the key.
    fn handle_forward_localize(&mut self, key: Key, requester: NodeId, at: SimTime) {
        match self.state.store.take_for_transfer(key, requester) {
            TakeOutcome::Taken(value) => {
                self.send(Addr::server(requester), at, &Msg::Transfer { key, value });
            }
            TakeOutcome::Deferred => {} // handed over right after install
            // The key migrated to replication while this request chased
            // it; the relocation is void.
            TakeOutcome::Promoted => {}
            TakeOutcome::NotHere(hint) => {
                // The key moved on before this request caught up with it:
                // chase the tombstone chain.
                let dst = self.chase(key, hint);
                debug_assert_ne!(dst, self.me(), "forward-localize chase loop at {}", self.me());
                self.send(Addr::server(dst), at, &Msg::ForwardLocalize { key, requester });
            }
        }
    }

    /// Third message: the value arrives; serve everything that queued up.
    fn handle_transfer(&mut self, key: Key, value: Vec<f32>, at: SimTime) {
        // A transfer for a key that is (now) replication-managed must not
        // resurrect store ownership: the promotion protocol settles every
        // relocation chain before taking the value, so this transfer can
        // only be a stale duplicate whose payload the replicas supersede.
        if self.state.technique.is_replicated(key) {
            return;
        }
        // Count before installing: install wakes workers blocked on the
        // key, and an observer must not see the wake before the count.
        self.shared.metrics.node(self.me()).inc(|m| &m.relocations);
        self.journal(at, "transfer_install", key, 0);
        let out = self.state.store.install(key, value);
        for (value, reply_to, hops) in out.pull_replies {
            let resp = Msg::PullResp { key, value, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &resp);
        }
        for (reply_to, hops) in out.push_acks {
            let ack = Msg::PushAck { key, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &ack);
        }
        if let Some((node, value)) = out.release {
            self.send(Addr::server(node), at, &Msg::Transfer { key, value });
        }
        // Wake control-plane waiters parked on cluster progress: an
        // evaluation read racing this relocation, or the adaptive manager
        // waiting for a chain to settle before a promotion.
        self.shared.runtime.notify_progress();
        // Distributed promotion acquisition: if this node is the key's
        // home and a plan is waiting on the key, this install may be the
        // hand-over the acquisition chased.
        self.maybe_complete_promotion(key, at);
    }

    // ------------------------------------------------------------------
    // Adaptive technique management (see `crate::adaptive`).
    //
    // The leader posts a versioned `AdaptPlan` to every node; each node's
    // server thread applies plans in epoch order to its own technique map
    // and replica set. Demotions execute immediately (the replica slot is
    // sealed, so late keyed accesses fail over to the home). Promotions run
    // through the regular relocation machinery: the key's home fences it,
    // acquires the value by chasing the ownership chain, installs the
    // replica, and broadcasts `Promote`; peers install on receipt. A node
    // acks the plan to the leader once nothing of it — pending installs,
    // buffered messages, unacknowledged residues — is still in flight
    // locally.
    // ------------------------------------------------------------------

    /// A peer's count-min sketch window, folded into the leader's sketch.
    fn handle_sketch_report(
        &mut self,
        from: NodeId,
        total: u64,
        row0: &[(u32, u64)],
        row1: &[(u32, u64)],
        at: SimTime,
    ) {
        let valid =
            self.me() == ADAPT_LEADER && from != self.me() && from.0 < self.shared.topology.n_nodes;
        match self.shared.adaptive.as_ref() {
            Some(adaptive) if valid => adaptive.sketch().merge([row0, row1], total),
            _ => self.reject(at, "bad_sketch_report", 0),
        }
    }

    /// Check a plan against this node's state before applying any of it.
    /// Only adaptive servers receive plans. Every node applies the same
    /// plans in the same order and acks one only once it fully settled,
    /// and the leader issues the next plan only after every ack — so a
    /// correct plan is the next epoch, finds no promotion still pending,
    /// demotes distinct replicated keys, promotes distinct relocated keys,
    /// and assigns exactly the slots this node's own map would.
    fn check_plan(
        &self,
        epoch: u64,
        promotions: &[(Key, u32)],
        demotions: &[Key],
    ) -> Result<(), &'static str> {
        if self.shared.adaptive.is_none() {
            return Err("plan_without_adaptation");
        }
        {
            let st = self.state.plan.lock();
            if epoch != st.applied_epoch + 1 || !st.pending_promote.is_empty() {
                return Err("plan_out_of_order");
            }
        }
        let technique = &self.state.technique;
        let mut seen = FxHashSet::default();
        let mut fresh = |key: Key| self.in_keyspace(key) && seen.insert(key);
        if !demotions.iter().all(|&k| fresh(k) && technique.is_replicated(k)) {
            return Err("bad_plan_demotion");
        }
        let keys: Vec<Key> = promotions.iter().map(|&(k, _)| k).collect();
        if !keys.iter().all(|&k| fresh(k) && !technique.is_replicated(k)) {
            return Err("bad_plan_promotion");
        }
        if technique.plan_slots(demotions, &keys) != promotions {
            return Err("bad_plan_slots");
        }
        Ok(())
    }

    /// One adaptation round's migration plan. Runs on every node
    /// (including the leader, which posts the plan to itself so it
    /// serializes with the rest of its protocol traffic).
    fn handle_adapt_plan(
        &mut self,
        epoch: u64,
        promotions: Vec<(Key, u32)>,
        demotions: Vec<Key>,
        at: SimTime,
    ) {
        if let Err(reason) = self.check_plan(epoch, &promotions, &demotions) {
            return self.reject(at, reason, epoch);
        }
        self.journal(at, "adapt_plan_apply", epoch, (promotions.len() + demotions.len()) as u64);
        {
            let mut st = self.state.plan.lock();
            st.applied_epoch = epoch;
            st.pending_promote.extend(promotions.iter().map(|&(key, slot)| (key, (epoch, slot))));
        }
        for key in demotions {
            self.apply_demotion(key, at);
        }
        for (key, slot) in promotions {
            if self.shared.keyspace.home(key) == self.me() {
                self.initiate_promotion(key, epoch, slot, at);
            }
        }
        // A peer's `Promote` broadcast can overtake the leader's plan on
        // the wire; admit any that were waiting for this plan. Likewise a
        // peer's sync broadcast stamped with this epoch; re-route the held
        // deltas now that the era they belong to is known here.
        let (ready, held) = {
            let mut st = self.state.plan.lock();
            (std::mem::take(&mut st.buffered_promotes), std::mem::take(&mut st.early_deltas))
        };
        for (key, epoch, slot, value) in ready {
            self.admit_promote(key, epoch, slot, value, at);
        }
        for (stamp, key, delta) in held {
            self.dispatch_replica_delta(stamp, key, delta, at);
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
    }

    /// Demote one key replicated → relocated, as instructed by a checked
    /// plan. Seals the local replica slot, installs the authoritative value
    /// at the home, and ships any non-home residue accumulator there as an
    /// acknowledged push.
    fn apply_demotion(&mut self, key: Key, at: SimTime) {
        self.journal(at, "demote", key, 0);
        let home = self.shared.keyspace.home(key);
        let sealed = self
            .state
            .technique
            .replica_slot(key)
            .and_then(|slot| self.state.replicas.seal_slot(slot, key));
        let Some((value, accum)) = sealed else {
            return self.reject(at, "demotion_without_replica", key);
        };
        if home == self.me() {
            // `push` writes the copy and the accumulator together, so the
            // sealed value already holds this node's unsynced deltas — the
            // accum must not be re-added. The peers' residues arrive as
            // acknowledged pushes below.
            self.state.store.install_demoted(key, value, at);
            self.state.directory.set_owner(key, home);
            self.state.technique.demote(key);
            self.shared.metrics.node(self.me()).inc(|m| &m.demotions);
        } else {
            self.state.store.redirect_for_demote(key, home);
            self.state.technique.demote(key);
            if accum.iter().any(|&x| x != 0.0) {
                self.state.plan.lock().acks_outstanding += 1;
                let residue =
                    Msg::PushReq { key, delta: accum, reply_to: Addr::server(self.me()), hops: 0 };
                self.send(Addr::server(home), at, &residue);
            }
        }
        self.shared.runtime.notify_progress();
    }

    /// Begin acquiring a key this node (the key's home) must promote:
    /// fence it against new relocations, then chase the ownership chain
    /// for the authoritative value.
    fn initiate_promotion(&mut self, key: Key, epoch: u64, slot: u32, at: SimTime) {
        self.journal(at, "promote_start", key, 0);
        self.state.technique.fence_key(key);
        let owner = self.state.directory.owner(key);
        if owner == self.me() {
            match self.state.store.begin_promote(key) {
                PromoteTake::Taken(value) => self.complete_promotion(key, epoch, slot, value, at),
                // A transfer toward us is in flight; its install retries.
                PromoteTake::InFlight => {}
                PromoteTake::NotHere(hint) => self.chase_promotion(key, hint, at),
            }
        } else {
            // The fence blocks new localizes, so the directory is frozen:
            // point it here and request the hand-over directly (our own
            // localize path would drop the request at the fence).
            self.state.directory.set_owner(key, self.me());
            self.state.store.mark_inflight(key, at);
            self.send(Addr::server(owner), at, &Msg::ForwardLocalize { key, requester: self.me() });
        }
    }

    /// The directory pointed home but the value is elsewhere (a stale
    /// forward, or an install released it onward): follow the tombstones.
    fn chase_promotion(&mut self, key: Key, hint: Option<NodeId>, at: SimTime) {
        let dst = self.chase(key, hint);
        debug_assert_ne!(dst, self.me(), "promotion chase loop at {}", self.me());
        self.state.store.mark_inflight(key, at);
        self.send(Addr::server(dst), at, &Msg::ForwardLocalize { key, requester: self.me() });
    }

    /// After an install at the key's home: if a plan is waiting on the
    /// key, this may be the hand-over that completes its acquisition.
    fn maybe_complete_promotion(&mut self, key: Key, at: SimTime) {
        if self.shared.keyspace.home(key) != self.me() {
            return;
        }
        let Some((epoch, slot)) = self.state.plan.lock().pending_promote.get(&key).copied() else {
            return;
        };
        match self.state.store.begin_promote(key) {
            PromoteTake::Taken(value) => self.complete_promotion(key, epoch, slot, value, at),
            PromoteTake::InFlight => {} // another chain link; the next install retries
            // The install released the value onward to a localize that
            // raced the plan: keep chasing it.
            PromoteTake::NotHere(hint) => self.chase_promotion(key, hint, at),
        }
    }

    /// The home holds the authoritative value: install the replica,
    /// publish the slot, and broadcast the value to every peer.
    fn complete_promotion(
        &mut self,
        key: Key,
        epoch: u64,
        slot: u32,
        value: Vec<f32>,
        at: SimTime,
    ) {
        self.install_promotion(key, epoch, slot, value.clone(), at);
        self.state.technique.unfence_key(key);
        self.journal(at, "promote_install", key, epoch);
        self.shared.metrics.node(self.me()).inc(|m| &m.promotions);
        let msg = Msg::Promote { key, epoch, slot, value };
        for node in self.shared.topology.nodes() {
            if node != self.me() {
                self.send(Addr::server(node), at, &msg);
            }
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
    }

    /// A home's `Promote` broadcast: install the replica locally, or buffer
    /// it until its plan (the next one) arrives.
    fn handle_promote(&mut self, key: Key, epoch: u64, slot: u32, value: Vec<f32>, at: SimTime) {
        if !self.in_keyspace(key) {
            return self.reject(at, "unplanned_promote", key);
        }
        {
            let mut st = self.state.plan.lock();
            if epoch == st.applied_epoch + 1 {
                st.buffered_promotes.push((key, epoch, slot, value));
                return;
            }
        }
        self.admit_promote(key, epoch, slot, value, at);
        self.maybe_plan_ack(at);
    }

    /// Install an announced promotion whose plan has been applied here. A
    /// correct announcement comes from the key's home and matches the
    /// pending plan entry exactly.
    fn admit_promote(&mut self, key: Key, epoch: u64, slot: u32, value: Vec<f32>, at: SimTime) {
        let planned = self.state.plan.lock().pending_promote.get(&key) == Some(&(epoch, slot));
        if !planned || self.shared.keyspace.home(key) == self.me() {
            return self.reject(at, "unplanned_promote", key);
        }
        self.journal(at, "promote_admit", key, epoch);
        self.install_promotion(key, epoch, slot, value, at);
    }

    /// Install a promoted key's replica in its planned slot and publish the
    /// route: storage before assignment, so a keyed access that sees the
    /// new route is guaranteed an installed slot. The plan epoch becomes
    /// the slot's era: sync broadcasts of this tenancy are stamped with it
    /// cluster-wide. Stashed same-era sync deltas apply right after the
    /// install, and operations parked on a stale in-flight mark (a localize
    /// the home's fence dropped) are served from the fresh replica.
    fn install_promotion(&mut self, key: Key, epoch: u64, slot: u32, value: Vec<f32>, at: SimTime) {
        let stashed = {
            let mut st = self.state.plan.lock();
            st.pending_promote.remove(&key);
            st.pending_deltas.remove(&key).unwrap_or_default()
        };
        self.state.replicas.install_slot(slot, key, value, epoch);
        for delta in stashed {
            let ok = self.state.replicas.apply_foreign(slot, key, epoch, &delta);
            debug_assert!(ok, "stashed sync delta must apply right after its install");
        }
        self.state.technique.promote_to_slot(key, slot);
        let sweep = self.state.store.sweep_for_promote(key);
        for op in sweep.waiters {
            match op {
                QueuedOp::Push { delta, reply_to, hops } => {
                    let ok = self.state.replicas.push(slot, key, &delta);
                    debug_assert!(ok, "fresh replica slot rejects nothing");
                    self.shared.metrics.node(self.me()).inc(|m| &m.replica_pushes);
                    self.send(reply_to, at, &Msg::PushAck { key, hops: hops.saturating_add(1) });
                }
                QueuedOp::Pull { reply_to, hops } => {
                    let mut value = vec![0.0; self.shared.value_len];
                    let ok = self.state.replicas.pull(slot, key, &mut value);
                    debug_assert!(ok, "fresh replica slot rejects nothing");
                    self.shared.metrics.node(self.me()).inc(|m| &m.replica_pulls);
                    let resp = Msg::PullResp { key, value, hops: hops.saturating_add(1) };
                    self.send(reply_to, at, &resp);
                }
            }
        }
        self.shared.runtime.notify_progress();
    }

    /// Send the leader a `PlanAck` once every applied plan fully settled
    /// here (idempotent; called from every path that could finish one).
    fn maybe_plan_ack(&mut self, at: SimTime) {
        let epoch = {
            let mut st = self.state.plan.lock();
            if st.applied_epoch == 0 || st.applied_epoch <= st.last_acked || !st.settled() {
                return;
            }
            st.last_acked = st.applied_epoch;
            st.applied_epoch
        };
        if self.me() == ADAPT_LEADER {
            self.state.plan.lock().note_ack(self.me(), epoch);
        } else {
            self.send(Addr::server(ADAPT_LEADER), at, &Msg::PlanAck { from: self.me(), epoch });
        }
        self.shared.runtime.notify_progress();
    }

    /// Leader: a peer finished a plan.
    fn handle_plan_ack(&mut self, from: NodeId, epoch: u64, at: SimTime) {
        let valid = self.me() == ADAPT_LEADER
            && from != self.me()
            && from.0 < self.shared.topology.n_nodes
            && epoch <= self.state.plan.lock().last_issued;
        if !valid {
            return self.reject(at, "bad_plan_ack", epoch);
        }
        self.journal(at, "plan_ack", from.0 as u64, epoch);
        self.state.plan.lock().note_ack(from, epoch);
        self.shared.runtime.notify_progress();
    }

    /// A `PushAck` for a push this server itself issued (demotion residue
    /// or home-folded stray delta): one less outstanding acknowledgement.
    fn handle_self_ack(&mut self, at: SimTime) {
        {
            let mut st = self.state.plan.lock();
            if st.acks_outstanding == 0 {
                drop(st);
                return self.reject(at, "unsolicited_push_ack", 0);
            }
            st.acks_outstanding -= 1;
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
    }
}
