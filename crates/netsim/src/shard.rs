//! Conservative parallel execution of the DES engine, partitioned by
//! zone subtree.
//!
//! ## Partitioning
//!
//! A [`ShardPlan`] assigns every node to one shard.  For tree topologies
//! (in particular `topology::scaled`'s zone hierarchy) the plan cuts the
//! tree at the root: each of the root's child subtrees is a unit, units
//! are greedy-packed into shards by subtree size, and the root itself
//! lives in shard 0.  A zone never straddles a shard boundary, so the
//! only inter-shard edges are the root's uplinks — exactly the links the
//! paper gives fixed inter-zone latency.  Arbitrary (non-tree) graphs
//! fall back to a single-shard plan, which is just the serial engine.
//!
//! ## Synchronization
//!
//! Classic conservative PDES with a barrier-on-min-timestamp scheme: the
//! lookahead `L` is the minimum link latency over inter-shard edges.
//! Each round, every shard publishes the timestamp of its earliest
//! pending event; the global minimum `T` defines a window `[T, T + L)`
//! that every shard may process independently, because any cross-shard
//! packet generated inside the window arrives no earlier than `T + L`.
//! Cross-shard arrivals travel as timestamped messages (`OutMsg`),
//! exchanged at the end of the round and enqueued before the next
//! window is chosen.  Threads meet at [`std::sync::Barrier`]s (blocking,
//! no busy-spin), every round makes progress (the shard holding the
//! global-minimum event always processes it), and termination is decided
//! from identical data on every thread — so the scheme cannot deadlock.
//!
//! ## Determinism
//!
//! Runs are **bit-identical at any shard count** because every source of
//! ordering or randomness is a pure function of simulation-local history,
//! never of global execution order:
//!
//! * events are ordered by [`EventKey`] `(fire time, push time, pushing
//!   node, per-node sequence)` — the key a cross-shard arrival carries is
//!   the key the serial engine would have used;
//! * agents draw from per-node RNG streams, loss sampling from
//!   per-(link, direction) streams, and per-node sequence counters are
//!   only advanced while processing that node's events — all owned by
//!   exactly one shard;
//! * fault and membership events are replicated to every shard with
//!   identical keys, so replicated state (link masks, loss models,
//!   epochs, channel member sets) evolves identically everywhere; the
//!   restart `Start` fires only in the shard owning the node's agent;
//! * recorder and probe records are tagged with their event key and
//!   k-way merged back into the serial timeline regardless of shard
//!   completion order.
//!
//! The one requirement is positive latency on every inter-shard link
//! (zero lookahead would admit same-instant cross-shard causality);
//! [`Engine::advance`] asserts it.

use crate::arena::PacketArena;
use crate::engine::{Engine, EventKind};
use crate::graph::{LinkId, NodeId, Topology};
use crate::link::LinkState;
use crate::metrics::{Recorder, RecorderMode, TrafficClass};
use crate::packet::{Classify, Packet};
use crate::probe::ProbeRecord;
use crate::queue::{EventKey, EventQueue};
use crate::time::{SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A deterministic assignment of every node to one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `owner[node] = shard index`.
    owner: Vec<u32>,
    shards: u32,
}

impl ShardPlan {
    /// The trivial plan: every node in shard 0 (serial execution).
    pub fn single(node_count: usize) -> ShardPlan {
        ShardPlan {
            owner: vec![0; node_count],
            shards: 1,
        }
    }

    /// Partitions a tree topology into at most `shards` shards by cutting
    /// at `root`: each root subtree is kept whole and subtrees are
    /// greedy-packed (largest first, ties by node id) into the least
    /// loaded shard; `root` joins shard 0.  Deterministic — the same
    /// inputs always produce the same plan.  Falls back to
    /// [`ShardPlan::single`] when the topology is not a connected tree,
    /// or when `shards <= 1`.
    pub fn by_subtrees(topo: &Topology, root: NodeId, shards: usize) -> ShardPlan {
        let n = topo.node_count();
        if shards <= 1 || n <= 1 || topo.link_count() != n - 1 {
            return ShardPlan::single(n);
        }
        // BFS from the root; `parent` doubles as the visited set.
        let mut parent = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        parent[root.idx()] = root.0;
        order.push(root);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &(v, _) in topo.neighbors(u) {
                if parent[v.idx()] == u32::MAX {
                    parent[v.idx()] = u.0;
                    order.push(v);
                }
            }
        }
        if order.len() != n {
            return ShardPlan::single(n); // disconnected
        }
        // Subtree sizes by folding leaves upward (reverse BFS order).
        let mut size = vec![1u64; n];
        for &u in order.iter().rev() {
            if u != root {
                size[parent[u.idx()] as usize] += size[u.idx()];
            }
        }
        // Greedy-pack the root's subtrees, largest first.
        let mut children: Vec<NodeId> = topo.neighbors(root).iter().map(|&(v, _)| v).collect();
        children.sort_by_key(|c| (std::cmp::Reverse(size[c.idx()]), c.0));
        let k = shards.min(children.len()).max(1);
        let mut load = vec![0u64; k];
        let mut bin = vec![0u32; n];
        for c in children {
            let b = (0..k).min_by_key(|&b| (load[b], b)).expect("k >= 1");
            load[b] += size[c.idx()];
            bin[c.idx()] = b as u32;
        }
        let mut owner = vec![0u32; n];
        for &u in &order {
            if u == root {
                continue;
            }
            let p = parent[u.idx()] as usize;
            owner[u.idx()] = if p == root.idx() {
                bin[u.idx()]
            } else {
                owner[p]
            };
        }
        ShardPlan {
            owner,
            shards: k as u32,
        }
    }

    /// Number of shards in this plan.
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// Number of nodes this plan covers.
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `node`.
    pub fn owner(&self, node: NodeId) -> u32 {
        self.owner[node.idx()]
    }
}

/// Everything one [`Engine::advance`] call needs: horizon, shard plan,
/// and worker-thread count.  Unset fields fall back to the builder
/// defaults ([`crate::engine::EngineBuilder::shard_plan`] /
/// [`crate::engine::EngineBuilder::threads`]), then to serial execution.
#[derive(Clone, Debug, Default)]
pub struct RunSpec {
    /// Process events up to and including this instant; `None` drains the
    /// queue completely.
    pub until: Option<SimTime>,
    /// Shard plan for this run; `None` uses the builder default (serial
    /// if none was set).
    pub plan: Option<Arc<ShardPlan>>,
    /// Worker threads for a sharded run; `None` means one per shard.
    pub threads: Option<usize>,
}

impl RunSpec {
    /// Run to a horizon: events at exactly `t_end` are processed and the
    /// clock is left at `t_end`.
    pub fn to(t_end: SimTime) -> RunSpec {
        RunSpec {
            until: Some(t_end),
            ..RunSpec::default()
        }
    }

    /// Drain the queue completely; the clock is left at the last
    /// processed event.
    pub fn drain() -> RunSpec {
        RunSpec::default()
    }

    /// Overrides the shard plan for this run.
    pub fn with_plan(mut self, plan: Arc<ShardPlan>) -> RunSpec {
        self.plan = Some(plan);
        self
    }

    /// Overrides the worker-thread count for this run.
    pub fn with_threads(mut self, threads: usize) -> RunSpec {
        self.threads = Some(threads);
        self
    }
}

/// Shard identity attached to a per-shard engine; `hop` consults it to
/// divert remote arrivals into the outbox.
pub(crate) struct ShardCtx {
    pub(crate) plan: Arc<ShardPlan>,
    pub(crate) me: u32,
}

/// A cross-shard arrival: the packet re-materialized as a value plus the
/// exact event key the serial engine would have queued it under.
pub(crate) struct OutMsg<M> {
    pub(crate) dst: u32,
    pub(crate) key: EventKey,
    pub(crate) node: NodeId,
    pub(crate) class: TrafficClass,
    pub(crate) pkt: Packet<M>,
}

/// Minimum latency over links whose endpoints live in different shards —
/// the conservative lookahead.  `None` when no link crosses a shard
/// boundary (each shard can then run to the horizon unsynchronized).
fn min_cross_latency(topo: &Topology, plan: &ShardPlan) -> Option<SimDuration> {
    let mut min: Option<SimDuration> = None;
    for l in 0..topo.link_count() {
        let spec = topo.link(LinkId(l as u32));
        if plan.owner(spec.a) != plan.owner(spec.b) {
            let lat = spec.params.latency;
            min = Some(match min {
                Some(m) if m <= lat => m,
                _ => lat,
            });
        }
    }
    min
}

impl<M: Classify + Clone + Send + 'static> Engine<M> {
    /// Runs the simulation as described by `spec` and returns the number
    /// of events processed (counting each replicated fault event once, so
    /// the count matches the serial engine at any shard count).
    ///
    /// With no plan (or a single-shard plan) this is the serial engine.
    /// With `k > 1` shards the node graph is partitioned per the plan,
    /// each shard runs on its own event queue / packet arena / RNG
    /// streams, and shards synchronize conservatively on the inter-shard
    /// link-latency lookahead (see the module docs).  The result —
    /// recorder, probes, agent state, clock — is bit-identical to the
    /// serial run.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count than the
    /// topology, or if some inter-shard link has zero latency (no
    /// lookahead — conservative synchronization would be impossible).
    pub fn advance(&mut self, spec: RunSpec) -> u64 {
        let plan = spec.plan.or_else(|| self.default_plan.clone());
        let threads = spec.threads.or(self.default_threads);
        match plan {
            Some(p) if p.shard_count() > 1 => {
                assert_eq!(
                    p.node_count(),
                    self.topo.node_count(),
                    "shard plan covers a different topology"
                );
                self.run_sharded(p, threads, spec.until)
            }
            _ => {
                let (processed, _) = self.run_window(spec.until.unwrap_or(SimTime::MAX));
                // A horizon run stops the clock at the horizon; a drain
                // leaves it at the last event.
                if let Some(t) = spec.until {
                    self.now = self.now.max(t);
                }
                processed
            }
        }
    }

    /// The conservative barrier-synchronized parallel driver.
    fn run_sharded(
        &mut self,
        plan: Arc<ShardPlan>,
        threads: Option<usize>,
        until: Option<SimTime>,
    ) -> u64 {
        let lookahead = min_cross_latency(&self.topo, &plan);
        if let Some(l) = lookahead {
            assert!(
                l > SimDuration::ZERO,
                "conservative sharding requires positive latency on every inter-shard link"
            );
        }
        let k = plan.shard_count();
        let shards = self.split_shards(&plan);
        let nthreads = threads.unwrap_or(k).clamp(1, k);
        let mut groups: Vec<Vec<(usize, Engine<M>)>> = (0..nthreads).map(|_| Vec::new()).collect();
        for (i, s) in shards.into_iter().enumerate() {
            groups[i % nthreads].push((i, s));
        }
        // Per-round rendezvous state.  `mins` is written only in the
        // publish phase (before barrier A) and read only after it; the
        // inboxes and probe batches are written in the process phase and
        // drained between barriers B and C.
        let mins: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<OutMsg<M>>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let probe_batches: Vec<Mutex<Vec<(EventKey, ProbeRecord)>>> =
            (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let master_probes = Mutex::new(std::mem::take(&mut self.probes));
        let barrier = Barrier::new(nthreads);
        let processed = AtomicU64::new(0);
        // Fault events are replicated to every shard; shard 0's count is
        // the serial fault count, used to de-duplicate the event total.
        let shard0_faults = AtomicU64::new(0);

        let mut done: Vec<Option<Engine<M>>> = (0..k).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .enumerate()
                .map(|(t, mut group)| {
                    let (mins, inboxes, probe_batches) = (&mins, &inboxes, &probe_batches);
                    let (barrier, processed) = (&barrier, &processed);
                    let (master_probes, shard0_faults) = (&master_probes, &shard0_faults);
                    scope.spawn(move || {
                        loop {
                            // Publish each shard's earliest pending time.
                            for (i, e) in &group {
                                let next = e.queue.peek_key().map_or(u64::MAX, |k| k.time.0);
                                mins[*i].store(next, Ordering::SeqCst);
                            }
                            barrier.wait(); // A: all mins published
                            let t_min = mins
                                .iter()
                                .map(|m| m.load(Ordering::SeqCst))
                                .min()
                                .unwrap_or(u64::MAX);
                            // Same data on every thread → same decision;
                            // all threads leave the loop in the same round.
                            if t_min == u64::MAX || until.is_some_and(|u| t_min > u.0) {
                                break;
                            }
                            let mut bound = match lookahead {
                                Some(l) => t_min.saturating_add(l.0).saturating_sub(1),
                                None => u64::MAX - 1,
                            };
                            if let Some(u) = until {
                                bound = bound.min(u.0);
                            }
                            for (i, e) in group.iter_mut() {
                                let (p, f) = e.run_window(SimTime(bound));
                                processed.fetch_add(p, Ordering::Relaxed);
                                if *i == 0 {
                                    shard0_faults.fetch_add(f, Ordering::Relaxed);
                                }
                                for m in e.outbox.drain(..) {
                                    inboxes[m.dst as usize].lock().unwrap().push(m);
                                }
                                let batch = e.probes.drain_tagged();
                                if !batch.is_empty() {
                                    *probe_batches[*i].lock().unwrap() = batch;
                                }
                            }
                            barrier.wait(); // B: all outboxes/probes deposited
                            if t == 0 {
                                // Windows are disjoint and increasing, so a
                                // per-round merge extends the global
                                // key-ordered probe stream (and keeps shard
                                // sink memory bounded round-to-round).
                                let mut merged: Vec<(EventKey, ProbeRecord)> = Vec::new();
                                for b in probe_batches {
                                    merged.append(&mut b.lock().unwrap());
                                }
                                if !merged.is_empty() {
                                    merged.sort_by_key(|(key, _)| *key);
                                    let mut sink = master_probes.lock().unwrap();
                                    for (_, r) in merged {
                                        sink.ingest_merged(r);
                                    }
                                }
                            }
                            for (i, e) in group.iter_mut() {
                                let msgs = std::mem::take(&mut *inboxes[*i].lock().unwrap());
                                e.ingest(msgs);
                            }
                            barrier.wait(); // C: all inboxes ingested
                        }
                        group
                    })
                })
                .collect();
            for h in handles {
                for (i, e) in h.join().expect("shard worker panicked") {
                    done[i] = Some(e);
                }
            }
        });
        self.probes = master_probes.into_inner().unwrap();
        let shards: Vec<Engine<M>> = done
            .into_iter()
            .map(|s| s.expect("every shard is returned by its worker"))
            .collect();
        self.absorb_shards(shards, &plan, until);
        let dup = shard0_faults.load(Ordering::Relaxed) * (k as u64 - 1);
        processed.load(Ordering::Relaxed) - dup
    }

    /// Splits this engine into `k` per-shard engines: agents, timers, and
    /// queued events move to their owning shard; replicated state (link
    /// masks, epochs, RNG stream states, counters) is cloned everywhere
    /// so fault replay keeps every copy identical.
    fn split_shards(&mut self, plan: &Arc<ShardPlan>) -> Vec<Engine<M>> {
        let k = plan.shard_count();
        let n = self.topo.node_count();
        let mut shards: Vec<Engine<M>> = (0..k as u32)
            .map(|me| {
                let mut recorder = Recorder::new(self.recorder.mode());
                recorder.set_bin_width(self.recorder.bin_width());
                if recorder.mode() == RecorderMode::Raw {
                    recorder.enable_tagging();
                }
                Engine {
                    topo: self.topo.clone(),
                    oracle: self.oracle.clone(),
                    spts: Vec::new(),
                    tree_forwarding: self.tree_forwarding,
                    link_state: self.link_state.clone(),
                    link_up: self.link_up.clone(),
                    node_up: self.node_up.clone(),
                    epoch: self.epoch.clone(),
                    channels: self.channels.clone(),
                    agents: (0..n).map(|_| None).collect(),
                    agent_rngs: self.agent_rngs.clone(),
                    loss_base: self.loss_base.clone(),
                    loss_streams: self.loss_streams.clone(),
                    queue: EventQueue::new(),
                    arena: PacketArena::new(),
                    now: self.now,
                    pending_timers: HashSet::new(),
                    cancelled: HashSet::new(),
                    node_seq: self.node_seq.clone(),
                    build_seq: self.build_seq,
                    recorder,
                    probes: self.probes.shard_sink(),
                    shard: Some(ShardCtx {
                        plan: Arc::clone(plan),
                        me,
                    }),
                    outbox: Vec::new(),
                    default_plan: None,
                    default_threads: None,
                }
            })
            .collect();
        for i in 0..n {
            if let Some(a) = self.agents[i].take() {
                shards[plan.owner[i] as usize].agents[i] = Some(a);
            }
        }
        // Timer bookkeeping partitions by the id's encoded owner node.
        for id in self.pending_timers.drain() {
            let node = id
                .node()
                .expect("engine-issued timer ids encode their node");
            shards[plan.owner(node) as usize].pending_timers.insert(id);
        }
        for id in self.cancelled.drain() {
            let node = id
                .node()
                .expect("engine-issued timer ids encode their node");
            shards[plan.owner(node) as usize].cancelled.insert(id);
        }
        // Distribute queued events under their existing keys; faults and
        // membership changes replicate to every shard so replicated state
        // (link masks, epochs, channel member sets) stays identical.
        while let Some((key, kind)) = self.queue.pop_keyed() {
            match kind {
                EventKind::Fault(ev) => {
                    for s in &mut shards {
                        s.queue.push_keyed(key, EventKind::Fault(ev));
                    }
                }
                EventKind::Membership(ev) => {
                    for s in &mut shards {
                        s.queue.push_keyed(key, EventKind::Membership(ev));
                    }
                }
                EventKind::Arrive { node, pkt } => {
                    let class = self.arena.header(pkt).class;
                    let owned = match self.arena.release(pkt) {
                        Some(p) => p,
                        None => {
                            let p = self.arena.take(pkt);
                            let copy = p.clone();
                            self.arena.restore(pkt, p);
                            copy
                        }
                    };
                    let dst = &mut shards[plan.owner(node) as usize];
                    let pref = dst.arena.insert(owned, class);
                    dst.arena.add_ref(pref);
                    dst.queue
                        .push_keyed(key, EventKind::Arrive { node, pkt: pref });
                }
                other => {
                    let node = match &other {
                        EventKind::Start(node) => *node,
                        EventKind::Timer { node, .. } => *node,
                        _ => unreachable!("faults, membership, and arrivals handled above"),
                    };
                    shards[plan.owner(node) as usize]
                        .queue
                        .push_keyed(key, other);
                }
            }
        }
        debug_assert_eq!(self.arena.live(), 0, "master arena drained into shards");
        shards
    }

    /// Reassembles shard engines back into this master engine after a
    /// sharded run: per-node state comes from each node's owner,
    /// per-direction link state from the direction's transmitting side,
    /// replicated state from shard 0, and the recorders merge by mode.
    fn absorb_shards(
        &mut self,
        mut shards: Vec<Engine<M>>,
        plan: &ShardPlan,
        until: Option<SimTime>,
    ) {
        let n = self.topo.node_count();
        // Replicated state evolved identically in every shard (fault
        // events replay everywhere); take shard 0's copy.
        std::mem::swap(&mut self.topo, &mut shards[0].topo);
        std::mem::swap(&mut self.link_up, &mut shards[0].link_up);
        std::mem::swap(&mut self.node_up, &mut shards[0].node_up);
        std::mem::swap(&mut self.epoch, &mut shards[0].epoch);
        std::mem::swap(&mut self.channels, &mut shards[0].channels);
        self.tree_forwarding = shards[0].tree_forwarding;
        self.spts = Vec::new(); // recomputed lazily against the new mask
        for i in 0..n {
            let o = plan.owner[i] as usize;
            self.agents[i] = shards[o].agents[i].take();
            std::mem::swap(&mut self.agent_rngs[i], &mut shards[o].agent_rngs[i]);
            self.node_seq[i] = shards[o].node_seq[i];
        }
        // Each link direction is only driven by the shard owning its
        // transmitting endpoint; stitch the two directions back together.
        for l in 0..self.topo.link_count() {
            let spec = self.topo.link(LinkId(l as u32));
            let oa = plan.owner(spec.a) as usize;
            let ob = plan.owner(spec.b) as usize;
            let sa = &shards[oa].link_state[l];
            let sb = &shards[ob].link_state[l];
            self.link_state[l] = LinkState {
                busy_until_ab: sa.busy_until_ab,
                bad_ab: sa.bad_ab,
                busy_until_ba: sb.busy_until_ba,
                bad_ba: sb.bad_ba,
            };
            let da = shards[oa].loss_streams[l].as_ref().map(|p| p[0].clone());
            let db = shards[ob].loss_streams[l].as_ref().map(|p| p[1].clone());
            self.loss_streams[l] = match (da, db) {
                (None, None) => None,
                (da, db) => {
                    // A side that never sampled holds the stream in its
                    // freshly-split state — exactly what lazy init yields.
                    let fresh = |d: u64| self.loss_base.clone().split(2 * l as u64 + d);
                    Some(Box::new([
                        da.unwrap_or_else(|| fresh(0)),
                        db.unwrap_or_else(|| fresh(1)),
                    ]))
                }
            };
        }
        for s in &mut shards {
            self.pending_timers.extend(s.pending_timers.drain());
            self.cancelled.extend(s.cancelled.drain());
        }
        // Events still queued (horizon reached before drain) come back
        // under their keys; replicated faults and membership changes only
        // from shard 0.
        for (si, s) in shards.iter_mut().enumerate() {
            while let Some((key, kind)) = s.queue.pop_keyed() {
                match kind {
                    EventKind::Fault(ev) => {
                        if si == 0 {
                            self.queue.push_keyed(key, EventKind::Fault(ev));
                        }
                    }
                    EventKind::Membership(ev) => {
                        if si == 0 {
                            self.queue.push_keyed(key, EventKind::Membership(ev));
                        }
                    }
                    EventKind::Arrive { node, pkt } => {
                        let class = s.arena.header(pkt).class;
                        let owned = match s.arena.release(pkt) {
                            Some(p) => p,
                            None => {
                                let p = s.arena.take(pkt);
                                let copy = p.clone();
                                s.arena.restore(pkt, p);
                                copy
                            }
                        };
                        let pref = self.arena.insert(owned, class);
                        self.arena.add_ref(pref);
                        self.queue
                            .push_keyed(key, EventKind::Arrive { node, pkt: pref });
                    }
                    other => self.queue.push_keyed(key, other),
                }
            }
            debug_assert_eq!(s.arena.live(), 0, "shard arena drained back");
        }
        match self.recorder.mode() {
            RecorderMode::Raw => {
                let parts = shards
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s.recorder))
                    .collect();
                self.recorder.merge_raw_parts(parts);
            }
            _ => {
                for s in &shards {
                    self.recorder.absorb_totals(&s.recorder);
                }
            }
        }
        let last = shards.iter().map(|s| s.now).max().unwrap_or(self.now);
        self.now = self.now.max(last);
        if let Some(t) = until {
            if self.now < t {
                self.now = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// root 0 with three subtrees: {1,4,5}, {2,6}, {3}.
    fn star_of_subtrees() -> (Topology, NodeId) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..7).map(|i| b.add_node(format!("n{i}"))).collect();
        let p = LinkParams::lossless_infinite(ms(5));
        b.add_link(nodes[0], nodes[1], p);
        b.add_link(nodes[0], nodes[2], p);
        b.add_link(nodes[0], nodes[3], p);
        b.add_link(nodes[1], nodes[4], p);
        b.add_link(nodes[1], nodes[5], p);
        b.add_link(nodes[2], nodes[6], p);
        (b.build(), nodes[0])
    }

    #[test]
    fn subtree_plan_keeps_subtrees_whole_and_balances() {
        let (t, root) = star_of_subtrees();
        let plan = ShardPlan::by_subtrees(&t, root, 2);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.owner(root), 0);
        // Largest subtree {1,4,5} (size 3) lands in shard 0; {2,6} (size
        // 2) in shard 1; {3} (size 1) in the lighter shard 1.
        assert_eq!(plan.owner(NodeId(1)), plan.owner(NodeId(4)));
        assert_eq!(plan.owner(NodeId(1)), plan.owner(NodeId(5)));
        assert_eq!(plan.owner(NodeId(2)), plan.owner(NodeId(6)));
        assert_ne!(plan.owner(NodeId(1)), plan.owner(NodeId(2)));
        assert_eq!(plan.owner(NodeId(3)), plan.owner(NodeId(2)));
    }

    #[test]
    fn subtree_plan_caps_shards_at_subtree_count() {
        let (t, root) = star_of_subtrees();
        let plan = ShardPlan::by_subtrees(&t, root, 16);
        // Only three root subtrees exist — no empty shards.
        assert_eq!(plan.shard_count(), 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..t.node_count() {
            seen.insert(plan.owner(NodeId(i as u32)));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn non_tree_topologies_fall_back_to_single_shard() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let p = LinkParams::lossless_infinite(ms(1));
        b.add_link(n0, n1, p);
        b.add_link(n1, n2, p);
        b.add_link(n2, n0, p); // cycle
        let plan = ShardPlan::by_subtrees(&b.build(), n0, 4);
        assert_eq!(plan.shard_count(), 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let (t, root) = star_of_subtrees();
        assert_eq!(
            ShardPlan::by_subtrees(&t, root, 3),
            ShardPlan::by_subtrees(&t, root, 3)
        );
    }

    use crate::agent::{Agent, Ctx};
    use crate::channel::ChannelId;
    use crate::engine::EngineBuilder;
    use crate::faults::{FaultEvent, FaultPlan, LossModel};
    use crate::metrics::{DropRecord, Record, TrafficClass};
    use crate::probe::{ProbeEvent, ProbeRecord};

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Data(u32),
        Nack(u32),
    }
    impl crate::packet::Classify for Msg {
        fn class(&self) -> TrafficClass {
            match self {
                Msg::Data(_) => TrafficClass::Data,
                Msg::Nack(_) => TrafficClass::Nack,
            }
        }
    }

    /// Root source: multicasts a numbered packet every 10 ms, and answers
    /// the first NACK per sequence with one retransmission (bounded so the
    /// NACK/repair exchange cannot cascade into a packet storm).
    struct Source {
        chan: ChannelId,
        next: u32,
        count: u32,
        repaired: std::collections::HashSet<u32>,
    }
    impl Agent<Msg> for Source {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
            ctx.multicast(self.chan, Msg::Data(self.next), 400);
            self.next += 1;
            if self.next < self.count {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
            if let Msg::Nack(seq) = pkt.payload {
                if self.repaired.insert(seq) {
                    ctx.multicast(self.chan, Msg::Data(seq), 400);
                }
            }
        }
    }

    /// Leaf receiver: logs everything, probes on each delivery, and NACKs
    /// a random sample of first-time sequences after RNG-jittered back-off
    /// — exercises per-agent RNG streams, timers, and leaf→root
    /// cross-shard traffic.  At most one NACK per sequence per receiver.
    #[derive(Default)]
    struct Receiver {
        chan: Option<ChannelId>,
        heard: Vec<(SimTime, Msg)>,
        seen: std::collections::HashSet<u32>,
    }
    impl Agent<Msg> for Receiver {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
            self.heard.push((ctx.now(), pkt.payload.clone()));
            if let Msg::Data(seq) = pkt.payload {
                ctx.probe(ProbeEvent::ZlcUpdate {
                    group: seq,
                    level: 0,
                    observed: self.heard.len() as f64,
                    pred: 0.0,
                });
                if self.seen.insert(seq) && ctx.rng().next_f64() < 0.4 {
                    let jitter = ctx.rng().next_f64();
                    let delay = SimDuration(SimDuration::from_millis(3).0 + (jitter * 4e6) as u64);
                    ctx.set_timer(delay, u64::from(seq));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            ctx.multicast(self.chan.unwrap(), Msg::Nack(token as u32), 60);
        }
    }

    /// Three-subtree tree with lossy, finite-bandwidth links.
    fn scenario_topology() -> (Topology, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..10).map(|i| b.add_node(format!("n{i}"))).collect();
        let up = |loss| LinkParams::new(ms(5), 800_000, loss);
        let down = |loss| LinkParams::new(ms(2), 800_000, loss);
        b.add_link(nodes[0], nodes[1], up(0.15)); // link 0 (flapped)
        b.add_link(nodes[0], nodes[2], up(0.1)); // link 1
        b.add_link(nodes[0], nodes[3], up(0.0)); // link 2
        b.add_link(nodes[1], nodes[4], down(0.1)); // link 3 (loss swapped)
        b.add_link(nodes[1], nodes[5], down(0.0)); // link 4
        b.add_link(nodes[2], nodes[6], down(0.2)); // link 5
        b.add_link(nodes[2], nodes[7], down(0.0)); // link 6
        b.add_link(nodes[3], nodes[8], down(0.1)); // link 7
        b.add_link(nodes[3], nodes[9], down(0.0)); // link 8
        (b.build(), nodes)
    }

    /// Everything observable a run produces, for bit-equality checks.
    #[derive(Debug, PartialEq)]
    struct Observed {
        processed: u64,
        now: SimTime,
        deliveries: Vec<Record>,
        transmissions: Vec<Record>,
        drops: Vec<DropRecord>,
        heard: Vec<Vec<(SimTime, Msg)>>,
        probes: Vec<ProbeRecord>,
    }

    /// Runs the full faulted scenario split over `shards` shards on
    /// `threads` threads, with a mid-run horizon stop to exercise the
    /// split/absorb round trip twice.
    fn run_scenario(shards: usize, threads: usize) -> Observed {
        let (topo, nodes) = scenario_topology();
        let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], shards));
        assert_eq!(plan.shard_count(), shards.min(3));
        let mut builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 42);
        builder.record_probes();
        builder.fault_plan(
            FaultPlan::new()
                .link_flap(
                    LinkId(0),
                    SimTime::from_millis(40),
                    SimTime::from_millis(80),
                )
                .at(
                    SimTime::from_millis(60),
                    FaultEvent::SetLoss(LinkId(3), LossModel::burst(0.3, 3.0)),
                )
                .at(SimTime::from_millis(50), FaultEvent::NodeCrash(nodes[6]))
                .at(SimTime::from_millis(90), FaultEvent::NodeRestart(nodes[6])),
        );
        let chan = builder.add_channel(&nodes);
        builder.add_agent(
            nodes[0],
            Box::new(Source {
                chan,
                next: 0,
                count: 12,
                repaired: Default::default(),
            }),
        );
        let receivers: Vec<NodeId> = nodes[4..].to_vec();
        for &r in &receivers {
            builder.add_agent(
                r,
                Box::new(Receiver {
                    chan: Some(chan),
                    ..Default::default()
                }),
            );
        }
        let mut e = builder.build();
        let mut processed = e.advance(
            RunSpec::to(SimTime::from_millis(70))
                .with_plan(Arc::clone(&plan))
                .with_threads(threads),
        );
        processed += e.advance(RunSpec::drain().with_plan(plan).with_threads(threads));
        Observed {
            processed,
            now: e.now(),
            deliveries: e.recorder().deliveries.clone(),
            transmissions: e.recorder().transmissions.clone(),
            drops: e.recorder().drops.clone(),
            heard: receivers
                .iter()
                .map(|&r| e.agent::<Receiver>(r).unwrap().heard.clone())
                .collect(),
            probes: e.probes().records().to_vec(),
        }
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_serial_at_any_shard_count() {
        let serial = run_scenario(1, 1);
        assert!(!serial.deliveries.is_empty());
        assert!(!serial.drops.is_empty(), "scenario must exercise loss");
        assert!(!serial.probes.is_empty(), "scenario must exercise probes");
        for (shards, threads) in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)] {
            let sharded = run_scenario(shards, threads);
            assert_eq!(
                serial, sharded,
                "divergence at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn membership_events_replicate_and_stay_bit_identical_across_shards() {
        use crate::scenario::{MembershipEvent, ScenarioPlan};
        // Leaf 4 leaves mid-stream and rejoins; leaf 9 joins late via a
        // ScenarioPlan.  The run must match serial bit-for-bit, and the
        // master's channel state after absorb must reflect the changes.
        let run = |shards: usize| {
            let (topo, nodes) = scenario_topology();
            let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], shards));
            let mut builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 42);
            let chan = builder.add_channel(&nodes);
            builder.add_agent(
                nodes[0],
                Box::new(Source {
                    chan,
                    next: 0,
                    count: 12,
                    repaired: Default::default(),
                }),
            );
            let receivers: Vec<NodeId> = nodes[4..].to_vec();
            for &r in &receivers {
                builder.add_agent(
                    r,
                    Box::new(Receiver {
                        chan: Some(chan),
                        ..Default::default()
                    }),
                );
            }
            let scen = ScenarioPlan::new()
                .at(
                    SimTime::from_millis(30),
                    MembershipEvent::Leave {
                        channel: chan,
                        node: nodes[4],
                    },
                )
                .at(
                    SimTime::from_millis(70),
                    MembershipEvent::Join {
                        channel: chan,
                        node: nodes[4],
                    },
                )
                .join_at(SimTime::from_millis(45), nodes[9], &[chan]);
            builder.scenario(scen);
            let mut e = builder.build();
            assert!(!e.channel(chan).contains(nodes[9]), "initially stripped");
            // Horizon stop mid-gap exercises replicated-membership requeue
            // (shard-0-only) plus the channel-state swap at absorb.
            let mut processed =
                e.advance(RunSpec::to(SimTime::from_millis(50)).with_plan(Arc::clone(&plan)));
            assert!(e.channel(chan).contains(nodes[9]), "join applied by 50ms");
            assert!(!e.channel(chan).contains(nodes[4]), "leave applied");
            processed += e.advance(RunSpec::drain().with_plan(plan));
            assert!(e.channel(chan).contains(nodes[4]), "rejoin applied");
            Observed {
                processed,
                now: e.now(),
                deliveries: e.recorder().deliveries.clone(),
                transmissions: e.recorder().transmissions.clone(),
                drops: e.recorder().drops.clone(),
                heard: receivers
                    .iter()
                    .map(|&r| e.agent::<Receiver>(r).unwrap().heard.clone())
                    .collect(),
                probes: Vec::new(),
            }
        };
        let serial = run(1);
        assert!(!serial.deliveries.is_empty());
        for shards in [2, 3] {
            assert_eq!(serial, run(shards), "divergence at shards={shards}");
        }
    }

    #[test]
    fn idle_sharded_run_terminates_and_advances_the_clock() {
        // Deadlock-freedom smoke: nothing queued, every round's global
        // minimum is +inf, so the workers must agree to stop immediately.
        let (topo, nodes) = scenario_topology();
        let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], 3));
        let builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 7);
        let mut e = builder.build();
        let processed = e.advance(RunSpec::to(SimTime::from_secs(5)).with_plan(plan));
        assert_eq!(processed, 0);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn builder_default_plan_is_used_when_runspec_leaves_it_unset() {
        let (topo, nodes) = scenario_topology();
        let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], 2));
        let mut builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 42);
        let chan = builder.add_channel(&nodes);
        builder.add_agent(
            nodes[0],
            Box::new(Source {
                chan,
                next: 0,
                count: 3,
                repaired: Default::default(),
            }),
        );
        builder.add_agent(nodes[4], Box::new(Receiver::default()));
        builder.shard_plan(plan).threads(2);
        let mut e = builder.build();
        e.advance(RunSpec::drain());
        assert!(!e.agent::<Receiver>(nodes[4]).unwrap().heard.is_empty());
    }

    #[test]
    fn lookahead_is_min_inter_shard_latency() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        b.add_link(n0, n1, LinkParams::lossless_infinite(ms(7)));
        b.add_link(n0, n2, LinkParams::lossless_infinite(ms(3)));
        let t = b.build();
        let plan = ShardPlan::by_subtrees(&t, n0, 2);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(min_cross_latency(&t, &plan), Some(ms(3)));
        let single = ShardPlan::single(t.node_count());
        assert_eq!(min_cross_latency(&t, &single), None);
    }
}
