//! The mesh simulator's two engines.
//!
//! Both schedule the same thing: greedy whole-route reservation on the
//! per-link timelines of [`crate::Mesh2D::simulate_phase`] (same filter,
//! same sort order), through the resilient transport of [`FaultPlan`]
//! (outage deferral, XY→YX rerouting, drop/retry/backoff with
//! escalation, receiver-side deduplication, black holes on dead
//! endpoints). Each engine is one **step** (schedule one phase's
//! messages) and one **driver** (walk the phases; apply the schedule's
//! phase boundary; checkpoint, detect deaths, roll back and fold).
//!
//! * The **per-call** engine ([`PhaseSim::simulate`] and the clean
//!   wrappers around it) walks routes on the fly with the
//!   allocation-free [`crate::mesh::RouteLinks`] iterator, scans the
//!   [`FaultPlan`] linearly and folds dead nodes with [`fold_target`]
//!   per message. It needs no preparation, so it serves one-shot
//!   simulations, and it is the reference the compiled engine is
//!   tested against.
//! * The **compiled** engine ([`PhaseSim::run_cached_phases`],
//!   [`FaultSim`]) replays [`CachedPhase`]s — messages pre-sorted, both
//!   routes flattened into dense link tables — under a
//!   [`CompiledFaultPlan`] whose outage lookups are binary searches and
//!   whose folds are table lookups. It serves payload sweeps and Monte
//!   Carlo seed batches.
//!
//! Every [`SchedulePolicy`] × {clean, faulty, recovering} cell is a case
//! of those four functions. The three schedules differ only in the
//! `Release` rule at a phase boundary; a clean run is a zero-fault
//! plan; a faulty run is a driver with no checkpoint policy (the
//! transport black-holes traffic to dead nodes); a recovering run has
//! one (the transport ignores deaths, the driver rolls back instead).
//!
//! The link table persists across calls and is *logically* cleared per
//! phase with an epoch stamp, so no engine allocates per message. The
//! untouched [`crate::Mesh2D::simulate_phase`] stays the clean oracle.

use crate::fault::{fold_target, CompiledFaultPlan, FaultPlan, FaultReport};
use crate::mesh::{Mesh2D, RouteLinks};
use crate::model::PMsg;
use crate::overlap::{
    inflation_exceeded, OverlapEvent, OverlapOrder, ScheduleMode, SchedulePolicy,
};
use crate::rng::XorShift64;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Reusable scratch state for simulating mesh communication phases.
#[derive(Debug, Clone)]
pub struct PhaseSim {
    mesh: Mesh2D,
    /// Per-link time at which the link becomes free — valid only where
    /// `stamp` equals the current epoch.
    free: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    /// The per-call step's filtered and sorted copy of the phase.
    scratch: Vec<PMsg>,
    /// Per-node release time of the current phase, and latest delivery
    /// into each node so far (see [`Release`]).
    node_ready: Vec<u64>,
    node_arrival: Vec<u64>,
    /// [`OverlapOrder::LongestFirst`] processing permutation.
    order: Vec<u32>,
}

/// When a phase's messages may leave their source — the one rule the
/// three schedules differ in.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Phased barriers: a fresh link epoch, every node ready at 0 on a
    /// phase-local clock. Fault windows and deaths are read on that
    /// clock, per phase.
    Restart,
    /// Overlapped: one link timeline and one absolute clock; a node is
    /// ready once every inflow of the earlier phases has landed.
    Merge,
    /// Adaptive after its downgrade: every node waits for the committed
    /// clock, on the same shared link timeline.
    Barrier(u64),
}

/// A [`SchedulePolicy`] resolved for one run.
#[derive(Debug, Clone, Copy)]
struct Schedule<'a> {
    /// Phase boundaries [`Release::Restart`] (phased) instead of merging.
    restart: bool,
    order: OverlapOrder,
    /// Adaptive degradation: the inflation threshold and the healthy
    /// overlapped prefix makespans it is measured against.
    adapt: Option<(f64, &'a [u64])>,
}

impl<'a> Schedule<'a> {
    /// `prefix` is read only by the adaptive policy.
    fn of(policy: SchedulePolicy, prefix: &'a [u64]) -> Self {
        let (restart, order, adapt) = match policy {
            SchedulePolicy::Fixed(ScheduleMode::Phased) => (true, OverlapOrder::Sorted, None),
            SchedulePolicy::Fixed(ScheduleMode::Overlapped(order)) => (false, order, None),
            SchedulePolicy::Adaptive {
                inflation_threshold,
            } => (
                false,
                OverlapOrder::Sorted,
                Some((inflation_threshold, prefix)),
            ),
        };
        Schedule {
            restart,
            order,
            adapt,
        }
    }
}

impl PhaseSim {
    /// Build a scratch engine for `mesh` (sizes the link table once).
    pub fn new(mesh: Mesh2D) -> Self {
        let links = mesh.link_count();
        let nodes = mesh.nodes();
        PhaseSim {
            mesh,
            free: vec![0; links],
            stamp: vec![0; links],
            epoch: 0,
            scratch: Vec::new(),
            node_ready: vec![0; nodes],
            node_arrival: vec![0; nodes],
            order: Vec::new(),
        }
    }

    /// The simulated machine.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Bump the epoch so every link reads as free.
    fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: physically clear the stamps once per 2³² phases.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn link_free_at(&self, link: usize) -> u64 {
        if self.stamp[link] == self.epoch {
            self.free[link]
        } else {
            0
        }
    }

    #[inline]
    fn reserve_link(&mut self, link: usize, until: u64) {
        self.stamp[link] = self.epoch;
        self.free[link] = until;
    }

    /// Start a run: free links, every node ready at 0, nothing arrived.
    fn begin_run(&mut self) {
        self.begin_phase();
        self.node_ready.fill(0);
        self.node_arrival.fill(0);
    }

    /// Apply a phase boundary to the per-node release times.
    fn release(&mut self, release: Release) {
        match release {
            // Every node is still ready at 0 (`begin_run`): a run that
            // restarts never releases any other way.
            Release::Restart => self.begin_phase(),
            Release::Merge => {
                for (ready, &arrival) in self.node_ready.iter_mut().zip(&self.node_arrival) {
                    *ready = (*ready).max(arrival);
                }
            }
            Release::Barrier(clock) => self.node_ready.fill(clock),
        }
    }

    /// Phase-boundary snapshot of the engine and the committed run.
    fn checkpoint(&self, run: &Run) -> Checkpoint {
        Checkpoint {
            phase: run.i,
            elapsed: run.now,
            report: run.total,
            barrier: run.barrier,
            free: self.free.clone(),
            stamp: self.stamp.clone(),
            epoch: self.epoch,
            node_ready: self.node_ready.clone(),
            node_arrival: self.node_arrival.clone(),
        }
    }

    /// Restore the link clocks and the per-node timeline.
    fn restore(&mut self, c: &Checkpoint) {
        self.free.copy_from_slice(&c.free);
        self.stamp.copy_from_slice(&c.stamp);
        self.epoch = c.epoch;
        self.node_ready.copy_from_slice(&c.node_ready);
        self.node_arrival.copy_from_slice(&c.node_arrival);
    }

    // --- the per-call engine ---------------------------------------------

    /// Simulate one phase; returns the same makespan as
    /// [`Mesh2D::simulate_phase`] without any per-call allocation (after
    /// the scratch buffers have warmed up).
    pub fn simulate_phase(&mut self, msgs: &[PMsg]) -> u64 {
        self.clean(&[msgs], ScheduleMode::Phased)
    }

    /// Simulate dependent phases back to back (each starts after the
    /// previous completes); returns the total time.
    pub fn simulate_phases(&mut self, phases: &[Vec<PMsg>]) -> u64 {
        self.simulate_phases_mode(phases, ScheduleMode::Phased)
    }

    /// Simulate `phases` under `mode` (see [`crate::overlap`] for the
    /// overlapped readiness rule and its ordering guarantees).
    pub fn simulate_phases_mode(&mut self, phases: &[Vec<PMsg>], mode: ScheduleMode) -> u64 {
        self.clean(phases, mode)
    }

    /// The clean per-call run: the driver under a zero-fault plan.
    fn clean<P: AsRef<[PMsg]>>(&mut self, phases: &[P], mode: ScheduleMode) -> u64 {
        let sched = SchedulePolicy::Fixed(mode);
        self.drive(phases, &FaultPlan::none(), sched, None, |_| {})
            .makespan
    }

    /// Overlapped makespan of `phases` under `order`.
    pub fn simulate_phases_overlapped(&mut self, phases: &[Vec<PMsg>], order: OverlapOrder) -> u64 {
        self.simulate_phases_mode(phases, ScheduleMode::Overlapped(order))
    }

    /// Like [`PhaseSim::simulate_phases_overlapped`], additionally
    /// returning every scheduled transmission in processing order.
    pub fn simulate_phases_overlapped_traced(
        &mut self,
        phases: &[Vec<PMsg>],
        order: OverlapOrder,
    ) -> (u64, Vec<OverlapEvent>) {
        let mut events = Vec::new();
        let sched = SchedulePolicy::Fixed(ScheduleMode::Overlapped(order));
        let rep = self.drive(phases, &FaultPlan::none(), sched, None, |e| events.push(e));
        (rep.makespan, events)
    }

    /// Healthy (fault-free) overlapped makespan of every phase prefix:
    /// entry `k` is the makespan after phases `0..=k` under `order` —
    /// the baseline [`SchedulePolicy::Adaptive`] measures inflation
    /// against. The last entry equals
    /// [`PhaseSim::simulate_phases_overlapped`].
    pub fn simulate_phases_overlapped_prefix<P: AsRef<[PMsg]>>(
        &mut self,
        phases: &[P],
        order: OverlapOrder,
    ) -> Vec<u64> {
        let mut prefix = vec![0u64; phases.len()];
        let sched = SchedulePolicy::Fixed(ScheduleMode::Overlapped(order));
        self.drive(phases, &FaultPlan::none(), sched, None, |e| {
            prefix[e.phase] = prefix[e.phase].max(e.end);
        });
        // Phases without events inherit the prefix makespan so far.
        let mut acc = 0u64;
        for v in prefix.iter_mut() {
            acc = acc.max(*v);
            *v = acc;
        }
        prefix
    }

    /// Simulate dependent phases under `plan` and the schedule `sched`
    /// — the single per-call entry point of every fault level:
    ///
    /// * a [`FaultPlan::is_zero_fault`] plan takes none of the fault
    ///   branches and is **bit-identical** to
    ///   [`PhaseSim::simulate_phases_mode`] under
    ///   [`SchedulePolicy::healthy_mode`];
    /// * with `recovery: None` the run is **faulty**: a message whose
    ///   endpoint is permanently dead at send time ([`crate::NodeDeath`])
    ///   is black-holed (counted under `lost` and `black_holes`);
    /// * with a [`CheckpointPolicy`] the run is **recovering**: the
    ///   driver checkpoints every `policy.interval`-th boundary into a
    ///   ring of `policy.ring`; a death at `t` is detected at
    ///   [`FaultPlan::detection_time`], the run rolls back to the newest
    ///   checkpoint at-or-before `t`, folds the dead node's traffic onto
    ///   its nearest survivor ([`fold_target`]) and replays. The report
    ///   describes the committed run (exactly-once delivery, zero-death
    ///   bit-identity with the faulty run); undone work, rollbacks,
    ///   replays and checkpoint overhead land in
    ///   [`crate::RecoveryReport`].
    ///
    /// Phase `i` draws from its own PRNG stream (`plan.seed + i`), so
    /// editing one phase never shifts another's fault sequence, and
    /// replays after a rollback are deterministic. Phased runs read
    /// outage windows and deaths on each phase's own clock; overlapped
    /// and adaptive runs on one absolute clock. The report's `makespan`
    /// is the committed clock.
    pub fn simulate(
        &mut self,
        phases: &[Vec<PMsg>],
        plan: &FaultPlan,
        sched: SchedulePolicy,
        recovery: Option<&CheckpointPolicy>,
    ) -> FaultReport {
        self.drive(phases, plan, sched, recovery, |_| {})
    }

    /// The per-call driver. `sink` sees every delivering transmission.
    fn drive<P: AsRef<[PMsg]>>(
        &mut self,
        phases: &[P],
        plan: &FaultPlan,
        sched: SchedulePolicy,
        recovery: Option<&CheckpointPolicy>,
        mut sink: impl FnMut(OverlapEvent),
    ) -> FaultReport {
        let prefix = match sched {
            SchedulePolicy::Adaptive { .. } => {
                self.simulate_phases_overlapped_prefix(phases, OverlapOrder::Sorted)
            }
            SchedulePolicy::Fixed(_) => Vec::new(),
        };
        let shape = Schedule::of(sched, &prefix);
        // A recovering run survives deaths by rollback: its transport
        // must not black-hole traffic to a not-yet-detected dead node.
        let stripped;
        let transport = match recovery {
            Some(_) => {
                stripped = FaultPlan {
                    node_deaths: Vec::new(),
                    ..plan.clone()
                };
                &stripped
            }
            None => plan,
        };
        // A plan with no transport event runs the step without its fault
        // branches (see [`PhaseSim::step`]).
        let faults = !transport.is_zero_fault();
        let (px, py) = (self.mesh.px, self.mesh.py);
        let mut handled = vec![false; plan.node_deaths.len()];
        let mut dead: Vec<usize> = Vec::new();
        let mut folded = Vec::new();
        let mut run = Run::new(recovery);
        self.begin_run();
        loop {
            let i = run.i;
            let mut pending = None;
            if i < phases.len() {
                run.checkpoint(self);
                // Fold traffic of already-detected dead nodes onto their
                // nearest survivors; a message with no possible target
                // (all nodes dead) is dropped.
                let mut dropped = 0usize;
                let msgs: &[PMsg] = if dead.is_empty() {
                    phases[i].as_ref()
                } else {
                    let fold = |n| {
                        if dead.contains(&n) {
                            fold_target(px, py, n, &dead)
                        } else {
                            Some(n)
                        }
                    };
                    folded.clear();
                    for m in phases[i].as_ref() {
                        match (fold(m.src), fold(m.dst)) {
                            (Some(src), Some(dst)) => folded.push(PMsg { src, dst, ..*m }),
                            _ => dropped += 1,
                        }
                    }
                    &folded
                };
                let release = run.release(shape);
                let seed = plan.seed.wrapping_add(i as u64);
                let mut sink = |e| sink(OverlapEvent { phase: i, ..e });
                let (order, sink) = (shape.order, &mut sink);
                let rep = if faults {
                    self.step::<true, _>(msgs, transport, seed, order, release, sink)
                } else {
                    self.step::<false, _>(msgs, transport, seed, order, release, sink)
                };
                pending = Some(run.close(rep, dropped, shape));
            }
            if recovery.is_some() {
                // Earliest unhandled death the detector can see: inside
                // the span this phase would commit, or — once all phases
                // are done — anywhere inside the committed run.
                let visible = plan
                    .node_deaths
                    .iter()
                    .enumerate()
                    .filter(|(k, d)| {
                        !handled[*k]
                            && match &pending {
                                Some(p) => plan.detection_time(d.t) <= p.end,
                                None => d.t < run.now,
                            }
                    })
                    .min_by_key(|(_, d)| (d.t, d.node));
                if let Some((k, d)) = visible {
                    handled[k] = true;
                    run.total.recovery.detected += 1;
                    if !dead.contains(&d.node) {
                        dead.push(d.node);
                        run.total.recovery.folded_nodes += 1;
                    }
                    let end = pending.map_or(run.now, |p| p.end);
                    run.rollback(self, d.t, end);
                    continue;
                }
            }
            let Some(p) = pending else {
                break;
            };
            run.commit(p, shape);
        }
        // Only deaths that struck the run count: one scheduled past the
        // committed end never happened to it.
        run.total.recovery.deaths = handled.iter().filter(|&&h| h).count();
        run.total
    }

    /// The per-call step: filter and sort `msgs`, then schedule each
    /// through the resilient transport from its source's release time.
    /// The report's `makespan` is the latest end on the phase's clock.
    /// `FAULTS = false` promises a [`FaultPlan::is_zero_fault`] plan, so
    /// the clean instance — every served simulation's hot loop — compiles
    /// out the liveness, drop and duplication branches.
    fn step<const FAULTS: bool, S: FnMut(OverlapEvent)>(
        &mut self,
        msgs: &[PMsg],
        plan: &FaultPlan,
        seed: u64,
        order: OverlapOrder,
        release: Release,
        sink: &mut S,
    ) -> FaultReport {
        self.release(release);
        // A restarted phase's arrivals are never read: every later
        // boundary of the run restarts too.
        let merge = !matches!(release, Release::Restart);
        self.scratch.clear();
        self.scratch
            .extend(msgs.iter().copied().filter(|m| m.src != m.dst));
        // `PMsg` has a total order, so unstable sorting is observationally
        // identical to the oracle's stable sort.
        self.scratch.sort_unstable();
        let longest = order == OverlapOrder::LongestFirst;
        if longest {
            let (scratch, mesh) = (&self.scratch, &self.mesh);
            prioritize(&mut self.order, scratch.len(), &self.node_ready, |i| {
                (scratch[i].src, mesh.hops(scratch[i].src, scratch[i].dst))
            });
        }
        let mut rng = XorShift64::new(seed);
        let mut rep = FaultReport {
            messages: self.scratch.len(),
            ..FaultReport::default()
        };
        let max_attempts = plan.retry.attempt_cap();
        // Skipping a check when the plan has no matching event is
        // observationally identical: the scan would find nothing, and no
        // draw matters when neither probability can fire.
        let check_nodes = FAULTS && (!plan.node_outages.is_empty() || !plan.node_deaths.is_empty());
        let random = FAULTS && !(plan.drop_prob <= 0.0 && plan.dup_prob <= 0.0);
        for oi in 0..self.scratch.len() {
            let m = self.scratch[if longest { self.order[oi] as usize } else { oi }];
            let ready = self.node_ready[m.src];
            let mut next_send = ready;
            let mut attempt = 0u32;
            loop {
                if check_nodes {
                    // Defer while an endpoint is inside an outage window;
                    // a permanently dead endpoint black-holes the message.
                    let alive = plan
                        .node_alive_after(m.src, next_send)
                        .max(plan.node_alive_after(m.dst, next_send));
                    if alive == u64::MAX {
                        rep.lost += 1;
                        rep.black_holes += 1;
                        break;
                    }
                    if alive > next_send {
                        rep.deferrals += 1;
                        next_send = alive;
                        continue;
                    }
                }
                // Route selection: XY unless dead, then YX, else wait out
                // the outage. Each deferral jumps to a strictly later
                // outage boundary, so this loop is bounded.
                let (start, hops, xy_dead) =
                    self.scan_route(self.mesh.route_links(m.src, m.dst), next_send, plan);
                let (use_yx, start, hops) = if xy_dead.is_none() {
                    (false, start, hops)
                } else {
                    let (start_yx, hops_yx, yx_dead) =
                        self.scan_route(self.mesh.route_links_yx(m.src, m.dst), next_send, plan);
                    if let Some(yx_until) = yx_dead {
                        rep.deferrals += 1;
                        next_send = xy_dead
                            .unwrap_or(u64::MAX)
                            .min(yx_until)
                            .max(next_send.saturating_add(1));
                        continue;
                    }
                    rep.reroutes += 1;
                    (true, start_yx, hops_yx)
                };
                let route = |mesh: &Mesh2D| {
                    if use_yx {
                        mesh.route_links_yx(m.src, m.dst)
                    } else {
                        mesh.route_links(m.src, m.dst)
                    }
                };
                // Transmit (a lost attempt still occupies its links).
                attempt += 1;
                rep.attempts += 1;
                let end = self.transmit(route(&self.mesh), start, hops, m.bytes);
                rep.makespan = rep.makespan.max(end);
                let escalated = plan.retry.enabled && attempt >= max_attempts;
                let unlucky = random && rng.chance(plan.drop_prob);
                if unlucky && !escalated {
                    if !plan.retry.enabled {
                        rep.lost += 1;
                        break;
                    }
                    rep.retries += 1;
                    next_send = end.saturating_add(plan.retry.backoff_delay(attempt));
                    continue;
                }
                if unlucky && escalated {
                    rep.escalations += 1;
                }
                rep.delivered += 1;
                // Only the delivering transmission carries readiness.
                if merge {
                    self.node_arrival[m.dst] = self.node_arrival[m.dst].max(end);
                }
                sink(OverlapEvent {
                    phase: 0, // the driver knows the index
                    msg: m,
                    ready,
                    start,
                    end,
                });
                // Lost-acknowledgement duplicate, suppressed at the
                // receiver: pure wasted bandwidth. The delivery just
                // reserved every link of the route to `end`, so it goes
                // out back to back without a rescan.
                if random && rng.chance(plan.dup_prob) {
                    rep.duplicates += 1;
                    rep.attempts += 1;
                    let end2 = self.transmit(route(&self.mesh), end, hops, m.bytes);
                    rep.makespan = rep.makespan.max(end2);
                }
                break;
            }
        }
        rep
    }

    /// Scan a candidate route: earliest start ≥ `not_before` given current
    /// link reservations, the hop count, and — if any link of the route is
    /// inside an outage window at that start — the earliest time one of the
    /// dead links comes back (the time worth deferring to).
    fn scan_route(
        &self,
        route: RouteLinks,
        not_before: u64,
        plan: &FaultPlan,
    ) -> (u64, usize, Option<u64>) {
        let mut start = not_before;
        let mut hops = 0usize;
        for l in route.clone() {
            hops += 1;
            start = start.max(self.link_free_at(l.index()));
        }
        let mut dead_until: Option<u64> = None;
        if !plan.link_outages.is_empty() {
            for l in route {
                if let Some(u) = plan.link_outage_until(l.index(), start) {
                    dead_until = Some(dead_until.map_or(u, |d: u64| d.min(u)));
                }
            }
        }
        (start, hops, dead_until)
    }

    /// Transmit once over `route`, reserving every link `[start, end)`.
    fn transmit(&mut self, route: RouteLinks, start: u64, hops: usize, bytes: u64) -> u64 {
        let end = start.saturating_add(self.mesh.cost.p2p(hops, bytes));
        for l in route {
            self.reserve_link(l.index(), end);
        }
        end
    }

    // --- the compiled engine ---------------------------------------------

    /// Replay precompiled phases under `mode` with every payload scaled
    /// by `byte_scale` — the batch-sweep fast path. Equals
    /// [`PhaseSim::simulate_phases_mode`] on the scaled message sets
    /// (uniform scaling preserves both the sorted order and the
    /// longest-first priority).
    pub fn run_cached_phases(
        &mut self,
        phases: &[CachedPhase],
        mode: ScheduleMode,
        byte_scale: u64,
    ) -> u64 {
        let shape = Schedule::of(SchedulePolicy::Fixed(mode), &[]);
        let clean = CompiledFaultPlan::none();
        self.replay(phases, &clean, 0, shape, byte_scale, None)
            .makespan
    }

    /// The compiled driver: [`PhaseSim::drive`] over [`CachedPhase`]s
    /// under the compiled `plan` with the run's `seed`. `recovery`
    /// carries the checkpoint policy, the raw phases and the
    /// folded-phase cache (see [`FaultSim`]).
    fn replay(
        &mut self,
        phases: &[CachedPhase],
        plan: &CompiledFaultPlan,
        seed: u64,
        shape: Schedule,
        byte_scale: u64,
        mut recovery: Option<(&CheckpointPolicy, &[Vec<PMsg>], &mut FoldCache)>,
    ) -> FaultReport {
        let deaths = match recovery {
            Some(_) => plan.sorted_deaths(),
            None => &[],
        };
        // Deaths are precompiled in handling order ((t, node), stable),
        // so the per-call scan for the earliest visible unhandled death
        // becomes one pointer: visibility is monotone along that order.
        let mut next_death = 0usize;
        // Unique deaths folded so far — the fold-table prefix in force.
        let mut k = 0usize;
        // A recovering transport ignores deaths; the driver rolls back.
        let black_holes = recovery.is_none();
        // A plan with no transport event runs the step without its fault
        // branches (see [`PhaseSim::replay_step`]).
        let step = if !plan.plan().is_zero_fault() {
            Self::replay_step::<true>
        } else {
            Self::replay_step::<false>
        };
        let mut run = Run::new(recovery.as_ref().map(|r| r.0));
        self.begin_run();
        loop {
            let i = run.i;
            let mut pending = None;
            if i < phases.len() {
                run.checkpoint(self);
                let (phase, dropped) = match &mut recovery {
                    Some((_, raw, folds)) if k > 0 => {
                        let mesh = &self.mesh;
                        let entry = folds
                            .entry((i, k))
                            .or_insert_with(|| compile_folded(mesh, plan, &raw[i], k));
                        (&entry.0, entry.1)
                    }
                    _ => (&phases[i], 0),
                };
                let release = run.release(shape);
                let seed = seed.wrapping_add(i as u64);
                let rep = step(
                    self,
                    phase,
                    plan,
                    black_holes,
                    seed,
                    shape.order,
                    release,
                    byte_scale,
                );
                pending = Some(run.close(rep, dropped, shape));
            }
            let visible = deaths.get(next_death).filter(|d| match &pending {
                Some(p) => d.detect <= p.end,
                None => d.t < run.now,
            });
            if let Some(d) = visible {
                next_death += 1;
                run.total.recovery.detected += 1;
                if d.first {
                    run.total.recovery.folded_nodes += 1;
                }
                k = d.k_after;
                let end = pending.map_or(run.now, |p| p.end);
                run.rollback(self, d.t, end);
                continue;
            }
            let Some(p) = pending else {
                break;
            };
            run.commit(p, shape);
        }
        run.total.recovery.deaths = next_death;
        run.total
    }

    /// The compiled step: [`PhaseSim::step`] over a [`CachedPhase`] —
    /// no filtering, sorting or route arithmetic, and every outage
    /// lookup a binary search. `deaths = false` is the recovering
    /// transport's view (deaths survived by rollback, not black-holed).
    /// `FAULTS = false` promises a [`FaultPlan::is_zero_fault`] plan, so
    /// the clean instance — the payload sweep's hot loop — carries none
    /// of the fault branches (they made it about 1.6× slower).
    #[allow(clippy::too_many_arguments)]
    fn replay_step<const FAULTS: bool>(
        &mut self,
        phase: &CachedPhase,
        plan: &CompiledFaultPlan,
        deaths: bool,
        seed: u64,
        order: OverlapOrder,
        release: Release,
        byte_scale: u64,
    ) -> FaultReport {
        self.release(release);
        let merge = !matches!(release, Release::Restart);
        let longest = order == OverlapOrder::LongestFirst;
        if longest {
            prioritize(&mut self.order, phase.len(), &self.node_ready, |i| {
                (phase.src[i] as usize, phase.hops(i))
            });
        }
        let p = plan.plan();
        // As in the per-call step, checks with no matching event are
        // skipped.
        let live = FAULTS && plan.check_nodes(deaths);
        let outages = FAULTS && plan.has_link_outages();
        let random = FAULTS && !(p.drop_prob <= 0.0 && p.dup_prob <= 0.0);
        let max_attempts = p.retry.attempt_cap();
        let mut rng = XorShift64::new(seed);
        let mut rep = FaultReport {
            messages: phase.len(),
            ..FaultReport::default()
        };
        for oi in 0..phase.len() {
            let i = if longest { self.order[oi] as usize } else { oi };
            let (src, dst) = (phase.src[i] as usize, phase.dst[i] as usize);
            let (lo, hi) = (phase.offsets[i] as usize, phase.offsets[i + 1] as usize);
            let xy = &phase.links[lo..hi];
            let dur = self.mesh.cost.p2p(hi - lo, phase.bytes[i] * byte_scale);
            let mut next_send = self.node_ready[src];
            let mut attempt = 0u32;
            loop {
                if live {
                    let alive = plan
                        .node_alive_after_mode(src, next_send, deaths)
                        .max(plan.node_alive_after_mode(dst, next_send, deaths));
                    if alive == u64::MAX {
                        rep.lost += 1;
                        rep.black_holes += 1;
                        break;
                    }
                    if alive > next_send {
                        rep.deferrals += 1;
                        next_send = alive;
                        continue;
                    }
                }
                let start = self.route_start(xy, next_send);
                let xy_dead = if outages {
                    scan_outages(xy, start, plan)
                } else {
                    None
                };
                let (links, start) = match xy_dead {
                    Some(xy_until) => {
                        let yx = &phase.yx_links[lo..hi];
                        let start_yx = self.route_start(yx, next_send);
                        if let Some(yx_until) = scan_outages(yx, start_yx, plan) {
                            rep.deferrals += 1;
                            next_send = xy_until.min(yx_until).max(next_send.saturating_add(1));
                            continue;
                        }
                        rep.reroutes += 1;
                        (yx, start_yx)
                    }
                    None => (xy, start),
                };
                attempt += 1;
                rep.attempts += 1;
                let end = start.saturating_add(dur);
                for &l in links {
                    self.reserve_link(l as usize, end);
                }
                rep.makespan = rep.makespan.max(end);
                let escalated = p.retry.enabled && attempt >= max_attempts;
                let unlucky = random && rng.chance(p.drop_prob);
                if unlucky && !escalated {
                    if !p.retry.enabled {
                        rep.lost += 1;
                        break;
                    }
                    rep.retries += 1;
                    next_send = end.saturating_add(p.retry.backoff_delay(attempt));
                    continue;
                }
                if unlucky && escalated {
                    rep.escalations += 1;
                }
                rep.delivered += 1;
                if merge {
                    self.node_arrival[dst] = self.node_arrival[dst].max(end);
                }
                if random && rng.chance(p.dup_prob) {
                    rep.duplicates += 1;
                    rep.attempts += 1;
                    let end2 = end.saturating_add(dur);
                    for &l in links {
                        self.reserve_link(l as usize, end2);
                    }
                    rep.makespan = rep.makespan.max(end2);
                }
                break;
            }
        }
        rep
    }

    /// Earliest start ≥ `not_before` at which every link is free.
    #[inline]
    fn route_start(&self, links: &[u32], not_before: u64) -> u64 {
        links
            .iter()
            .fold(not_before, |t, &l| t.max(self.link_free_at(l as usize)))
    }
}

/// Fill `order` with the [`OverlapOrder::LongestFirst`] permutation of
/// `n` sorted messages: (release time, longest route first, sorted
/// index). `src_hops(i)` is message `i`'s source and hop count.
fn prioritize(
    order: &mut Vec<u32>,
    n: usize,
    ready: &[u64],
    src_hops: impl Fn(usize) -> (usize, usize),
) {
    order.clear();
    order.extend(0..n as u32);
    order.sort_by_key(|&i| {
        let (src, hops) = src_hops(i as usize);
        (ready[src], Reverse(hops), i)
    });
}

/// Earliest comeback time among route links inside an outage window at
/// `start` — the compiled form of the per-link
/// [`FaultPlan::link_outage_until`] scan in `scan_route`.
#[inline]
fn scan_outages(links: &[u32], start: u64, plan: &CompiledFaultPlan) -> Option<u64> {
    let mut dead_until: Option<u64> = None;
    for &l in links {
        if let Some(u) = plan.link_outage_until(l as usize, start) {
            dead_until = Some(dead_until.map_or(u, |d: u64| d.min(u)));
        }
    }
    dead_until
}

/// The committed run both drivers walk: clock, report, the adaptive
/// barrier flag, and the checkpoint ring.
struct Run<'a> {
    policy: Option<&'a CheckpointPolicy>,
    ring: VecDeque<Checkpoint>,
    total: FaultReport,
    /// Committed clock, in ns.
    now: u64,
    /// Adaptive downgrade in force (see [`Release::Barrier`]).
    barrier: bool,
    /// Next phase to run.
    i: usize,
    /// Highest phase index committed so far (exclusive): commits below
    /// it are re-executions after a rollback.
    frontier: usize,
}

/// A phase that ran but is not committed yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The step's report, its `makespan` re-expressed as the clock
    /// advance.
    rep: FaultReport,
    /// Messages dropped by the fold (no survivor to take them).
    dropped: usize,
    /// Committed clock once this phase commits.
    end: u64,
}

impl<'a> Run<'a> {
    fn new(policy: Option<&'a CheckpointPolicy>) -> Self {
        Run {
            policy,
            ring: VecDeque::new(),
            total: FaultReport::default(),
            now: 0,
            barrier: false,
            i: 0,
            frontier: 0,
        }
    }

    fn release(&self, shape: Schedule) -> Release {
        if shape.restart {
            Release::Restart
        } else if self.barrier {
            Release::Barrier(self.now)
        } else {
            Release::Merge
        }
    }

    /// Checkpoint at the boundary of phase `i` if the policy asks for
    /// one — unless the rollback just taken restored exactly this point
    /// (its snapshot is already the ring's newest entry).
    fn checkpoint(&mut self, sim: &PhaseSim) {
        let Some(policy) = self.policy else {
            return;
        };
        let due = self.i % policy.interval.max(1) == 0;
        if due
            && self
                .ring
                .back()
                .is_none_or(|c| c.phase != self.i || c.elapsed != self.now)
        {
            if self.ring.len() == policy.ring.max(1) {
                self.ring.pop_front();
            }
            self.ring.push_back(sim.checkpoint(self));
            self.total.recovery.checkpoints += 1;
            self.total.recovery.checkpoint_overhead_ns += policy.cost_ns;
        }
    }

    /// Turn a step's report into a pending phase: the clock advances by
    /// `max(base, latest end) - base`, where `base` is 0 on a restarted
    /// phase-local clock and the committed clock otherwise — so absorbed
    /// reports sum to the final clock under every schedule.
    fn close(&self, mut rep: FaultReport, dropped: usize, shape: Schedule) -> Pending {
        let base = if shape.restart { 0 } else { self.now };
        rep.makespan = base.max(rep.makespan) - base;
        Pending {
            rep,
            dropped,
            end: self.now + rep.makespan,
        }
    }

    /// Commit a phase; the adaptive policy degrades to barriers for the
    /// rest of the run once the committed clock crosses its threshold
    /// over the healthy prefix.
    fn commit(&mut self, p: Pending, shape: Schedule) {
        self.total.absorb(&p.rep);
        self.total.messages += p.dropped;
        self.total.lost += p.dropped;
        self.total.black_holes += p.dropped as u64;
        self.now = p.end;
        if let Some((threshold, prefix)) = shape.adapt {
            if !self.barrier && inflation_exceeded(self.now, prefix[self.i], threshold) {
                self.barrier = true;
                self.total.downgrades += 1;
            }
        }
        if self.i < self.frontier {
            self.total.recovery.replayed_phases += 1;
        } else {
            self.frontier = self.i + 1;
        }
        self.i += 1;
    }

    /// Roll back to the newest checkpoint at-or-before a death at `t`
    /// (the oldest surviving one if the ring already evicted it); the
    /// work from there to `end` is lost.
    fn rollback(&mut self, sim: &mut PhaseSim, t: u64, end: u64) {
        let pos = self.ring.iter().rposition(|c| c.elapsed <= t).unwrap_or(0);
        self.ring.truncate(pos + 1);
        let c = self.ring.back().expect("phase 0 is always checkpointed");
        let mut recovery = self.total.recovery;
        recovery.lost_work_ns += end - c.elapsed;
        recovery.rollbacks += 1;
        self.total = c.report;
        self.total.recovery = recovery;
        self.now = c.elapsed;
        self.i = c.phase;
        self.barrier = c.barrier;
        sim.restore(c);
    }
}

/// When and how often the recovering drivers take checkpoints, and how
/// many they keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every `interval` phases (clamped to ≥ 1). Small
    /// intervals bound lost work; large ones bound overhead.
    pub interval: usize,
    /// Number of recent checkpoints retained (clamped to ≥ 1). The ring
    /// must reach back past the failure detector's latency, or a rollback
    /// falls back to the oldest surviving snapshot and loses more work.
    pub ring: usize,
    /// Simulated cost of writing one checkpoint, in ns. Accounted in
    /// [`crate::RecoveryReport::checkpoint_overhead_ns`], *not* in the
    /// makespan — zero-death runs stay bit-identical to the unfaulted
    /// scheduler.
    pub cost_ns: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: 4,
            ring: 8,
            cost_ns: 25_000, // ≈ one message start-up per snapshot
        }
    }
}

/// A phase-boundary snapshot of the committed run: the accounting, the
/// link clocks and the per-node timeline — rollback must restore
/// readiness too, or the replay would release messages against a future
/// that was undone.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Next phase to execute when restored.
    phase: usize,
    /// Committed simulated time at the boundary, in ns.
    elapsed: u64,
    /// Committed fault accounting at the boundary.
    report: FaultReport,
    /// The adaptive policy's downgrade flag at the boundary.
    barrier: bool,
    free: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    node_ready: Vec<u64>,
    node_arrival: Vec<u64>,
}

/// A phase compiled for repeated replay: messages filtered and sorted
/// exactly as the greedy scheduler wants them, with both routes of every
/// message flattened into dense link tables — XY, and the YX fallback
/// taken around a dead link. The two routes have the same hop count, so
/// they share one offset table.
#[derive(Debug, Clone)]
pub struct CachedPhase {
    /// Concatenated XY route link indices, in schedule order.
    pub(crate) links: Vec<u32>,
    /// Concatenated YX route link indices.
    pub(crate) yx_links: Vec<u32>,
    /// Prefix offsets into both link tables (`len + 1` entries).
    pub(crate) offsets: Vec<u32>,
    /// Payload of each scheduled message.
    pub(crate) bytes: Vec<u64>,
    /// Endpoints of each scheduled message.
    pub(crate) src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
}

impl CachedPhase {
    /// Compile `msgs` for `mesh`: filter self-messages, sort, and record
    /// both routes of every message once.
    pub fn new(mesh: &Mesh2D, msgs: &[PMsg]) -> Self {
        let mut sorted: Vec<PMsg> = msgs.iter().copied().filter(|m| m.src != m.dst).collect();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut out = CachedPhase {
            links: Vec::new(),
            yx_links: Vec::new(),
            offsets: Vec::with_capacity(n + 1),
            bytes: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
        };
        out.offsets.push(0);
        for m in &sorted {
            let index = |l: crate::mesh::LinkId| l.index() as u32;
            out.links.extend(mesh.route_links(m.src, m.dst).map(index));
            out.yx_links
                .extend(mesh.route_links_yx(m.src, m.dst).map(index));
            out.offsets.push(out.links.len() as u32);
            out.bytes.push(m.bytes);
            out.src.push(m.src as u32);
            out.dst.push(m.dst as u32);
        }
        out
    }

    /// Number of scheduled (non-local) messages.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when no message crosses a link.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Route length of message `i`.
    fn hops(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

/// Folded phases of a recovering replay, keyed by `(phase index, unique
/// deaths folded)`, with the dropped (no-survivor) message count.
type FoldCache = BTreeMap<(usize, usize), (CachedPhase, usize)>;

/// The compiled fault-simulation engine: one phase set, one fault plan,
/// many seeds. Compiles every phase once ([`CachedPhase`]) and the plan
/// once ([`CompiledFaultPlan`]), then replays the whole run per seed
/// with zero routing or sorting work. Every replay is **bit-identical**
/// to [`PhaseSim::simulate`] with the same seed substituted into the
/// plan — pinned by differential property tests.
#[derive(Debug, Clone)]
pub struct FaultSim {
    sim: PhaseSim,
    plan: CompiledFaultPlan,
    phases: Vec<Vec<PMsg>>,
    cached: Vec<CachedPhase>,
    /// Fold outcomes depend only on the plan's death order — never on
    /// the seed — so entries are reused across all replications.
    folded: FoldCache,
    /// Healthy overlapped prefix makespans — the adaptive policy's
    /// baseline. Computed lazily from the (plan-independent) phases on
    /// the first adaptive run; survives [`FaultSim::set_plan`].
    healthy_prefix: Option<Vec<u64>>,
}

impl FaultSim {
    /// Compile `phases` and `plan` for `mesh`.
    pub fn new(mesh: &Mesh2D, phases: &[Vec<PMsg>], plan: &FaultPlan) -> Self {
        FaultSim {
            sim: PhaseSim::new(mesh.clone()),
            plan: CompiledFaultPlan::new(plan, mesh),
            phases: phases.to_vec(),
            cached: phases.iter().map(|p| CachedPhase::new(mesh, p)).collect(),
            folded: BTreeMap::new(),
            healthy_prefix: None,
        }
    }

    /// The simulated machine.
    pub fn mesh(&self) -> &Mesh2D {
        self.sim.mesh()
    }

    /// The current fault plan.
    pub fn plan(&self) -> &FaultPlan {
        self.plan.plan()
    }

    /// Swap the fault plan, keeping the (plan-independent) compiled
    /// phases — the sweep fast path for evaluating one workload under
    /// many plans.
    pub fn set_plan(&mut self, plan: &FaultPlan) {
        self.plan = CompiledFaultPlan::new(plan, self.sim.mesh());
        self.folded.clear();
    }

    /// The adaptive baseline, computed on first use (the per-call
    /// engine's healthy overlapped prefix of the raw phases).
    fn prepare(&mut self, sched: SchedulePolicy) {
        if matches!(sched, SchedulePolicy::Adaptive { .. }) && self.healthy_prefix.is_none() {
            let prefix = self
                .sim
                .simulate_phases_overlapped_prefix(&self.phases, OverlapOrder::Sorted);
            self.healthy_prefix = Some(prefix);
        }
    }

    /// Replay the whole run once with `seed` substituted for the plan's:
    /// bit-identical to [`PhaseSim::simulate`] with
    /// `FaultPlan { seed, ..plan }`, the same `sched` and no recovery.
    pub fn run_faulty(&mut self, seed: u64, sched: SchedulePolicy) -> FaultReport {
        self.prepare(sched);
        let prefix = self.healthy_prefix.as_deref().unwrap_or_default();
        let shape = Schedule::of(sched, prefix);
        self.sim
            .replay(&self.cached, &self.plan, seed, shape, 1, None)
    }

    /// Per-phase reports of the **phased** replay (same per-phase seed
    /// derivation, `seed + index`): the batch-API view of the guarantee
    /// that editing one phase never shifts another's fault stream.
    /// Overlapped runs have no per-phase decomposition — a phase's
    /// schedule depends on every earlier phase's arrivals.
    pub fn run_faulty_per_phase(&mut self, seed: u64) -> Vec<FaultReport> {
        let shape = Schedule::of(SchedulePolicy::default(), &[]);
        (0..self.cached.len())
            .map(|i| {
                let seed = seed.wrapping_add(i as u64);
                self.sim
                    .replay(&self.cached[i..=i], &self.plan, seed, shape, 1, None)
            })
            .collect()
    }

    /// Replay one faulty run per seed under `sched` — the Monte Carlo
    /// batch API. The compile cost is paid once, before the first seed.
    pub fn replay_faulty(&mut self, seeds: &[u64], sched: SchedulePolicy) -> Vec<FaultReport> {
        seeds.iter().map(|&s| self.run_faulty(s, sched)).collect()
    }

    /// Replay the checkpoint/rollback run once with `seed` substituted
    /// for the plan's: bit-identical to [`PhaseSim::simulate`] with
    /// `FaultPlan { seed, ..plan }`, the same `sched` and `policy`.
    pub fn run_recovering(
        &mut self,
        policy: &CheckpointPolicy,
        seed: u64,
        sched: SchedulePolicy,
    ) -> FaultReport {
        self.prepare(sched);
        let prefix = self.healthy_prefix.as_deref().unwrap_or_default();
        let shape = Schedule::of(sched, prefix);
        let recovery = Some((policy, &self.phases[..], &mut self.folded));
        self.sim
            .replay(&self.cached, &self.plan, seed, shape, 1, recovery)
    }

    /// Replay one recovering run per seed under `sched` — the Monte
    /// Carlo batch API for the checkpoint/rollback path. Folded phases
    /// are compiled lazily on the first seed that needs them and reused
    /// by the rest.
    pub fn replay_recovering(
        &mut self,
        policy: &CheckpointPolicy,
        seeds: &[u64],
        sched: SchedulePolicy,
    ) -> Vec<FaultReport> {
        seeds
            .iter()
            .map(|&s| self.run_recovering(policy, s, sched))
            .collect()
    }
}

/// Fold one raw phase for the first `k` unique deaths and compile it:
/// the compiled form of the per-call driver's [`fold_target`] block,
/// returning the dropped (no-survivor) count.
fn compile_folded(
    mesh: &Mesh2D,
    plan: &CompiledFaultPlan,
    raw: &[PMsg],
    k: usize,
) -> (CachedPhase, usize) {
    let mut folded = Vec::with_capacity(raw.len());
    let mut dropped = 0usize;
    for m in raw {
        match (plan.fold_lookup(k, m.src), plan.fold_lookup(k, m.dst)) {
            (Some(src), Some(dst)) => folded.push(PMsg { src, dst, ..*m }),
            _ => dropped += 1,
        }
    }
    (CachedPhase::new(mesh, &folded), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::sweep::par_sweep_with_report;

    fn mesh(px: usize, py: usize) -> Mesh2D {
        Mesh2D::new(px, py, CostModel::paragon())
    }

    /// One phase through the faulty per-call driver.
    fn faulty(sim: &mut PhaseSim, msgs: &[PMsg], plan: &FaultPlan) -> FaultReport {
        sim.simulate(&[msgs.to_vec()], plan, SchedulePolicy::default(), None)
    }

    fn recovering(
        sim: &mut PhaseSim,
        phases: &[Vec<PMsg>],
        plan: &FaultPlan,
        policy: &CheckpointPolicy,
    ) -> FaultReport {
        sim.simulate(phases, plan, SchedulePolicy::default(), Some(policy))
    }

    fn mixed_phase(mesh: &Mesh2D, n: usize, seed: u64) -> Vec<PMsg> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                PMsg {
                    src: (h % mesh.nodes() as u64) as usize,
                    dst: ((h >> 17) % mesh.nodes() as u64) as usize,
                    bytes: 1 + (h >> 40) % 1000,
                }
            })
            .collect()
    }

    #[test]
    fn matches_oracle_across_reuses() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        for seed in 0..20 {
            let msgs = mixed_phase(&m, 3 * seed as usize, seed);
            assert_eq!(
                sim.simulate_phase(&msgs),
                m.simulate_phase(&msgs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_degenerate_phases() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        assert_eq!(sim.simulate_phase(&[]), 0);
        let local = [PMsg {
            src: 3,
            dst: 3,
            bytes: 999,
        }];
        assert_eq!(sim.simulate_phase(&local), 0);
        // A phase after an empty phase still schedules correctly.
        let msgs = mixed_phase(&m, 12, 7);
        assert_eq!(sim.simulate_phase(&msgs), m.simulate_phase(&msgs));
    }

    #[test]
    fn phases_sum_like_mesh() {
        let m = mesh(4, 2);
        let phases: Vec<Vec<PMsg>> = (0..5).map(|s| mixed_phase(&m, 6, s)).collect();
        let mut sim = PhaseSim::new(m.clone());
        assert_eq!(sim.simulate_phases(&phases), m.simulate_phases(&phases));
    }

    #[test]
    fn cached_phase_replays_identically() {
        let m = mesh(8, 4);
        let msgs = mixed_phase(&m, 40, 3);
        let cached = CachedPhase::new(&m, &msgs);
        let mut sim = PhaseSim::new(m.clone());
        assert_eq!(
            sim.run_cached_phases(std::slice::from_ref(&cached), ScheduleMode::Phased, 1),
            m.simulate_phase(&msgs)
        );
        // Scaled replay equals simulating the scaled message set.
        let scaled: Vec<PMsg> = msgs
            .iter()
            .map(|x| PMsg {
                bytes: x.bytes * 16,
                ..*x
            })
            .collect();
        assert_eq!(
            sim.run_cached_phases(std::slice::from_ref(&cached), ScheduleMode::Phased, 16),
            m.simulate_phase(&scaled)
        );
        assert_eq!(
            cached.len(),
            scaled.iter().filter(|x| x.src != x.dst).count()
        );
    }

    #[test]
    fn batch_matches_serial() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..9)
            .map(|s| mixed_phase(&m, 10 + s as usize, s))
            .collect();
        let serial: Vec<u64> = phases.iter().map(|p| m.simulate_phase(p)).collect();
        for threads in [4, 1] {
            let (got, _) = par_sweep_with_report(
                &phases,
                threads,
                || PhaseSim::new(m.clone()),
                |sim, phase| sim.simulate_phase(phase),
            );
            assert_eq!(got, serial);
        }
    }

    #[test]
    fn zero_fault_plan_matches_fast_path_bit_for_bit() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let plan = crate::FaultPlan::none();
        for seed in 0..10 {
            let msgs = mixed_phase(&m, 4 * seed as usize, seed);
            let rep = faulty(&mut sim, &msgs, &plan);
            assert_eq!(rep.makespan, m.simulate_phase(&msgs), "seed {seed}");
            assert_eq!(rep.delivered, rep.messages);
            assert_eq!(rep.lost, 0);
            assert_eq!(
                rep.retries + rep.duplicates + rep.reroutes + rep.deferrals,
                0
            );
        }
    }

    #[test]
    fn total_drop_with_retry_still_delivers_everything() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let plan = crate::FaultPlan::with_drop(7, 1.0);
        let msgs = mixed_phase(&m, 20, 3);
        let rep = faulty(&mut sim, &msgs, &plan);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.escalations as usize, rep.messages);
        assert!(rep.retries > 0);
        assert!(rep.makespan >= m.simulate_phase(&msgs));
    }

    #[test]
    fn total_drop_without_retry_loses_everything() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let plan = crate::FaultPlan {
            retry: crate::RetryPolicy::disabled(),
            ..crate::FaultPlan::with_drop(7, 1.0)
        };
        let msgs = mixed_phase(&m, 20, 3);
        let rep = faulty(&mut sim, &msgs, &plan);
        assert_eq!(rep.delivered, 0);
        assert_eq!(rep.lost, rep.messages);
        assert_eq!(rep.delivered_fraction(), 0.0);
        assert_eq!(rep.attempts as usize, rep.messages);
    }

    #[test]
    fn faulty_schedule_is_deterministic_per_seed() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let plan = crate::FaultPlan {
            dup_prob: 0.2,
            ..crate::FaultPlan::with_drop(99, 0.3)
        };
        let msgs = mixed_phase(&m, 30, 5);
        let a = faulty(&mut sim, &msgs, &plan);
        let b = faulty(&mut sim, &msgs, &plan);
        assert_eq!(a, b, "same plan must replay identically");
        let other = crate::FaultPlan {
            seed: 100,
            ..plan.clone()
        };
        let c = faulty(&mut sim, &msgs, &other);
        assert!(
            a != c || a.attempts == a.messages as u64,
            "different seeds should draw different fault sequences"
        );
    }

    #[test]
    fn dead_link_triggers_yx_reroute() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let msg = [PMsg {
            src: m.node_id(0, 0),
            dst: m.node_id(3, 2),
            bytes: 64,
        }];
        // Kill the first XY link (rightward out of (0,0)) forever-ish.
        let mut plan = crate::FaultPlan::none();
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(0, 0, true).index(),
            from: 0,
            until: u64::MAX / 2,
        });
        let rep = faulty(&mut sim, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.reroutes, 1);
        assert_eq!(rep.deferrals, 0);
        // Same hop count on the YX route: same cost as the healthy run.
        assert_eq!(rep.makespan, m.simulate_phase(&msg));
    }

    #[test]
    fn dead_link_on_both_routes_defers_to_window_end() {
        let m = mesh(4, 1); // 1-D mesh: no YX escape route.
        let mut sim = PhaseSim::new(m.clone());
        let msg = [PMsg {
            src: 0,
            dst: 3,
            bytes: 64,
        }];
        let mut plan = crate::FaultPlan::none();
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(1, 0, true).index(),
            from: 0,
            until: 5_000_000,
        });
        let rep = faulty(&mut sim, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert!(rep.deferrals > 0);
        assert_eq!(rep.makespan, 5_000_000 + m.simulate_phase(&msg));
    }

    #[test]
    fn dead_node_defers_the_send() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let msg = [PMsg {
            src: 0,
            dst: 5,
            bytes: 64,
        }];
        let mut plan = crate::FaultPlan::none();
        plan.node_outages.push(crate::NodeOutage {
            node: 0,
            from: 0,
            until: 1_000_000,
        });
        let rep = faulty(&mut sim, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert!(rep.deferrals > 0);
        assert_eq!(rep.makespan, 1_000_000 + m.simulate_phase(&msg));
    }

    #[test]
    fn certain_duplication_doubles_attempts_not_deliveries() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let plan = crate::FaultPlan {
            dup_prob: 1.0,
            ..crate::FaultPlan::none()
        };
        let msgs = mixed_phase(&m, 20, 11);
        let rep = faulty(&mut sim, &msgs, &plan);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.duplicates as usize, rep.messages);
        assert_eq!(rep.attempts as usize, 2 * rep.messages);
        assert!(rep.makespan >= m.simulate_phase(&msgs));
    }

    #[test]
    fn multi_phase_faulty_reports_sum_and_replay() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..4).map(|s| mixed_phase(&m, 10, s)).collect();
        let plan = crate::FaultPlan::with_drop(5, 0.4);
        let a = sim.simulate(&phases, &plan, SchedulePolicy::default(), None);
        let b = sim.simulate(&phases, &plan, SchedulePolicy::default(), None);
        assert_eq!(a, b);
        assert_eq!(a.delivered, a.messages, "retry must deliver everything");
        // Zero-fault multi-phase equals the unfaulted total.
        let rep = sim.simulate(
            &phases,
            &crate::FaultPlan::none(),
            SchedulePolicy::default(),
            None,
        );
        assert_eq!(rep.makespan, m.simulate_phases(&phases));
    }

    #[test]
    fn dead_endpoint_black_holes_without_recovery() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath { node: 5, t: 0 });
        let msgs = [
            PMsg {
                src: 0,
                dst: 5,
                bytes: 64,
            },
            PMsg {
                src: 2,
                dst: 3,
                bytes: 64,
            },
        ];
        let rep = faulty(&mut sim, &msgs, &plan);
        assert_eq!(rep.messages, 2);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.black_holes, 1);
    }

    #[test]
    fn zero_death_recovery_bit_identical() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..10).map(|s| mixed_phase(&m, 12, s)).collect();
        let policy = CheckpointPolicy::default();
        let rep = recovering(&mut sim, &phases, &crate::FaultPlan::none(), &policy);
        assert_eq!(rep.makespan, m.simulate_phases(&phases));
        assert_eq!(rep.recovery.rollbacks, 0);
        assert_eq!(rep.recovery.lost_work_ns, 0);
        assert!(rep.recovery.checkpoints > 0);
        assert!(rep.wall_clock_ns() > rep.makespan, "overhead is accounted");
        // Transport faults without deaths: same as the faulty run.
        let plan = crate::FaultPlan::with_drop(3, 0.2);
        let a = recovering(&mut sim, &phases, &plan, &policy);
        let b = sim.simulate(&phases, &plan, SchedulePolicy::default(), None);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn death_mid_run_is_recovered() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 2,
        });
        plan.detection_latency = 10_000;
        let rep = recovering(&mut sim, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.recovery.deaths, 1);
        assert_eq!(rep.recovery.rollbacks, 1);
        assert_eq!(rep.recovery.folded_nodes, 1);
        assert!(rep.recovery.lost_work_ns > 0);
        assert!(rep.recovery.replayed_phases > 0);
        // Exactly-once on the committed run, with no black holes: every
        // message was folded onto a survivor before the replay.
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.black_holes, 0);
        // Determinism: the identical plan replays bit-for-bit.
        let again = recovering(&mut sim, &phases, &plan, &CheckpointPolicy::default());
        assert_eq!(rep, again);
    }

    #[test]
    fn death_near_end_detected_by_final_sweep() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..6).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        // Death just before the end, detection latency far past it: only
        // the end-of-run sweep can catch this one.
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 9,
            t: healthy.saturating_sub(1),
        });
        plan.detection_latency = u64::MAX / 2;
        let rep = recovering(&mut sim, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.delivered, rep.messages);
    }

    #[test]
    fn tiny_ring_still_recovers_with_more_lost_work() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..16).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 2,
            t: healthy / 4,
        });
        // Detection long after the death: a deep ring can roll back to
        // just before the death; a 1-deep ring must fall back to its only
        // (more recent... or evicted-to-oldest) snapshot.
        plan.detection_latency = healthy / 2;
        let deep = CheckpointPolicy {
            interval: 1,
            ring: 64,
            cost_ns: 0,
        };
        let shallow = CheckpointPolicy {
            interval: 1,
            ring: 1,
            cost_ns: 0,
        };
        let a = recovering(&mut sim, &phases, &plan, &deep);
        let b = recovering(&mut sim, &phases, &plan, &shallow);
        assert!(a.recovery.all_recovered());
        assert!(b.recovery.all_recovered());
        // With ring=1 the only snapshot is the most recent boundary,
        // which is *after* the death — the replay restarts there anyway
        // (best effort) and both runs still deliver everything.
        assert_eq!(a.delivered, a.messages);
        assert_eq!(b.delivered, b.messages);
    }

    #[test]
    fn checkpoint_interval_trades_overhead_for_lost_work() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..24).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 6,
            t: healthy / 2,
        });
        let fine = CheckpointPolicy {
            interval: 1,
            ring: 64,
            cost_ns: 25_000,
        };
        let coarse = CheckpointPolicy {
            interval: 12,
            ring: 64,
            cost_ns: 25_000,
        };
        let a = recovering(&mut sim, &phases, &plan, &fine);
        let b = recovering(&mut sim, &phases, &plan, &coarse);
        assert!(a.recovery.checkpoints > b.recovery.checkpoints);
        assert!(a.recovery.checkpoint_overhead_ns > b.recovery.checkpoint_overhead_ns);
        assert!(
            a.recovery.lost_work_ns <= b.recovery.lost_work_ns,
            "finer checkpoints cannot lose more work: {} vs {}",
            a.recovery.lost_work_ns,
            b.recovery.lost_work_ns
        );
    }

    #[test]
    fn two_deaths_fold_onto_survivors() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 12, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 4,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 10,
            t: healthy / 2,
        });
        let rep = recovering(&mut sim, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.recovery.deaths, 2);
        assert_eq!(rep.recovery.folded_nodes, 2);
        assert!(rep.recovery.rollbacks >= 2);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.black_holes, 0);
    }

    #[test]
    fn duplicate_retransmit_reuses_scanned_route() {
        // dup_prob = 1: the duplicate goes out back to back on the same
        // route, so the makespan is exactly two transmissions. Pins the
        // fixed duplicate branch (no second route scan — the links were
        // just reserved to `end`, so the retransmission starts there).
        let m = mesh(4, 1);
        let mut sim = PhaseSim::new(m.clone());
        let msg = [PMsg {
            src: 0,
            dst: 3,
            bytes: 64,
        }];
        let plan = crate::FaultPlan {
            dup_prob: 1.0,
            ..crate::FaultPlan::none()
        };
        let rep = faulty(&mut sim, &msg, &plan);
        assert_eq!(rep.makespan, 2 * m.cost.p2p(3, 64));
        assert_eq!(rep.duplicates, 1);
        assert_eq!(rep.attempts, 2);
        // The compiled replay agrees bit for bit.
        let mut engine = FaultSim::new(&m, &[msg.to_vec()], &plan);
        assert_eq!(engine.run_faulty(plan.seed, SchedulePolicy::default()), rep);
    }

    #[test]
    fn compiled_faulty_replay_matches_oracle() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..5).map(|s| mixed_phase(&m, 25, s)).collect();
        // Outages on both routes of some messages, a node window, a
        // death, drops and duplicates: every transport branch is live.
        let mut plan = crate::FaultPlan {
            dup_prob: 0.1,
            ..crate::FaultPlan::with_drop(21, 0.3)
        };
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(2, 1, true).index(),
            from: 0,
            until: 300_000,
        });
        plan.link_outages.push(crate::LinkOutage {
            link: m.v_link(4, 0, false).index(),
            from: 50_000,
            until: 400_000,
        });
        plan.node_outages.push(crate::NodeOutage {
            node: 9,
            from: 0,
            until: 200_000,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 17,
            t: 100_000,
        });
        let mut engine = FaultSim::new(&m, &phases, &plan);
        for seed in [plan.seed, 0, 7, 123_456] {
            let seeded = crate::FaultPlan {
                seed,
                ..plan.clone()
            };
            assert_eq!(
                engine.run_faulty(seed, SchedulePolicy::default()),
                sim.simulate(&phases, &seeded, SchedulePolicy::default(), None),
                "seed {seed}"
            );
        }
        let seeds = [3u64, 3, 99];
        let batch = engine.replay_faulty(&seeds, SchedulePolicy::default());
        assert_eq!(batch[0], batch[1], "same seed replays identically");
        let per_phase = engine.run_faulty_per_phase(plan.seed);
        let mut summed = FaultReport::default();
        for rep in &per_phase {
            summed.absorb(rep);
        }
        assert_eq!(
            summed,
            engine.run_faulty(plan.seed, SchedulePolicy::default())
        );
    }

    #[test]
    fn compiled_recovering_replay_matches_oracle() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::with_drop(5, 0.15);
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 4,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 10,
            t: healthy / 2,
        });
        plan.detection_latency = 10_000;
        let policy = CheckpointPolicy {
            interval: 2,
            ring: 4,
            cost_ns: 25_000,
        };
        let mut engine = FaultSim::new(&m, &phases, &plan);
        for seed in [plan.seed, 0, 41] {
            let seeded = crate::FaultPlan {
                seed,
                ..plan.clone()
            };
            assert_eq!(
                engine.run_recovering(&policy, seed, SchedulePolicy::default()),
                recovering(&mut sim, &phases, &seeded, &policy),
                "seed {seed}"
            );
        }
        // The batch API reuses folded-phase compilations across seeds.
        let seeds = [9u64, 9, 2];
        let batch = engine.replay_recovering(&policy, &seeds, SchedulePolicy::default());
        assert_eq!(batch[0], batch[1]);
        assert!(batch.iter().all(|r| r.recovery.all_recovered()));
        // Swapping the plan recompiles: a death-free plan through the
        // same engine matches the unfaulted scheduler.
        engine.set_plan(&crate::FaultPlan::none());
        let zero =
            engine.run_recovering(&CheckpointPolicy::default(), 0, SchedulePolicy::default());
        assert_eq!(zero.makespan, healthy);
        assert_eq!(zero.recovery.rollbacks, 0);
    }

    #[test]
    fn epoch_reset_isolates_phases() {
        // A heavy phase must not leak reservations into the next one.
        let m = mesh(4, 1);
        let mut sim = PhaseSim::new(m.clone());
        let heavy = [PMsg {
            src: 0,
            dst: 3,
            bytes: 1 << 20,
        }];
        let light = [PMsg {
            src: 0,
            dst: 1,
            bytes: 1,
        }];
        sim.simulate_phase(&heavy);
        assert_eq!(sim.simulate_phase(&light), m.simulate_phase(&light));
    }
}
