//! The `sweep_faults` workload: fault studies over a bank of mapped
//! nests, run in-process on the shared work-stealing pool.

use crate::gen::{bank_nest, StudySpec, BANK_SIZE};
use crate::trace::{Span, Trace};
use rescomm::{build_plan_closed, map_nest_with, AnalysisCache, Mapping, MappingOptions};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_loopnest::LoopNest;
use rescomm_machine::sweep::par_sweep_with_report;
use rescomm_machine::{
    mttf_death_schedule, replication_seed, CheckpointPolicy, CostModel, FaultPlan, FaultReport,
    FaultSim, Mesh2D, PhaseSim, ScheduleMode, SchedulePolicy, SweepReport,
};
use std::time::{Duration, Instant};

/// Faulty and recovering replications per study (each).
pub const REPLICATIONS: u64 = 8;

/// Studies handed to the pool at once, per worker.
const BATCH_PER_WORKER: usize = 4;

/// A mapped nest of the bank.
pub struct BankEntry {
    /// The nest.
    pub nest: LoopNest,
    /// Its mapping.
    pub mapping: Mapping,
}

/// Map the seeded bank with a cold analysis cache, dropping the nests
/// whose closed plan has no phases (nothing to fold or replay).
pub fn build_bank(seed: u64) -> Vec<BankEntry> {
    let opts = MappingOptions::new(2);
    let mut cache = AnalysisCache::new();
    (0..BANK_SIZE)
        .filter_map(|j| {
            let nest = bank_nest(seed, j);
            let mapping = map_nest_with(&nest, &opts, &mut cache).expect("bank nests map");
            let keep = !build_plan_closed(&nest, &mapping).phases.is_empty();
            keep.then_some(BankEntry { nest, mapping })
        })
        .collect()
}

/// What one study produced.
#[derive(Debug, Clone, Default)]
pub struct StudyOut {
    /// Study index in the stream.
    pub index: u64,
    /// Wall time of the whole study, ns.
    pub wall_ns: u64,
    /// Phases of the closed plan.
    pub phases: usize,
    /// Affine phases of the closed plan.
    pub affine_phases: usize,
    /// Explicitly enumerated virtual messages of the closed plan.
    pub messages: usize,
    /// Physical messages after the fold.
    pub physical_msgs: u64,
    /// Fault-free makespan under the study's schedule, ns.
    pub clean_makespan: u64,
    /// Report of the first faulty replication.
    pub faulty_first: FaultReport,
    /// Report of the first recovering replication.
    pub recovering_first: FaultReport,
    /// Every replication's report summed.
    pub totals: FaultReport,
    /// Spans of the study (empty when untraced).
    pub spans: Vec<Span>,
}

fn mesh_of(spec: &StudySpec) -> Mesh2D {
    Mesh2D::new(spec.mesh.0, spec.mesh.1, CostModel::paragon())
}

fn mode_of(spec: &StudySpec) -> ScheduleMode {
    if spec.overlapped {
        ScheduleMode::overlapped()
    } else {
        ScheduleMode::Phased
    }
}

fn entry_of<'a>(bank: &'a [BankEntry], spec: &StudySpec) -> &'a BankEntry {
    &bank[(spec.nest_draw % bank.len() as u64) as usize]
}

/// Transport faults only: drops and duplicates with retries.
fn faulty_plan(spec: &StudySpec) -> FaultPlan {
    FaultPlan {
        dup_prob: 0.01,
        ..FaultPlan::with_drop(spec.fault_seed, spec.drop_prob)
    }
}

/// Transport faults plus permanent node deaths spaced at half the clean
/// makespan, survived by checkpoint and rollback.
fn recovering_plan(spec: &StudySpec, mesh: &Mesh2D, clean: u64) -> FaultPlan {
    FaultPlan {
        node_deaths: mttf_death_schedule(mesh.nodes(), clean / 2, clean * 2, spec.fault_seed),
        detection_latency: clean / 20,
        ..faulty_plan(spec)
    }
}

fn seeds(spec: &StudySpec) -> Vec<u64> {
    (0..REPLICATIONS)
        .map(|r| replication_seed(spec.fault_seed, r))
        .collect()
}

const DIST: Dist2D = Dist2D {
    rows: Dist1D::Block,
    cols: Dist1D::Block,
};

/// Run one study: closed plan, fold, clean simulation, fault-engine
/// compile, then the faulty and the recovering replications.
pub fn run_study(bank: &[BankEntry], spec: &StudySpec, trace_on: bool, epoch: Instant) -> StudyOut {
    let e = entry_of(bank, spec);
    let mut t = Trace::new(trace_on, epoch);
    let t0 = Instant::now();
    let root = t.begin_op(spec.index);
    let plan = t.time("plan.build", || build_plan_closed(&e.nest, &e.mapping));
    let mesh = mesh_of(spec);
    let vshape = (spec.vgrid, spec.vgrid);
    let phases = t.time("distribution.fold", || {
        plan.phases_on_mesh(&mesh, DIST, vshape, spec.bytes)
    });
    let mode = mode_of(spec);
    let clean = t.time("machine.sim", || {
        PhaseSim::new(mesh.clone()).simulate_phases_mode(&phases, mode)
    });
    let sched = SchedulePolicy::Fixed(mode);
    let seeds = seeds(spec);
    let fplan = faulty_plan(spec);
    let mut engine = t.time("machine.compile", || FaultSim::new(&mesh, &phases, &fplan));
    let faulty = t.time("machine.fault_replay", || {
        engine.replay_faulty(&seeds, sched)
    });
    let rplan = recovering_plan(spec, &mesh, clean);
    t.time("machine.compile", || engine.set_plan(&rplan));
    let recovering = t.time("machine.recovery_replay", || {
        engine.replay_recovering(&CheckpointPolicy::default(), &seeds, sched)
    });
    t.end(root);
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut totals = FaultReport::default();
    for r in faulty.iter().chain(&recovering) {
        totals.absorb(r);
    }
    StudyOut {
        index: spec.index,
        wall_ns,
        phases: plan.phases.len(),
        affine_phases: plan.affine_phase_count(),
        messages: plan.message_count(),
        physical_msgs: phases.iter().map(|p| p.len() as u64).sum(),
        clean_makespan: clean,
        faulty_first: faulty[0],
        recovering_first: recovering[0],
        totals,
        spans: t.spans,
    }
}

/// Pool accounting summed over every batch of a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTotals {
    /// Most workers any batch used.
    pub workers_used: usize,
    /// Tasks run.
    pub tasks: u64,
    /// Successful steals.
    pub steals: u64,
}

impl PoolTotals {
    /// Fold one batch's report in.
    pub fn absorb(&mut self, r: &SweepReport) {
        self.workers_used = self.workers_used.max(r.workers);
        self.tasks += r.tasks as u64;
        self.steals += r.steals;
    }
}

/// The specs of the batch starting at study `first`.
pub fn batch_specs(seed: u64, first: u64, workers: usize) -> Vec<StudySpec> {
    (first..first + (workers * BATCH_PER_WORKER) as u64)
        .map(|i| crate::gen::study(seed, i))
        .collect()
}

/// Run one batch of studies on `workers` pool workers.
pub fn run_batch(
    bank: &[BankEntry],
    specs: &[StudySpec],
    workers: usize,
    trace_on: bool,
    epoch: Instant,
) -> (Vec<StudyOut>, SweepReport) {
    par_sweep_with_report(
        specs,
        workers,
        || (),
        |(), s| run_study(bank, s, trace_on, epoch),
    )
}

/// Run studies `first, first+1, …` untraced, batch by batch, until
/// `duration` has passed.
pub fn run_window(
    bank: &[BankEntry],
    seed: u64,
    first: u64,
    workers: usize,
    duration: Duration,
) -> Vec<StudyOut> {
    let stop = Instant::now() + duration;
    let epoch = Instant::now();
    let mut outs = Vec::new();
    let mut next = first;
    while Instant::now() < stop {
        let specs = batch_specs(seed, next, workers);
        next += specs.len() as u64;
        outs.extend(run_batch(bank, &specs, workers, false, epoch).0);
    }
    outs
}

/// Check one study against the per-call simulators: the compiled replay
/// must equal `simulate_on_mesh_faulty` / `simulate_on_mesh_recovering`
/// for the first replication seed, a zero-fault replay must equal the
/// clean makespan, and a phased clean makespan must equal the sum of
/// `Mesh2D::simulate_phase` over the folded phases (the overlapped one
/// may not exceed it).
pub fn check_study(bank: &[BankEntry], spec: &StudySpec, out: &StudyOut) -> Result<(), String> {
    let e = entry_of(bank, spec);
    let plan = build_plan_closed(&e.nest, &e.mapping);
    if plan.phases.is_empty() {
        return Err(format!("study {}: plan has no phases", spec.index));
    }
    let mesh = mesh_of(spec);
    let vshape = (spec.vgrid, spec.vgrid);
    let phases = plan.phases_on_mesh(&mesh, DIST, vshape, spec.bytes);
    let mode = mode_of(spec);
    let sched = SchedulePolicy::Fixed(mode);
    let oracle = mesh.simulate_phases(&phases);
    let clean_ok = match mode {
        ScheduleMode::Phased => out.clean_makespan == oracle,
        ScheduleMode::Overlapped(_) => out.clean_makespan <= oracle,
    };
    if !clean_ok {
        return Err(format!(
            "study {}: clean makespan {} vs Mesh2D::simulate_phase sum {oracle} ({mode:?})",
            spec.index, out.clean_makespan
        ));
    }
    let seed0 = seeds(spec)[0];
    let zero = FaultSim::new(&mesh, &phases, &FaultPlan::none()).run_faulty(seed0, sched);
    if zero.makespan != out.clean_makespan {
        return Err(format!(
            "study {}: zero-fault replay {} != clean {}",
            spec.index, zero.makespan, out.clean_makespan
        ));
    }
    let fplan = FaultPlan {
        seed: seed0,
        ..faulty_plan(spec)
    };
    let per_call = plan.simulate_on_mesh_faulty(&mesh, DIST, vshape, spec.bytes, &fplan, sched);
    if per_call != out.faulty_first {
        return Err(format!(
            "study {}: compiled faulty replay differs from simulate_on_mesh_faulty",
            spec.index
        ));
    }
    let rplan = FaultPlan {
        seed: seed0,
        ..recovering_plan(spec, &mesh, out.clean_makespan)
    };
    let per_call = plan.simulate_on_mesh_recovering(
        &mesh,
        DIST,
        vshape,
        spec.bytes,
        &rplan,
        &CheckpointPolicy::default(),
        sched,
    );
    if per_call != out.recovering_first {
        return Err(format!(
            "study {}: compiled recovering replay differs from simulate_on_mesh_recovering",
            spec.index
        ));
    }
    Ok(())
}
