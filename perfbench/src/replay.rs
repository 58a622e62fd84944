//! The served path replayed in-process, one call per layer.
//!
//! Mirrors what `rescomm-serve` does for one `map` request — parse the
//! request JSON, look the key up in an LRU plan cache, and on a miss
//! parse the nest, map it with a warm [`AnalysisCache`], build the plan,
//! fold it onto the mesh, simulate it and render the result and plan
//! JSON — with every step a separate call, so a [`Trace`] can time each
//! layer. The access-graph and alignment stages are additionally called
//! on their own on the same nest: inside the server they run within
//! `map_nest`, which records no spans.

use crate::gen::MapRequest;
use crate::trace::Trace;
use rescomm::snapshot::plan_to_json;
use rescomm::{build_plan, map_nest_with, AnalysisCache, CommOutcome, MappingOptions};
use rescomm_accessgraph::{
    augment, component_structure, maximum_branching, merge_cross_components, AccessGraph,
};
use rescomm_alignment::{compute_alignment, residual_communications};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{parse, JsonValue};
use rescomm_loopnest::parser::parse_nest;
use rescomm_machine::{CostModel, Mesh2D, PhaseSim, ScheduleMode};
use std::collections::{BTreeMap, HashMap};

/// Named counts gathered beside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Add `v` to counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    /// Value of counter `k` (0 when never added to).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// The server's plan-cache policy: least-recently-used eviction past a cap.
pub struct Lru {
    cap: usize,
    clock: u64,
    stamp: HashMap<String, u64>,
    by_age: BTreeMap<u64, String>,
}

impl Lru {
    /// An empty cache holding at most `cap` keys.
    pub fn new(cap: usize) -> Lru {
        Lru {
            cap,
            clock: 0,
            stamp: HashMap::new(),
            by_age: BTreeMap::new(),
        }
    }

    /// Refresh `key` if present; returns whether it was.
    pub fn touch(&mut self, key: &str) -> bool {
        self.clock += 1;
        match self.stamp.get_mut(key) {
            Some(s) => {
                let k = self.by_age.remove(s).expect("stamp indexed");
                *s = self.clock;
                self.by_age.insert(self.clock, k);
                true
            }
            None => false,
        }
    }

    /// Insert `key`, evicting the stalest keys past the cap.
    pub fn insert(&mut self, key: String) {
        self.clock += 1;
        self.stamp.insert(key.clone(), self.clock);
        self.by_age.insert(self.clock, key);
        while self.stamp.len() > self.cap {
            let (_, victim) = self.by_age.pop_first().expect("over cap is non-empty");
            self.stamp.remove(&victim);
        }
    }
}

/// Span names of the steps the server itself runs for a fresh request
/// (the extra access-graph and alignment calls excluded).
pub const SERVED_STEPS: [&str; 7] = [
    "loopnest.parse",
    "pipeline.map",
    "plan.build",
    "distribution.fold",
    "machine.sim",
    "json.result_render",
    "json.plan_render",
];

/// Plan-cache capacity of `rescomm-serve` with default flags.
pub const SERVER_CACHE_CAP: usize = 1024;

/// Replay state: the warm analysis cache, the plan-cache model, the
/// spans and the counts.
pub struct ServeReplay {
    cache: AnalysisCache,
    lru: Lru,
    opts: MappingOptions,
    /// Spans of every replayed op.
    pub trace: Trace,
    /// Counts gathered by the replay.
    pub counters: Counters,
}

impl ServeReplay {
    /// A cold replay recording into `trace`.
    pub fn new(trace: Trace) -> ServeReplay {
        ServeReplay {
            cache: AnalysisCache::new(),
            lru: Lru::new(SERVER_CACHE_CAP),
            opts: MappingOptions::new(2),
            trace,
            counters: Counters::default(),
        }
    }

    /// Entries memoized by the analysis cache so far.
    pub fn analysis_cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Serve request `req` (id `id`) in-process. Returns whether it was
    /// a plan-cache hit.
    pub fn op(&mut self, id: u64, req: &MapRequest) -> bool {
        let line = req.line(id);
        let t = &mut self.trace;
        let c = &mut self.counters;
        let root = t.begin_op(id);
        let parsed = t.time("json.parse", || parse(&line));
        let parsed = parsed.expect("generated request lines are valid JSON");
        let src = parsed
            .get("nest")
            .and_then(JsonValue::as_str)
            .expect("map request carries a nest");
        let key = req.key();
        let lru = &mut self.lru;
        if t.time("serve.cache", || lru.touch(&key)) {
            t.end(root);
            return true;
        }

        let nest = t.time("loopnest.parse", || parse_nest(src));
        let nest = nest.expect("generated nests parse");
        c.add("loopnest.parse_bytes", src.len() as f64);

        let m = self.opts.m;
        let graph = t.time("accessgraph.build", || {
            AccessGraph::build_weighted(&nest, m, true)
        });
        let (branching, mut comps) = t.time("accessgraph.branching", || {
            let b = maximum_branching(&graph);
            let comps = component_structure(&graph, &b, &nest);
            (b, comps)
        });
        let aug = t.time("accessgraph.augment", || {
            let mut aug = augment(&graph, &branching.edges, &comps, m);
            merge_cross_components(&graph, &mut comps, &mut aug, m);
            aug
        });
        let residuals = t.time("alignment", || {
            let al = compute_alignment(&nest, &graph, &comps, &aug);
            residual_communications(&nest, &al).len()
        });
        c.add("accessgraph.edges", graph.edges.len() as f64);
        c.add("alignment.residuals", residuals as f64);

        let (opts, cache) = (&self.opts, &mut self.cache);
        let mapping = t.time("pipeline.map", || map_nest_with(&nest, opts, cache));
        let mapping = mapping.expect("generated nests map");
        for o in &mapping.outcomes {
            match o {
                CommOutcome::General => c.add("pipeline.outcome_general", 1.0),
                CommOutcome::Decomposed { .. } | CommOutcome::DecomposedGeneral { .. } => {
                    c.add("pipeline.outcome_decomposed", 1.0)
                }
                _ => {}
            }
        }
        c.add("pipeline.incidents", mapping.incidents.len() as f64);

        let plan = t.time("plan.build", || build_plan(&nest, &mapping));
        c.add("plan.messages", plan.message_count() as f64);
        c.add("plan.phases", plan.phases.len() as f64);
        c.add("plan.affine_phases", plan.affine_phase_count() as f64);

        let mesh = Mesh2D::new(req.mesh.0, req.mesh.1, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Block);
        let phases = t.time("distribution.fold", || {
            plan.phases_on_mesh(&mesh, dist, req.mesh, req.bytes)
        });
        let msgs: usize = phases.iter().map(Vec::len).sum();
        c.add("distribution.physical_msgs", msgs as f64);

        let mode = ScheduleMode::parse(req.mode).expect("generated modes are valid");
        let makespan = t.time("machine.sim", || {
            PhaseSim::new(mesh.clone()).simulate_phases_mode(&phases, mode)
        });
        c.add("machine.sim_msgs", msgs as f64);

        let result = t.time("json.result_render", || {
            let r = mapping.report(&nest);
            JsonValue::Object(
                [
                    ("nest", JsonValue::Str(r.nest.clone())),
                    ("local", JsonValue::Int(r.n_local as i64)),
                    ("translation", JsonValue::Int(r.n_translation as i64)),
                    ("decomposed", JsonValue::Int(r.n_decomposed as i64)),
                    ("general", JsonValue::Int(r.n_general as i64)),
                    ("phases", JsonValue::Int(plan.phases.len() as i64)),
                    ("makespan", JsonValue::Int(makespan as i64)),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            )
            .render()
        });
        let plan_json = t.time("json.plan_render", || plan_to_json(&plan).render());
        c.add("json.plan_bytes", plan_json.len() as f64);
        std::hint::black_box((result, plan_json));

        t.time("serve.cache", || lru.insert(key));
        t.end(root);
        false
    }
}
