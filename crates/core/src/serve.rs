//! # `rescomm::serve` — the crash-safe mapping service
//!
//! A std-only, long-lived JSON-lines-over-TCP server around the mapping
//! pipeline: clients send affine nest sources plus machine/schedule
//! specs, the server maps them ([`map_nest_cancellable`] /
//! [`crate::map_nest_batch`]) with warm [`AnalysisCache`]s, builds the
//! communication plan, simulates it, and answers with the mapping report
//! counts and the simulated makespan. See `DESIGN.md` §15 for the full
//! wire protocol and state machine; the short version:
//!
//! * **One request per line, one response per line.** Requests are
//!   strict JSON objects (`rescomm_json::parse` — duplicate keys and
//!   trailing garbage are protocol errors with line/col positions).
//!   Ops: `map`, `map_batch`, `ping`, `stats`, `snapshot`, `shutdown`.
//! * **Responses** are `{"id": …, "ok": true, "served": s, "result": …}`
//!   with `served` ∈ `fresh | cache | snapshot`, or `{"id": …, "ok":
//!   false, "error": {"code": …, "exit_code": …, "detail": …}}` — the
//!   server never answers a malformed or hostile request with anything
//!   but a structured error, and never crashes on one (every compute is
//!   wrapped in [`crate::guarded`]).
//! * **Admission control.** At most `workers` map computations run
//!   concurrently; up to `max_queue` more wait on a condvar. Beyond
//!   that the request is rejected with a structured `overload` error
//!   (`retry_after_ms` included), 429-style. Plan-cache hits bypass
//!   admission entirely — under overload the server degrades to serving
//!   cached results before it starts rejecting.
//! * **Bounded plan cache.** The cache holds at most `plan_cache_cap`
//!   entries; past the cap the least-recently-used entry is evicted
//!   (hits refresh recency). Hit/miss/eviction counters surface in the
//!   `stats` op.
//! * **Deadlines.** A request's `deadline_ms` arms a [`CancelToken`];
//!   the pipeline checks it between passes and the first checkpoint
//!   past the deadline aborts the work with a `deadline` error.
//!   Requests that exhaust their deadline while *queued* are abandoned
//!   without ever computing.
//! * **Snapshots.** The plan cache checkpoints to disk (atomic
//!   write-then-rename) every `snapshot_every` completed computations,
//!   on an interval, on `shutdown` (drain first), and on demand. A
//!   restarted server — even after `kill -9` — reloads the snapshot,
//!   re-simulates every restored [`CommPlan`] (fanned out over the
//!   shared work-stealing pool) to verify bit-identical makespans, and
//!   serves the same bytes with `"served": "snapshot"`.

use crate::error::{CancelToken, RescommError};
use crate::pipeline::{map_nest_batch, map_nest_cancellable, AnalysisCache, MappingOptions};
use crate::plan::CommPlan;
use crate::snapshot::{plan_from_json, plan_to_json};
use crate::{build_plan, guarded};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{parse, JsonValue};
use rescomm_loopnest::parser::parse_nest;
use rescomm_loopnest::LoopNest;
use rescomm_machine::snapshot::{mesh_from_json, mesh_to_json};
use rescomm_machine::sweep::par_sweep_with_report;
use rescomm_machine::{CostModel, Mesh2D, ScheduleMode};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Magic of the snapshot file format.
const SNAPSHOT_FORMAT: &str = "rescomm-snapshot";
/// Version of the snapshot file format; mismatches are rejected on load.
const SNAPSHOT_VERSION: i64 = 1;

/// Server tuning knobs. [`ServerConfig::default`] is sized for tests and
/// local use; the bin exposes every field as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Map computations allowed to run concurrently.
    pub workers: usize,
    /// Requests allowed to wait for a worker before overload rejection.
    pub max_queue: usize,
    /// Plan-cache snapshot file; `None` disables durability.
    pub snapshot_path: Option<PathBuf>,
    /// Flush the snapshot after this many completed computations
    /// (0 = only on interval/shutdown/demand).
    pub snapshot_every: u64,
    /// Flush the snapshot at this interval when dirty.
    pub snapshot_interval: Option<Duration>,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Hard cap on one request line; longer lines get a structured
    /// rejection and the connection is closed.
    pub max_line_bytes: usize,
    /// Plan-cache entry cap; the least-recently-used entry is evicted
    /// past it (0 = unbounded). Evictions are counted in `stats`.
    pub plan_cache_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_queue: 16,
            snapshot_path: None,
            snapshot_every: 32,
            snapshot_interval: Some(Duration::from_secs(5)),
            default_deadline: None,
            max_line_bytes: 1 << 20,
            plan_cache_cap: 1024,
        }
    }
}

/// One served result, ready to replay byte-identically.
#[derive(Debug, Clone)]
struct PlanEntry {
    /// The rendered `result` object — the bytes every later response
    /// splices verbatim.
    result_json: String,
    /// Serialized [`CommPlan`] (the durable artifact).
    plan_json: String,
    /// Serialized mesh the plan was simulated on.
    mesh_json: String,
    vshape: (usize, usize),
    bytes: u64,
    mode: ScheduleMode,
    makespan: u64,
    /// Entry came from a snapshot restore, not this process's compute.
    from_snapshot: bool,
}

/// The bounded LRU plan cache. Recency is a monotonically increasing
/// clock stamp per entry; `by_age` indexes stamp → key so eviction pops
/// the stalest entry in O(log n) instead of scanning the whole map.
struct PlanCache {
    cap: usize,
    clock: u64,
    map: HashMap<String, (u64, PlanEntry)>,
    by_age: BTreeMap<u64, String>,
}

impl PlanCache {
    fn new(cap: usize) -> PlanCache {
        PlanCache {
            cap,
            clock: 0,
            map: HashMap::new(),
            by_age: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up an entry and refresh its recency.
    fn touch(&mut self, key: &str) -> Option<&PlanEntry> {
        self.clock += 1;
        let clock = self.clock;
        let (stamp, entry) = self.map.get_mut(key)?;
        self.by_age.remove(stamp);
        self.by_age.insert(clock, key.to_string());
        *stamp = clock;
        Some(entry)
    }

    /// Insert (or replace) an entry, evicting least-recently-used
    /// entries past the cap. Returns how many were evicted.
    fn insert(&mut self, key: String, entry: PlanEntry) -> u64 {
        self.clock += 1;
        if let Some((old_stamp, _)) = self.map.insert(key.clone(), (self.clock, entry)) {
            self.by_age.remove(&old_stamp);
        }
        self.by_age.insert(self.clock, key);
        let mut evicted = 0;
        while self.cap > 0 && self.map.len() > self.cap {
            // Smallest stamp = least recently used.
            let (_, victim) = self
                .by_age
                .pop_first()
                .expect("cache over cap is non-empty");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

#[derive(Default)]
struct AdmState {
    active: usize,
    waiting: usize,
}

/// Monotonic counters surfaced by the `stats` op.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    snapshot_hits: AtomicU64,
    rejected_overload: AtomicU64,
    deadline_cancelled: AtomicU64,
    protocol_errors: AtomicU64,
    pipeline_errors: AtomicU64,
    panics_absorbed: AtomicU64,
    restored_entries: AtomicU64,
    snapshot_flushes: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    /// Pool of warm analysis caches, one checked out per computation.
    caches: Mutex<Vec<AnalysisCache>>,
    plans: Mutex<PlanCache>,
    adm: Mutex<AdmState>,
    adm_cv: Condvar,
    shutdown: AtomicBool,
    /// Completed computations since the last flush.
    dirty: AtomicU64,
    stats: Stats,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a lock is already absorbed upstream; the
    // data is still consistent (every critical section is a plain
    // insert/lookup), so poisoning must not take the server down.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `u64` as JSON without squeezing through f64 (see the snapshot rules).
fn ju(x: u64) -> JsonValue {
    if x <= i64::MAX as u64 {
        JsonValue::Int(x as i64)
    } else {
        JsonValue::Str(x.to_string())
    }
}

fn jobj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Wire code + exit code for a pipeline error.
fn error_code(e: &RescommError) -> &'static str {
    match e {
        RescommError::Parse(_) => "parse",
        RescommError::Lin(_) => "lin",
        RescommError::Analysis { .. } => "analysis",
        RescommError::Exec { .. } => "exec",
        RescommError::Cancelled { .. } => "deadline",
    }
}

fn err_response(id: &JsonValue, code: &str, exit_code: u8, detail: &str) -> String {
    let mut error = vec![
        ("code", JsonValue::Str(code.to_string())),
        ("exit_code", JsonValue::Int(i64::from(exit_code))),
        ("detail", JsonValue::Str(detail.to_string())),
    ];
    if code == "overload" {
        error.push(("retry_after_ms", JsonValue::Int(50)));
    }
    jobj(vec![
        ("id", id.clone()),
        ("ok", JsonValue::Bool(false)),
        ("error", jobj(error)),
    ])
    .render()
}

fn ok_response(id: &JsonValue, served: &str, result_json: &str) -> String {
    // `result_json` is spliced verbatim so cache/snapshot replays are
    // byte-identical to the fresh computation that produced them.
    format!(
        "{{\"id\": {}, \"ok\": true, \"served\": \"{served}\", \"result\": {result_json}}}",
        id.render()
    )
}

/// Everything a `map` request pins down, in canonical form.
struct MapParams {
    src: String,
    mesh: Mesh2D,
    cost_label: String,
    vshape: (usize, usize),
    bytes: u64,
    mode: ScheduleMode,
}

impl MapParams {
    /// Canonical plan-cache key: the exact inputs, rendered as JSON (so
    /// distinct nests/specs can never collide).
    fn key(&self) -> String {
        JsonValue::Array(vec![
            JsonValue::Str(self.src.clone()),
            ju(self.mesh.px as u64),
            ju(self.mesh.py as u64),
            JsonValue::Str(self.cost_label.clone()),
            ju(self.vshape.0 as u64),
            ju(self.vshape.1 as u64),
            ju(self.bytes),
            JsonValue::Str(self.mode.label().to_string()),
        ])
        .render()
    }
}

fn get_pair(v: &JsonValue, key: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
    match v.get(key) {
        None => Ok(default),
        Some(JsonValue::Array(a)) if a.len() == 2 => {
            let x = a[0]
                .as_u64()
                .ok_or_else(|| format!("{key}[0] must be a positive integer"))?;
            let y = a[1]
                .as_u64()
                .ok_or_else(|| format!("{key}[1] must be a positive integer"))?;
            if x == 0 || y == 0 || x > 1 << 20 || y > 1 << 20 {
                return Err(format!("{key} out of range"));
            }
            Ok((x as usize, y as usize))
        }
        Some(_) => Err(format!("{key} must be a [w, h] pair")),
    }
}

fn parse_map_params(req: &JsonValue) -> Result<MapParams, String> {
    let src = req
        .get("nest")
        .and_then(JsonValue::as_str)
        .ok_or("map needs a \"nest\" string (the nest source)")?
        .to_string();
    if let Some(m) = req.get("m") {
        if m.as_i64() != Some(2) {
            return Err("only m=2 (2-D virtual grids) is served".to_string());
        }
    }
    let (px, py) = get_pair(req, "mesh", (8, 4))?;
    let cost_label = match req.get("cost").and_then(JsonValue::as_str) {
        None | Some("paragon") => "paragon",
        Some("cm5") => "cm5",
        Some(other) => return Err(format!("unknown cost model {other:?} (paragon|cm5)")),
    }
    .to_string();
    let cost = if cost_label == "cm5" {
        CostModel::cm5()
    } else {
        CostModel::paragon()
    };
    let vshape = get_pair(req, "vshape", (px, py))?;
    let bytes = match req.get("bytes") {
        None => 1024,
        Some(b) => b.as_u64().ok_or("bytes must be a positive integer")?,
    };
    let mode = match req.get("mode").and_then(JsonValue::as_str) {
        None => ScheduleMode::Phased,
        Some(s) => ScheduleMode::parse(s)
            .ok_or_else(|| format!("unknown mode {s:?} (phased|overlapped|overlapped-longest)"))?,
    };
    Ok(MapParams {
        src,
        mesh: Mesh2D::new(px, py, cost),
        cost_label,
        vshape,
        bytes,
        mode,
    })
}

/// Build the stable `result` object for one mapped nest.
fn render_result(
    nest: &LoopNest,
    mapping: &crate::Mapping,
    plan: &CommPlan,
    p: &MapParams,
    makespan: u64,
) -> String {
    let r = mapping.report(nest);
    jobj(vec![
        ("nest", JsonValue::Str(r.nest.clone())),
        ("accesses", ju(nest.accesses.len() as u64)),
        ("local", ju(r.n_local as u64)),
        ("translation", ju(r.n_translation as u64)),
        ("broadcast", ju(r.n_broadcast as u64)),
        ("scatter", ju(r.n_scatter as u64)),
        ("gather", ju(r.n_gather as u64)),
        ("reduction", ju(r.n_reduction as u64)),
        ("decomposed", ju(r.n_decomposed as u64)),
        ("factors", ju(r.n_factors as u64)),
        ("general", ju(r.n_general as u64)),
        ("incidents", ju(r.n_incidents as u64)),
        ("phases", ju(plan.phases.len() as u64)),
        ("mode", JsonValue::Str(p.mode.label().to_string())),
        ("makespan", ju(makespan)),
    ])
    .render()
}

/// The admission decision for one computation slot.
enum Admit {
    Granted,
    Overload,
    DeadlineExpired,
}

fn admit(shared: &Shared, deadline: Option<Instant>) -> Admit {
    let mut st = lock(&shared.adm);
    if shared.shutdown.load(Ordering::Acquire) {
        return Admit::Overload;
    }
    if st.active < shared.cfg.workers {
        st.active += 1;
        return Admit::Granted;
    }
    if st.waiting >= shared.cfg.max_queue {
        return Admit::Overload;
    }
    st.waiting += 1;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            st.waiting -= 1;
            return Admit::Overload;
        }
        if st.active < shared.cfg.workers {
            st.waiting -= 1;
            st.active += 1;
            return Admit::Granted;
        }
        // Queued past the deadline: abandon without computing — a
        // doomed request must not occupy a worker.
        let wait_for = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    st.waiting -= 1;
                    return Admit::DeadlineExpired;
                }
                (d - now).min(Duration::from_millis(50))
            }
            None => Duration::from_millis(50),
        };
        let (guard, _) = shared
            .adm_cv
            .wait_timeout(st, wait_for)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

fn release(shared: &Shared) {
    let mut st = lock(&shared.adm);
    st.active = st.active.saturating_sub(1);
    drop(st);
    shared.adm_cv.notify_all();
}

fn checkout_cache(shared: &Shared) -> AnalysisCache {
    lock(&shared.caches).pop().unwrap_or_default()
}

fn checkin_cache(shared: &Shared, cache: AnalysisCache) {
    let mut pool = lock(&shared.caches);
    if pool.len() < shared.cfg.workers.max(1) {
        pool.push(cache);
    }
}

/// Parse + map + plan + simulate one nest under a token. Returns the
/// entry to cache. Runs inside a `guarded` wrapper upstream.
fn compute_entry(
    shared: &Shared,
    p: &MapParams,
    cancel: &CancelToken,
) -> Result<PlanEntry, RescommError> {
    let nest = parse_nest(&p.src)?;
    let mut cache = checkout_cache(shared);
    let mapped = map_nest_cancellable(&nest, &MappingOptions::new(2), &mut cache, cancel);
    checkin_cache(shared, cache);
    let mapping = mapped?;
    cancel.check("build_plan")?;
    let plan = build_plan(&nest, &mapping);
    cancel.check("simulate")?;
    let dist = Dist2D::uniform(Dist1D::Block);
    let makespan = plan.simulate_on_mesh(&p.mesh, dist, p.vshape, p.bytes, p.mode);
    Ok(PlanEntry {
        result_json: render_result(&nest, &mapping, &plan, p, makespan),
        plan_json: plan_to_json(&plan).render(),
        mesh_json: mesh_to_json(&p.mesh).render(),
        vshape: p.vshape,
        bytes: p.bytes,
        mode: p.mode,
        makespan,
        from_snapshot: false,
    })
}

fn handle_map(shared: &Shared, id: &JsonValue, req: &JsonValue) -> String {
    let p = match parse_map_params(req) {
        Ok(p) => p,
        Err(detail) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return err_response(id, "protocol", 1, &detail);
        }
    };
    let key = p.key();

    // Cached path first: hits are served even under full overload — the
    // degradation ladder is fresh → cached → rejected. `touch` also
    // refreshes recency so hot plans survive LRU eviction.
    if let Some(entry) = lock(&shared.plans).touch(&key) {
        let (served, ctr) = if entry.from_snapshot {
            ("snapshot", &shared.stats.snapshot_hits)
        } else {
            ("cache", &shared.stats.cache_hits)
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        return ok_response(id, served, &entry.result_json);
    }
    shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

    let deadline_ms = req.get("deadline_ms").and_then(JsonValue::as_u64);
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline)
        .and_then(|d| Instant::now().checked_add(d));

    match admit(shared, deadline) {
        Admit::Overload => {
            shared
                .stats
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            return err_response(
                id,
                "overload",
                1,
                "admission queue full (or draining); retry later",
            );
        }
        Admit::DeadlineExpired => {
            shared
                .stats
                .deadline_cancelled
                .fetch_add(1, Ordering::Relaxed);
            return err_response(
                id,
                "deadline",
                6,
                "deadline expired while queued for admission",
            );
        }
        Admit::Granted => {}
    }

    let cancel = match deadline {
        Some(d) => CancelToken::with_deadline(d.saturating_duration_since(Instant::now())),
        None => CancelToken::none(),
    };
    // `guarded` so an internal panic becomes a structured `internal`
    // error — the worker slot is released either way.
    let outcome = guarded("serve_map", || compute_entry(shared, &p, &cancel));
    release(shared);

    match outcome {
        Ok(Ok(entry)) => {
            let response = ok_response(id, "fresh", &entry.result_json);
            let evicted = lock(&shared.plans).insert(key, entry);
            shared
                .stats
                .cache_evictions
                .fetch_add(evicted, Ordering::Relaxed);
            shared.stats.computed.fetch_add(1, Ordering::Relaxed);
            let dirty = shared.dirty.fetch_add(1, Ordering::AcqRel) + 1;
            if shared.cfg.snapshot_every > 0 && dirty >= shared.cfg.snapshot_every {
                flush_snapshot(shared);
            }
            response
        }
        Ok(Err(e)) => {
            let ctr = if matches!(e, RescommError::Cancelled { .. }) {
                &shared.stats.deadline_cancelled
            } else {
                &shared.stats.pipeline_errors
            };
            ctr.fetch_add(1, Ordering::Relaxed);
            err_response(id, error_code(&e), e.exit_code(), &e.to_string())
        }
        Err(incident) => {
            shared.stats.panics_absorbed.fetch_add(1, Ordering::Relaxed);
            err_response(
                id,
                "internal",
                1,
                &format!("absorbed internal panic: {}", incident.detail),
            )
        }
    }
}

fn handle_map_batch(shared: &Shared, id: &JsonValue, req: &JsonValue) -> String {
    let sources = match req.get("nests").and_then(JsonValue::as_array) {
        Some(a) if !a.is_empty() => a,
        _ => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return err_response(id, "protocol", 1, "map_batch needs a non-empty nests array");
        }
    };
    // Reuse the single-map parameter surface: all nests in a batch share
    // one machine/schedule spec.
    let mut proto = match req.get("nests") {
        Some(_) => req.clone(),
        None => unreachable!(),
    };
    if let JsonValue::Object(fields) = &mut proto {
        fields.retain(|(k, _)| k != "nest" && k != "nests");
        fields.push(("nest".to_string(), JsonValue::Str(String::new())));
    }
    let mut params = Vec::with_capacity(sources.len());
    let mut nests = Vec::with_capacity(sources.len());
    for (i, s) in sources.iter().enumerate() {
        let Some(src) = s.as_str() else {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return err_response(id, "protocol", 1, &format!("nests[{i}] must be a string"));
        };
        if let JsonValue::Object(fields) = &mut proto {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "nest") {
                slot.1 = JsonValue::Str(src.to_string());
            }
        }
        let p = match parse_map_params(&proto) {
            Ok(p) => p,
            Err(detail) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return err_response(id, "protocol", 1, &detail);
            }
        };
        match parse_nest(src) {
            Ok(n) => nests.push(n),
            Err(e) => {
                let e = RescommError::from(e);
                shared.stats.pipeline_errors.fetch_add(1, Ordering::Relaxed);
                return err_response(
                    id,
                    error_code(&e),
                    e.exit_code(),
                    &format!("nests[{i}]: {e}"),
                );
            }
        }
        params.push(p);
    }

    match admit(shared, None) {
        Admit::Granted => {}
        _ => {
            shared
                .stats
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            return err_response(id, "overload", 1, "admission queue full; retry later");
        }
    }
    let outcome = guarded("serve_map_batch", || {
        let mappings = map_nest_batch(&nests, &MappingOptions::new(2), shared.cfg.workers.max(1))?;
        let mut entries = Vec::with_capacity(nests.len());
        for ((nest, mapping), p) in nests.iter().zip(&mappings).zip(&params) {
            let plan = build_plan(nest, mapping);
            let dist = Dist2D::uniform(Dist1D::Block);
            let makespan = plan.simulate_on_mesh(&p.mesh, dist, p.vshape, p.bytes, p.mode);
            entries.push(PlanEntry {
                result_json: render_result(nest, mapping, &plan, p, makespan),
                plan_json: plan_to_json(&plan).render(),
                mesh_json: mesh_to_json(&p.mesh).render(),
                vshape: p.vshape,
                bytes: p.bytes,
                mode: p.mode,
                makespan,
                from_snapshot: false,
            });
        }
        Ok::<_, RescommError>(entries)
    });
    release(shared);

    match outcome {
        Ok(Ok(entries)) => {
            let results: Vec<&str> = entries.iter().map(|e| e.result_json.as_str()).collect();
            let body = format!("{{\"results\": [{}]}}", results.join(", "));
            let count = results.len() as u64;
            drop(results);
            {
                let mut plans = lock(&shared.plans);
                let mut evicted = 0;
                for (p, entry) in params.iter().zip(entries) {
                    evicted += plans.insert(p.key(), entry);
                }
                shared
                    .stats
                    .cache_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
            }
            shared.stats.computed.fetch_add(count, Ordering::Relaxed);
            let dirty = shared.dirty.fetch_add(count, Ordering::AcqRel) + count;
            if shared.cfg.snapshot_every > 0 && dirty >= shared.cfg.snapshot_every {
                flush_snapshot(shared);
            }
            ok_response(id, "fresh", &body)
        }
        Ok(Err(e)) => {
            shared.stats.pipeline_errors.fetch_add(1, Ordering::Relaxed);
            err_response(id, error_code(&e), e.exit_code(), &e.to_string())
        }
        Err(incident) => {
            shared.stats.panics_absorbed.fetch_add(1, Ordering::Relaxed);
            err_response(
                id,
                "internal",
                1,
                &format!("absorbed internal panic: {}", incident.detail),
            )
        }
    }
}

fn handle_stats(shared: &Shared, id: &JsonValue) -> String {
    let s = &shared.stats;
    let plan_entries = lock(&shared.plans).len();
    let analysis_entries: usize = lock(&shared.caches).iter().map(|c| c.len()).sum();
    let result = jobj(vec![
        ("requests", ju(s.requests.load(Ordering::Relaxed))),
        ("computed", ju(s.computed.load(Ordering::Relaxed))),
        ("cache_hits", ju(s.cache_hits.load(Ordering::Relaxed))),
        ("cache_misses", ju(s.cache_misses.load(Ordering::Relaxed))),
        (
            "cache_evictions",
            ju(s.cache_evictions.load(Ordering::Relaxed)),
        ),
        ("snapshot_hits", ju(s.snapshot_hits.load(Ordering::Relaxed))),
        (
            "rejected_overload",
            ju(s.rejected_overload.load(Ordering::Relaxed)),
        ),
        (
            "deadline_cancelled",
            ju(s.deadline_cancelled.load(Ordering::Relaxed)),
        ),
        (
            "protocol_errors",
            ju(s.protocol_errors.load(Ordering::Relaxed)),
        ),
        (
            "pipeline_errors",
            ju(s.pipeline_errors.load(Ordering::Relaxed)),
        ),
        (
            "panics_absorbed",
            ju(s.panics_absorbed.load(Ordering::Relaxed)),
        ),
        (
            "restored_entries",
            ju(s.restored_entries.load(Ordering::Relaxed)),
        ),
        (
            "snapshot_flushes",
            ju(s.snapshot_flushes.load(Ordering::Relaxed)),
        ),
        ("plan_entries", ju(plan_entries as u64)),
        ("plan_cache_cap", ju(shared.cfg.plan_cache_cap as u64)),
        ("analysis_entries", ju(analysis_entries as u64)),
    ])
    .render();
    ok_response(id, "fresh", &result)
}

/// Route one request line to its handler. Never panics; always returns
/// one response line.
fn handle_line(shared: &Shared, line: &str) -> String {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return err_response(
                &JsonValue::Null,
                "protocol",
                1,
                &format!("bad request: {e}"),
            );
        }
    };
    let id = req.get("id").cloned().unwrap_or(JsonValue::Null);
    if !matches!(req, JsonValue::Object(_)) {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        return err_response(&id, "protocol", 1, "request must be a JSON object");
    }
    match req.get("op").and_then(JsonValue::as_str) {
        Some("ping") => ok_response(&id, "fresh", "{\"pong\": true}"),
        Some("map") => handle_map(shared, &id, &req),
        Some("map_batch") => handle_map_batch(shared, &id, &req),
        Some("stats") => handle_stats(shared, &id),
        Some("snapshot") => {
            let flushed = flush_snapshot(shared);
            let entries = lock(&shared.plans).len();
            ok_response(
                &id,
                "fresh",
                &jobj(vec![
                    ("flushed", JsonValue::Bool(flushed)),
                    ("entries", ju(entries as u64)),
                ])
                .render(),
            )
        }
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::Release);
            shared.adm_cv.notify_all();
            ok_response(&id, "fresh", "{\"draining\": true}")
        }
        Some(other) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            err_response(&id, "protocol", 1, &format!("unknown op {other:?}"))
        }
        None => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            err_response(&id, "protocol", 1, "request needs an \"op\" string")
        }
    }
}

// --- snapshot persistence --------------------------------------------------

/// Render the plan cache as one snapshot document.
fn snapshot_doc(plans: &PlanCache) -> String {
    // Deterministic entry order so back-to-back flushes of the same
    // state write the same bytes.
    let mut keys: Vec<&String> = plans.map.keys().collect();
    keys.sort();
    let entries: Vec<JsonValue> = keys
        .iter()
        .filter_map(|k| {
            let (_, e) = &plans.map[*k];
            // Self-produced JSON: reparse for embedding. An entry that
            // fails (cannot happen short of memory corruption) is
            // dropped rather than poisoning the whole snapshot.
            let result = parse(&e.result_json).ok()?;
            let plan = parse(&e.plan_json).ok()?;
            let mesh = parse(&e.mesh_json).ok()?;
            Some(jobj(vec![
                ("key", JsonValue::Str((*k).clone())),
                (
                    "vshape",
                    JsonValue::Array(vec![ju(e.vshape.0 as u64), ju(e.vshape.1 as u64)]),
                ),
                ("bytes", ju(e.bytes)),
                ("mode", JsonValue::Str(e.mode.label().to_string())),
                ("makespan", ju(e.makespan)),
                ("result", result),
                ("plan", plan),
                ("mesh", mesh),
            ]))
        })
        .collect();
    jobj(vec![
        ("format", JsonValue::Str(SNAPSHOT_FORMAT.to_string())),
        ("version", JsonValue::Int(SNAPSHOT_VERSION)),
        ("entries", JsonValue::Array(entries)),
    ])
    .render()
}

/// Write the snapshot atomically (tmp + rename). Returns `true` when a
/// file was written. Failures are reported to stderr, never raised — a
/// full disk must not take the serving path down.
fn flush_snapshot(shared: &Shared) -> bool {
    let Some(path) = &shared.cfg.snapshot_path else {
        return false;
    };
    let doc = snapshot_doc(&lock(&shared.plans));
    let tmp = path.with_extension("tmp");
    let result = std::fs::write(&tmp, &doc).and_then(|()| std::fs::rename(&tmp, path));
    match result {
        Ok(()) => {
            shared.dirty.store(0, Ordering::Release);
            shared
                .stats
                .snapshot_flushes
                .fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(e) => {
            eprintln!(
                "rescomm-serve: snapshot write to {} failed: {e}",
                path.display()
            );
            false
        }
    }
}

/// One parsed-but-unverified snapshot entry awaiting its restore proof.
struct RestoredEntry {
    key: String,
    entry: PlanEntry,
    plan: CommPlan,
    mesh: Mesh2D,
}

/// Load and *verify* a snapshot: every entry's [`CommPlan`] is restored
/// and re-simulated (fanned out over `workers` on the shared pool), and
/// only entries whose recomputed makespan is bit-identical to the
/// recorded one are accepted — a corrupted or stale-format snapshot
/// degrades to a cold start, never to wrong answers. Returns the
/// accepted entries.
fn load_snapshot(path: &PathBuf, workers: usize) -> Result<Vec<(String, PlanEntry)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse: {e}"))?;
    if doc.get("format").and_then(JsonValue::as_str) != Some(SNAPSHOT_FORMAT) {
        return Err("not a rescomm snapshot".to_string());
    }
    if doc.get("version").and_then(JsonValue::as_i64) != Some(SNAPSHOT_VERSION) {
        return Err(format!(
            "unsupported snapshot version (want {SNAPSHOT_VERSION})"
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("missing entries")?;
    let mut parsed = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        parsed.push(restore_entry(e).map_err(|err| format!("entries[{i}]: {err}"))?);
    }
    // The restore proof: each deserialized plan must replay to the exact
    // recorded makespan on its deserialized mesh. Entries are
    // independent, so verification rides the work-stealing pool.
    let (verdicts, _) = par_sweep_with_report(
        &parsed,
        workers,
        || (),
        |(), r| {
            let dist = Dist2D::uniform(Dist1D::Block);
            let replayed = guarded("snapshot_verify", || {
                r.plan
                    .simulate_on_mesh(&r.mesh, dist, r.entry.vshape, r.entry.bytes, r.entry.mode)
            });
            replayed == Ok(r.entry.makespan)
        },
    );
    Ok(parsed
        .into_iter()
        .zip(verdicts)
        .filter(|(_, ok)| *ok)
        .map(|(r, _)| (r.key, r.entry))
        .collect())
}

/// Parse one snapshot entry (no verification yet); `Err` = structurally
/// broken snapshot.
fn restore_entry(e: &JsonValue) -> Result<RestoredEntry, String> {
    let key = e
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or("missing key")?
        .to_string();
    let vs = e
        .get("vshape")
        .and_then(JsonValue::as_array)
        .ok_or("missing vshape")?;
    let (vw, vh) = match (
        vs.first().and_then(JsonValue::as_u64),
        vs.get(1).and_then(JsonValue::as_u64),
    ) {
        (Some(a), Some(b)) if a > 0 && b > 0 => (a as usize, b as usize),
        _ => return Err("bad vshape".to_string()),
    };
    let bytes = e
        .get("bytes")
        .and_then(JsonValue::as_u64)
        .ok_or("missing bytes")?;
    let mode = e
        .get("mode")
        .and_then(JsonValue::as_str)
        .and_then(ScheduleMode::parse)
        .ok_or("bad mode")?;
    let makespan = e
        .get("makespan")
        .and_then(JsonValue::as_u64)
        .ok_or("missing makespan")?;
    let result = e.get("result").ok_or("missing result")?;
    let plan_v = e.get("plan").ok_or("missing plan")?;
    let mesh_v = e.get("mesh").ok_or("missing mesh")?;
    let plan = plan_from_json(plan_v).map_err(|err| err.to_string())?;
    let mesh = mesh_from_json(mesh_v).map_err(|err| err.to_string())?;
    Ok(RestoredEntry {
        key,
        entry: PlanEntry {
            result_json: result.render(),
            plan_json: plan_v.render(),
            mesh_json: mesh_v.render(),
            vshape: (vw, vh),
            bytes,
            mode,
            makespan,
            from_snapshot: true,
        },
        plan,
        mesh,
    })
}

// --- the server ------------------------------------------------------------

/// A bound (not yet running) server. [`Server::bind`] restores the
/// snapshot, [`Server::run`] serves until a `shutdown` op drains it.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread (in-process tests
/// and the bench harness).
pub struct ServerHandle {
    /// The bound address (real port even when 0 was requested).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Ask the server to drain and stop (as the `shutdown` op does),
    /// then wait for it.
    pub fn stop(self) -> std::io::Result<()> {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.adm_cv.notify_all();
        self.thread.join().unwrap_or(Ok(()))
    }
}

impl Server {
    /// Bind the listener and (when configured) restore the snapshot.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut plans = PlanCache::new(cfg.plan_cache_cap);
        let mut restored = 0u64;
        if let Some(path) = &cfg.snapshot_path {
            if path.exists() {
                match load_snapshot(path, cfg.workers.max(1)) {
                    Ok(p) => {
                        restored = p.len() as u64;
                        for (key, entry) in p {
                            // A snapshot larger than the cap degrades to
                            // the freshest cap entries, silently.
                            plans.insert(key, entry);
                        }
                    }
                    Err(e) => {
                        // Cold start beats refusing to serve.
                        eprintln!(
                            "rescomm-serve: ignoring unusable snapshot {}: {e}",
                            path.display()
                        );
                    }
                }
            }
        }
        let shared = Arc::new(Shared {
            cfg,
            caches: Mutex::new(Vec::new()),
            plans: Mutex::new(plans),
            adm: Mutex::new(AdmState::default()),
            adm_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dirty: AtomicU64::new(0),
            stats: Stats::default(),
        });
        shared
            .stats
            .restored_entries
            .store(restored, Ordering::Relaxed);
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Entries restored from the snapshot at bind time.
    pub fn restored_entries(&self) -> u64 {
        self.shared.stats.restored_entries.load(Ordering::Relaxed)
    }

    /// Serve until a `shutdown` op (or [`ServerHandle::stop`]) drains the
    /// server; flushes a final snapshot on the way out.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener, shared, ..
        } = self;
        listener.set_nonblocking(true)?;

        // Interval flusher.
        if shared.cfg.snapshot_path.is_some() {
            if let Some(interval) = shared.cfg.snapshot_interval {
                let flusher = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut last = Instant::now();
                    while !flusher.shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(25).min(interval));
                        if last.elapsed() >= interval && flusher.dirty.load(Ordering::Acquire) > 0 {
                            flush_snapshot(&flusher);
                            last = Instant::now();
                        }
                    }
                });
            }
        }

        while !shared.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = Arc::clone(&shared);
                    std::thread::spawn(move || serve_connection(&conn, stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: wait for in-flight computations, then flush.
        loop {
            let st = lock(&shared.adm);
            if st.active == 0 && st.waiting == 0 {
                break;
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(5));
        }
        flush_snapshot(&shared);
        Ok(())
    }

    /// [`Server::run`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            thread,
            shared,
        }
    }
}

/// Serve one connection: bounded line reads, one response per line.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    // Request/response lines are tiny; Nagle + delayed ACK would add
    // ~40ms to every round trip on loopback.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let max = shared.cfg.max_line_bytes as u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // `take` bounds a single hostile line; the +1 distinguishes
        // "exactly max" from "over max".
        let n = match (&mut reader).take(max + 1).read_until(b'\n', &mut buf) {
            Ok(0) => return, // client closed
            Ok(n) => n,
            Err(_) => return,
        };
        if n as u64 > max && !buf.ends_with(b"\n") {
            let resp = err_response(
                &JsonValue::Null,
                "protocol",
                1,
                &format!("request line exceeds {max} bytes"),
            );
            let _ = writeln!(writer, "{resp}");
            return; // the rest of the line is garbage: drop the conn
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let shutdown_before = shared.shutdown.load(Ordering::Acquire);
        let resp = handle_line(shared, line);
        if writeln!(writer, "{resp}").is_err() || writer.flush().is_err() {
            return;
        }
        // A shutdown op was just handled: stop reading so the drain can
        // finish.
        if !shutdown_before && shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, w: &mut TcpStream, req: &str) -> JsonValue {
        writeln!(w, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse(line.trim()).expect("response must be valid JSON")
    }

    const NEST: &str = "nest demo\narray a 2\nstmt S depth 2 domain 0..3 0..3\n  \
                        write a [1 0; 0 1] + [0 0]\n  read a [0 1; 1 0] + [1 0]\n";

    fn map_req(id: u64) -> String {
        let nest = JsonValue::Str(NEST.to_string()).render();
        format!("{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}, \"mesh\": [4, 4]}}")
    }

    #[test]
    fn serves_map_ping_stats_and_shuts_down() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 1, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));

        let first = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(first.get("ok"), Some(&JsonValue::Bool(true)), "{first:?}");
        assert_eq!(
            first.get("served").and_then(JsonValue::as_str),
            Some("fresh")
        );
        let result = first.get("result").unwrap();
        assert!(result.get("makespan").is_some());
        assert_eq!(result.get("accesses").and_then(JsonValue::as_u64), Some(2));

        // Second identical request: served from cache, byte-identical
        // result.
        let second = roundtrip(&mut r, &mut w, &map_req(3));
        assert_eq!(
            second.get("served").and_then(JsonValue::as_str),
            Some("cache")
        );
        assert_eq!(second.get("result").unwrap().render(), result.render());

        let stats = roundtrip(&mut r, &mut w, "{\"id\": 4, \"op\": \"stats\"}");
        let sr = stats.get("result").unwrap();
        assert_eq!(sr.get("computed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(sr.get("cache_hits").and_then(JsonValue::as_u64), Some(1));

        let bye = roundtrip(&mut r, &mut w, "{\"id\": 5, \"op\": \"shutdown\"}");
        assert_eq!(bye.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn malformed_requests_get_structured_errors_not_crashes() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        for hostile in [
            "not json at all",
            "{\"op\": \"map\"}",              // missing nest
            "{\"op\": \"warp\"}",             // unknown op
            "{\"a\": 1, \"a\": 2}",           // duplicate keys
            "{\"op\": \"map\", \"nest\": 7}", // wrong type
            "{\"op\": \"map\", \"nest\": \"nest x\\nbogus line\"}", // bad nest source
            "{\"op\": \"map\", \"nest\": \"\", \"mesh\": [0, 4]}", // zero mesh
            "[1, 2, 3]",                      // not an object
        ] {
            let resp = roundtrip(&mut r, &mut w, hostile);
            assert_eq!(
                resp.get("ok"),
                Some(&JsonValue::Bool(false)),
                "hostile input {hostile:?} must be rejected: {resp:?}"
            );
            assert!(resp.get("error").and_then(|e| e.get("code")).is_some());
        }
        // The server is still alive and serving.
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 9, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn zero_deadline_is_cancelled_and_reported() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let nest = JsonValue::Str(NEST.to_string()).render();
        let req = format!("{{\"id\": 1, \"op\": \"map\", \"nest\": {nest}, \"deadline_ms\": 0}}");
        let resp = roundtrip(&mut r, &mut w, &req);
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)), "{resp:?}");
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("deadline")
        );
        assert_eq!(err.get("exit_code").and_then(JsonValue::as_i64), Some(6));
        // And the server still answers.
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 2, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn snapshot_round_trip_serves_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("rescomm-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);

        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 1, // flush after every computation
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg.clone()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let fresh = roundtrip(&mut r, &mut w, &map_req(1));
        assert_eq!(
            fresh.get("served").and_then(JsonValue::as_str),
            Some("fresh")
        );
        let fresh_bytes = fresh.get("result").unwrap().render();
        // Hard stop — no drain, no shutdown op. The per-compute flush
        // already persisted the entry.
        drop((r, w));
        handle.stop().unwrap();
        assert!(path.exists(), "snapshot must exist after the first compute");

        let server = Server::bind(cfg).unwrap();
        assert_eq!(server.restored_entries(), 1);
        let handle = server.spawn();
        let (mut r, mut w) = client(handle.addr);
        let replay = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            replay.get("served").and_then(JsonValue::as_str),
            Some("snapshot"),
            "{replay:?}"
        );
        assert_eq!(replay.get("result").unwrap().render(), fresh_bytes);
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_batch_maps_all_and_warms_the_plan_cache() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let nest = JsonValue::Str(NEST.to_string()).render();
        let req = format!(
            "{{\"id\": 1, \"op\": \"map_batch\", \"nests\": [{nest}, {nest}], \"mesh\": [4, 4]}}"
        );
        let resp = roundtrip(&mut r, &mut w, &req);
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp:?}");
        let results = resp
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(results.len(), 2);
        // The batch warmed the plan cache for the single-map path.
        let single = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            single.get("served").and_then(JsonValue::as_str),
            Some("cache")
        );
        assert_eq!(single.get("result").unwrap().render(), results[0].render());
        handle.stop().unwrap();
    }

    #[test]
    fn overload_rejections_are_structured() {
        // workers=0 would deadlock admission; use a 1-worker server and
        // verify the queue-full rejection arithmetic directly instead.
        let cfg = ServerConfig {
            workers: 1,
            max_queue: 0,
            ..ServerConfig::default()
        };
        let server = Server::bind(cfg).unwrap();
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn();
        // Occupy the only worker slot from the outside.
        {
            let mut st = lock(&shared.adm);
            st.active = 1;
        }
        let (mut r, mut w) = client(handle.addr);
        let resp = roundtrip(&mut r, &mut w, &map_req(1));
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("overload")
        );
        assert!(err.get("retry_after_ms").is_some());
        {
            let mut st = lock(&shared.adm);
            st.active = 0;
        }
        shared.adm_cv.notify_all();
        // With the slot free the same request computes fine.
        let resp = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp:?}");
        handle.stop().unwrap();
    }

    #[test]
    fn plan_cache_evicts_lru_and_counts() {
        let cfg = ServerConfig {
            plan_cache_cap: 2,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        // `bytes` participates in the cache key, so each value is a
        // distinct plan-cache entry.
        let req = |id: u64, bytes: u64| {
            let nest = JsonValue::Str(NEST.to_string()).render();
            format!(
                "{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}, \
                 \"mesh\": [4, 4], \"bytes\": {bytes}}}"
            )
        };
        let served = |resp: &JsonValue| {
            resp.get("served")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(1, 64))), "fresh");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(2, 128))), "fresh");
        // Touch 64 so 128 becomes the LRU entry...
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(3, 64))), "cache");
        // ...and the third insert evicts 128, not 64 (FIFO would evict
        // 64, the oldest insert).
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(4, 256))), "fresh");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(5, 64))), "cache");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(6, 128))), "fresh");

        let stats = roundtrip(&mut r, &mut w, "{\"id\": 7, \"op\": \"stats\"}");
        let sr = stats.get("result").unwrap();
        let field = |k: &str| sr.get(k).and_then(JsonValue::as_u64).unwrap();
        assert_eq!(field("cache_hits"), 2);
        assert_eq!(field("cache_misses"), 4);
        // Insert of 256 evicted 128; re-insert of 128 evicted 256 (64
        // stayed resident — its recency was refreshed by the hits).
        assert_eq!(field("cache_evictions"), 2);
        assert_eq!(field("plan_entries"), 2);
        assert_eq!(field("plan_cache_cap"), 2);
        handle.stop().unwrap();
    }

    #[test]
    fn oversized_lines_are_rejected_gracefully() {
        let cfg = ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let huge = format!("{{\"op\": \"map\", \"nest\": \"{}\"}}", "x".repeat(1024));
        writeln!(w, "{huge}").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let resp = parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(JsonValue::as_str)
            .is_some_and(|d| d.contains("exceeds")));
        handle.stop().unwrap();
    }
}
