//! Seeded workload generators.
//!
//! Every input of a run is a pure function of `(seed, index)`: the same
//! seed always yields the same request stream and the same fault
//! studies, whatever the timing of the run that consumes them. The
//! program under test only ever sees the generated inputs.

use rescomm_bench::workload::{chained_stencil_nest, pipeline_nest};
use rescomm_json::JsonValue;
use rescomm_loopnest::examples;
use rescomm_loopnest::printer::to_text;
use rescomm_loopnest::LoopNest;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper kernels at domain 8–32, every request distinct.
    ServeKernels,
    /// Synthetic 50–300 statement nests at domain 2–4, every request distinct.
    ServeWide,
    /// Zipf(1.1) over 2048 small nests against the plan cache, snapshots on.
    ServeHot,
    /// In-process closed fold + fault compile + Monte Carlo replay studies.
    SweepFaults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeKernels,
        Workload::ServeWide,
        Workload::ServeHot,
        Workload::SweepFaults,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeKernels => "serve_kernels",
            Workload::ServeWide => "serve_wide",
            Workload::ServeHot => "serve_hot",
            Workload::SweepFaults => "sweep_faults",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `true` for the workloads that drive the `rescomm-serve` binary.
    pub fn is_serve(self) -> bool {
        self != Workload::SweepFaults
    }
}

/// splitmix64 over `(seed, index, salt)`: a stateless draw, so any
/// request can be regenerated without replaying the ones before it.
pub fn mix(seed: u64, i: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(salt.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `lo..=hi`.
fn pick(seed: u64, i: u64, salt: u64, lo: u64, hi: u64) -> u64 {
    lo + mix(seed, i, salt) % (hi - lo + 1)
}

/// Uniform draw in `[0, 1)`.
pub fn unit(seed: u64, i: u64, salt: u64) -> f64 {
    (mix(seed, i, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, block: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        let j = (mix(seed, block, 1000 + k as u64) % (k as u64 + 1)) as usize;
        p.swap(k, j);
    }
    p
}

/// Stratified draw of one of `n` levels: every aligned block of `n`
/// consecutive indices visits each level once, in a seeded order, so any
/// long prefix of a stream is balanced and runs on different seeds differ
/// only by the order and the within-level jitter.
pub fn strat(seed: u64, i: u64, salt: u64, n: usize) -> usize {
    permutation(seed ^ salt.wrapping_mul(0x9e37_79b9), i / n as u64, n)[(i % n as u64) as usize]
}

/// The paper kernels served by `serve_kernels` (and banked by the sweep).
pub const KERNELS: [&str; 8] = [
    "motivating",
    "matmul",
    "gauss",
    "gauss_triangular",
    "jacobi2d",
    "syrk",
    "adi",
    "stencil1d",
];

/// Kernel `k` of [`KERNELS`] at domain size `n`.
pub fn kernel_nest(k: usize, n: i64) -> LoopNest {
    match KERNELS[k] {
        "motivating" => examples::motivating_example(n, n / 4).0,
        "matmul" => examples::matmul(n),
        "gauss" => examples::gauss_elim(n),
        "gauss_triangular" => examples::gauss_triangular(n),
        "jacobi2d" => examples::jacobi2d(n),
        "syrk" => examples::syrk(n),
        "adi" => examples::adi_sweep(n),
        "stencil1d" => examples::stencil1d(n, n),
        other => unreachable!("unknown kernel {other}"),
    }
}

/// Physical meshes a request may target.
pub const MESHES: [(usize, usize); 4] = [(4, 4), (8, 4), (8, 8), (16, 8)];
/// Schedule modes a request may ask for (the server's spellings).
pub const MODES: [&str; 3] = ["phased", "overlapped", "overlapped-longest"];

/// One `map` request as the client sends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRequest {
    /// Nest source text.
    pub nest: String,
    /// Physical mesh `[px, py]`; the virtual grid defaults to it.
    pub mesh: (usize, usize),
    /// Message size.
    pub bytes: u64,
    /// Schedule mode.
    pub mode: &'static str,
}

impl MapRequest {
    /// The request line (without the newline) carrying `id`.
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\": {id}, \"op\": \"map\", \"nest\": {}, \"mesh\": [{}, {}], \"bytes\": {}, \"mode\": \"{}\"}}",
            JsonValue::Str(self.nest.clone()).render(),
            self.mesh.0,
            self.mesh.1,
            self.bytes,
            self.mode
        )
    }

    /// Everything that determines the answer: two requests with the same
    /// key must be answered with the same bytes.
    pub fn key(&self) -> String {
        format!(
            "{}|{}x{}|{}|{}",
            self.nest, self.mesh.0, self.mesh.1, self.bytes, self.mode
        )
    }
}

/// Render `nest` under a request-unique name, so every request of a
/// distinct-request workload is a distinct plan-cache key.
fn named_text(mut nest: LoopNest, name: String) -> String {
    nest.name = name;
    to_text(&nest)
}

fn machine_draw(
    seed: u64,
    i: u64,
    meshes: &[(usize, usize)],
) -> ((usize, usize), u64, &'static str) {
    let m = meshes.len();
    let c = strat(seed, i, 2, m * 5 * MODES.len());
    (meshes[c % m], 256u64 << (c / m % 5), MODES[c / (m * 5)])
}

/// Request `i` of `serve_kernels`: a paper kernel at domain 8–32 on a
/// drawn mesh, mode and message size, all stratified (see [`strat`]).
pub fn kernels_request(seed: u64, i: u64) -> MapRequest {
    let c = strat(seed, i, 0, KERNELS.len() * 25);
    let nest = kernel_nest(c % KERNELS.len(), 8 + (c / KERNELS.len()) as i64);
    let name = format!("{}-r{i}", nest.name);
    let (mesh, bytes, mode) = machine_draw(seed, i, &MESHES);
    MapRequest {
        nest: named_text(nest, name),
        mesh,
        bytes,
        mode,
    }
}

/// Shape of request `i` of `serve_wide`: a chained-stencil nest (depth
/// 2, domain 2–4) or a pipeline nest (depth 3, domain 2–3) of 50–300
/// statements. The domains stay small so parsing and analysis, whose
/// cost grows with the statement count alone, carry the request rather
/// than the per-point plan enumeration.
fn wide_shape(seed: u64, i: u64) -> WideShape {
    // 26 statement counts (50, 60, …, 300) × (3 chained + 2 pipeline domains).
    let c = strat(seed, i, 5, 130);
    let stmts = 50 + 10 * (c / 5);
    match c % 5 {
        d @ 0..=2 => ("chained", stmts, 2 + d as i64),
        d => ("pipeline", stmts, d as i64 - 1),
    }
}

/// Nest text of a wide shape without its `nest` line.
fn wide_body(family: &str, stmts: usize, size: i64) -> String {
    let nest = if family == "chained" {
        chained_stencil_nest(stmts, size)
    } else {
        pipeline_nest(stmts, size)
    };
    let text = to_text(&nest);
    text[text.find('\n').map_or(text.len(), |p| p + 1)..].to_string()
}

/// Distinct small nests behind `serve_hot`.
pub const HOT_KEYS: usize = 2048;
/// Zipf exponent of the `serve_hot` key popularity.
pub const HOT_ZIPF_S: f64 = 1.1;

const HOT_MATRICES: [&str; 4] = ["[0 1; 1 0]", "[1 1; 0 1]", "[1 0; 1 1]", "[0 -1; 1 0]"];

/// The `serve_hot` key table: `HOT_KEYS` distinct small nests.
pub fn hot_table(seed: u64) -> Vec<MapRequest> {
    (0..HOT_KEYS as u64)
        .map(|k| {
            // 6 domains × 4 matrices × 3 × 3 shifts.
            let c = strat(seed, k, 10, 216) as u64;
            let dom = 3 + c % 6;
            let m = HOT_MATRICES[(c / 6 % 4) as usize];
            let (sx, sy) = (c / 24 % 3, c / 72);
            let nest = format!(
                "nest hot{k}\narray a 2\narray b 2\n\
                 stmt S depth 2 domain 0..{dom} 0..{dom}\n  \
                 write a [1 0; 0 1] + [0 0]\n  \
                 read a {m} + [{sx} {sy}]\n  \
                 read b [1 0; 0 1] + [{sy} 1]\n"
            );
            let (mesh, bytes, mode) = machine_draw(seed, 1_000_000 + k, &MESHES);
            MapRequest {
                nest,
                mesh,
                bytes,
                mode,
            }
        })
        .collect()
}

/// A request generator: request `i` of the workload's stream.
pub trait RequestSource: Sync {
    /// Request `i`.
    fn request(&self, i: u64) -> MapRequest;
}

/// `serve_kernels` / `serve_wide` streams, generated on demand. Wide
/// nest bodies are rendered once per shape and reused under each
/// request's own name: rendering a 300-statement nest costs a client
/// more than half a millisecond, time it would otherwise spend between
/// requests.
pub struct Generated {
    seed: u64,
    wide: bool,
    bodies: Mutex<HashMap<WideShape, Arc<str>>>,
}

/// `(family, statements, domain)` of a `serve_wide` nest.
type WideShape = (&'static str, usize, i64);

impl Generated {
    /// The `serve_wide` (`wide`) or `serve_kernels` stream of `seed`.
    pub fn new(seed: u64, wide: bool) -> Generated {
        Generated {
            seed,
            wide,
            bodies: Mutex::new(HashMap::new()),
        }
    }
}

impl RequestSource for Generated {
    fn request(&self, i: u64) -> MapRequest {
        if !self.wide {
            return kernels_request(self.seed, i);
        }
        let (family, stmts, size) = wide_shape(self.seed, i);
        let body = Arc::clone(
            self.bodies
                .lock()
                .expect("no panic while holding the body cache")
                .entry((family, stmts, size))
                .or_insert_with(|| wide_body(family, stmts, size).into()),
        );
        // The two smaller meshes: folding hundreds of phases onto a large
        // machine would outweigh the analysis this workload exists to load.
        let (mesh, bytes, mode) = machine_draw(self.seed, i, &MESHES[..2]);
        MapRequest {
            nest: format!("nest {family}-r{i}\n{body}"),
            mesh,
            bytes,
            mode,
        }
    }
}

/// The `serve_hot` stream: a seeded Zipf draw over the hot table. Rank
/// `r` has weight `1/(r+1)^s`, and ranks map to table entries through a
/// seeded permutation, so each seed has its own popular set.
pub struct Hot {
    seed: u64,
    table: Vec<MapRequest>,
    cdf: Vec<f64>,
    rank_to_key: Vec<usize>,
}

impl Hot {
    /// The hot stream of `seed`.
    pub fn new(seed: u64) -> Hot {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..HOT_KEYS)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(HOT_ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Hot {
            seed,
            table: hot_table(seed),
            cdf,
            rank_to_key: permutation(seed, u64::MAX, HOT_KEYS),
        }
    }
}

impl RequestSource for Hot {
    fn request(&self, i: u64) -> MapRequest {
        let u = unit(self.seed, i, 14);
        let rank = self.cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
        self.table[self.rank_to_key[rank]].clone()
    }
}

/// The request source of a serve workload.
pub fn source(w: Workload, seed: u64) -> Box<dyn RequestSource> {
    match w {
        Workload::ServeKernels => Box::new(Generated::new(seed, false)),
        Workload::ServeWide => Box::new(Generated::new(seed, true)),
        Workload::ServeHot => Box::new(Hot::new(seed)),
        Workload::SweepFaults => panic!("sweep_faults sends no requests"),
    }
}

/// Meshes of the sweep studies.
pub const SWEEP_MESHES: [(usize, usize); 4] = [(8, 4), (8, 8), (16, 8), (16, 16)];

/// One nest of the sweep bank, before mapping: half chained stencils
/// (6–31 statements), a quarter pipelines (6–22 statements) and a
/// quarter small paper kernels at a seeded domain of 8–12, plus
/// transpose, which maps communication-free and is dropped from the
/// bank. Statement counts step evenly through their range.
pub fn bank_nest(seed: u64, j: u64) -> LoopNest {
    match j % 4 {
        0 | 1 => chained_stencil_nest((6 + 3 * (j / 4) + j % 2) as usize, 4),
        2 => pipeline_nest((6 + 2 * (j / 4)) as usize, 3),
        _ => {
            let n = pick(seed, j, 21, 8, 12) as i64;
            match (j / 4) as usize {
                k if k < KERNELS.len() => kernel_nest(k, n),
                _ => examples::transpose(n),
            }
        }
    }
}

/// Nests generated for the sweep bank (before the no-phase ones are dropped).
pub const BANK_SIZE: u64 = 36;

/// Everything one fault study needs besides its bank nest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudySpec {
    /// Index of the study in the stream.
    pub index: u64,
    /// Draw used to pick the bank entry (reduced modulo the bank size).
    pub nest_draw: u64,
    /// Physical mesh.
    pub mesh: (usize, usize),
    /// Side of the square virtual grid, 256–8192.
    pub vgrid: usize,
    /// Message size.
    pub bytes: u64,
    /// Per-attempt drop probability of the transport.
    pub drop_prob: f64,
    /// Overlapped (`true`) or phased schedule.
    pub overlapped: bool,
    /// Base fault seed; replications derive from it.
    pub fault_seed: u64,
}

/// Study `i` of `sweep_faults`.
pub fn study(seed: u64, i: u64) -> StudySpec {
    // Bank entry × mesh × virtual grid, and message size × schedule.
    let (nests, meshes) = (BANK_SIZE as usize, SWEEP_MESHES.len());
    let c = strat(seed, i, 30, nests * meshes * 6);
    let v = strat(seed, i, 32, 4 * 2);
    StudySpec {
        index: i,
        nest_draw: (c % nests) as u64,
        mesh: SWEEP_MESHES[c / nests % meshes],
        vgrid: 256usize << (c / (nests * meshes)),
        bytes: 256u64 << (v % 4),
        drop_prob: 0.02 + 0.08 * unit(seed, i, 34),
        overlapped: v / 4 == 1,
        fault_seed: mix(seed, i, 36),
    }
}

/// Ops of the stream prefix `plan_makespan_geomean_us` averages over:
/// whole stratification blocks (see [`strat`]), so the figure is a
/// deterministic function of the seed that varies little between seeds.
/// `serve_hot` counts each distinct key of its prefix once.
pub fn geomean_prefix(w: Workload) -> u64 {
    match w {
        Workload::ServeKernels => 1200, // 6 × (8 kernels × 25 domains), 20 × 60 machines
        Workload::ServeWide => 1560,    // 12 × 130 nest shapes, 52 × 30 machines
        Workload::ServeHot => 10_000,   // about 1200 distinct keys
        Workload::SweepFaults => 864,   // 36 nests × 4 meshes × 6 grids, 108 × 8
    }
}

/// FNV-1a digest of the first `n` inputs of a workload: request lines
/// for the serve workloads, study specs and bank nests for the sweep.
pub fn stream_digest(w: Workload, seed: u64, n: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    if w.is_serve() {
        let src = source(w, seed);
        for i in 0..n {
            eat(&src.request(i).line(i));
        }
    } else {
        for j in 0..BANK_SIZE {
            eat(&to_text(&bank_nest(seed, j)));
        }
        for i in 0..n {
            eat(&format!("{:?}", study(seed, i)));
        }
    }
    h
}
