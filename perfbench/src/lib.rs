//! # perfbench — the repository benchmark
//!
//! One command times the served mapping path (nest text → analysis →
//! plan → fold → simulate → JSON bytes over TCP, through the real
//! `rescomm-serve` binary) and the in-process fault sweep (closed fold →
//! fault compile → Monte Carlo replay on the shared pool), end to end
//! and per layer, and checks every answer against an independent oracle.
//! See `main.rs` for the command line and the run protocol.

pub mod check;
pub mod gen;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
///
/// `ok_frac` is the complement of the error fraction (structured errors,
/// refusals and timeouts over ops attempted): the gate needs a metric
/// that is never 0, and on these workloads no operation fails.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p99_ms", "ms", "lower"),
    m("ok_frac", "ratio", "higher"),
    m("cpu_ms_per_op", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("plan_makespan_geomean_us", "us", "lower"),
];

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// A per-layer metric with the end-to-end metric it should move and the
/// workload it should move it on (`-` where there is none).
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Name, unit and direction.
    pub def: MetricDef,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload it moves them on.
    pub on: &'static str,
    /// Workloads on which it should not move.
    pub steady_on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
    steady_on: &'static str,
) -> LayerDef {
    LayerDef {
        def: m(name, unit, better),
        moves,
        on,
        steady_on,
    }
}

const LAT50_CPU: &str = "latency_p50_ms, cpu_ms_per_op";
const LAT50_TPUT: &str = "latency_p50_ms, throughput_ops_s";
const LAT99_TPUT: &str = "latency_p99_ms, throughput_ops_s";
const TPUT_LAT50: &str = "throughput_ops_s, latency_p50_ms";
const TPUT_LAT99: &str = "throughput_ops_s, latency_p99_ms";
const SERVE_HOT_P99: &str = "latency_p99_ms, throughput_ops_s (snapshot, evictions)";

/// Per-layer metrics, measured by the traced run (`--trace 1`).
#[rustfmt::skip]
pub const PER_LAYER: [LayerDef; 50] = [
    l("loopnest.parse_busy_ms", "ms", "lower", LAT50_CPU, "serve_wide", "-"),
    l("loopnest.parse_p50_us", "us", "lower", LAT50_CPU, "serve_wide", "-"),
    l("loopnest.parse_bytes", "bytes", "lower", LAT50_CPU, "serve_wide", "-"),
    l("accessgraph.build_busy_ms", "ms", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("accessgraph.branching_busy_ms", "ms", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("accessgraph.augment_busy_ms", "ms", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("accessgraph.edges", "count", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("alignment.busy_ms", "ms", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("alignment.residuals", "count", "lower", LAT50_CPU, "serve_wide", "serve_hot"),
    l("pipeline.map_busy_ms", "ms", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.map_p50_us", "us", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.map_p99_us", "us", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.analysis_cache_entries", "count", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.outcome_general", "count", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.outcome_decomposed", "count", "higher", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("pipeline.incidents", "count", "lower", LAT50_TPUT, "serve_wide", "serve_hot"),
    l("plan.build_busy_ms", "ms", "lower", LAT99_TPUT, "serve_kernels", "-"),
    l("plan.build_p50_us", "us", "lower", LAT99_TPUT, "serve_kernels", "-"),
    l("plan.build_p99_us", "us", "lower", LAT99_TPUT, "serve_kernels", "-"),
    l("plan.messages", "count", "lower", LAT99_TPUT, "serve_kernels", "-"),
    l("plan.phases", "count", "lower", LAT99_TPUT, "serve_kernels", "-"),
    l("plan.affine_phases", "count", "higher", LAT99_TPUT, "serve_kernels", "-"),
    l("json.plan_render_busy_ms", "ms", "lower", "latency_p99_ms, throughput_ops_s, peak_rss_mb", "serve_kernels", "-"),
    l("json.plan_bytes", "bytes", "lower", "latency_p99_ms, throughput_ops_s, peak_rss_mb", "serve_kernels", "-"),
    l("json.parse_busy_ms", "ms", "lower", "latency_p50_ms", "serve_hot", "-"),
    l("distribution.fold_busy_ms", "ms", "lower", TPUT_LAT50, "sweep_faults", "-"),
    l("distribution.fold_p50_us", "us", "lower", TPUT_LAT50, "sweep_faults", "-"),
    l("distribution.physical_msgs", "count", "lower", TPUT_LAT50, "sweep_faults", "-"),
    l("machine.sim_busy_ms", "ms", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.sim_ns_per_msg", "ns/msg", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.compile_busy_ms", "ms", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.fault_replay_busy_ms", "ms", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.recovery_replay_busy_ms", "ms", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.attempts", "count", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.retries", "count", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.rollbacks", "count", "lower", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("machine.delivered_per_attempt", "ratio", "higher", TPUT_LAT99, "sweep_faults", "serve_*"),
    l("pool.workers_used", "count", "higher", TPUT_LAT50, "sweep_faults", "serve_*"),
    l("pool.tasks", "count", "higher", TPUT_LAT50, "sweep_faults", "serve_*"),
    l("pool.steals", "count", "lower", TPUT_LAT50, "sweep_faults", "serve_*"),
    l("serve.rtt_hit_p50_us", "us", "lower", "latency_p50_ms (hit path)", "serve_hot", "-"),
    l("serve.rtt_hit_p99_us", "us", "lower", "latency_p50_ms (hit path)", "serve_hot", "-"),
    l("serve.rtt_fresh_p50_us", "us", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.rtt_fresh_p99_us", "us", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.cache_hit_ratio", "ratio", "higher", "latency_p50_ms (hit path)", "serve_hot", "-"),
    l("serve.evictions", "count", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.snapshot_flushes", "count", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.snapshot_bytes", "bytes", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.rejected_overload", "count", "lower", SERVE_HOT_P99, "serve_hot", "-"),
    l("serve.gap_fresh_us", "us", "lower", "-", "serve_kernels, serve_wide", "-"),
];

/// Tracing bookkeeping reported by every traced run, after [`PER_LAYER`].
pub const TRACE_METRICS: [LayerDef; 2] = [
    l(
        "trace.coverage",
        "ratio",
        "higher",
        "-",
        "every workload",
        "-",
    ),
    l(
        "trace.overhead_pct",
        "%",
        "lower",
        "-",
        "every workload",
        "-",
    ),
];

/// `true` when `name` only uses `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
