//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_kernels|serve_wide|serve_hot|sweep_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the serve workloads build
//! `rescomm-serve` from the workspace there and drive it as a child
//! process over loopback TCP with closed-loop clients (one per hardware
//! thread, at most two); `sweep_faults` runs fault studies in-process on
//! the shared pool with one worker per hardware thread.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` measures the per-layer metrics: the serve workloads first
//! observe the server from the client side, then every run replays the
//! same generated inputs in-process on two states, one untraced and one
//! traced with a span around each call into a layer, interleaved op by op
//! (batch by batch for the sweep); the spans give the layer figures and
//! the two sides the tracing overhead.
//!
//! Every metric is printed with its unit (and, where a run has rounds,
//! the quartiles over them); the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Details, the host
//! fingerprint and the spans go to `.bench_out/`. Any output that
//! disagrees with its oracle makes the run exit with status 1.

use perfbench::check::{check_fresh, Reply};
use perfbench::gen::{self, RequestSource, Workload};
use perfbench::replay::{ServeReplay, SERVED_STEPS};
use perfbench::serve::{build_server, closed_loop, Client, Sample, ServerChild};
use perfbench::stats::{
    calibration_ms, cpu_ms, geomean_positive, host_threads, median, peak_rss_mb, quantile,
    quartiles, sorted, steal_ticks,
};
use perfbench::sweep::{
    batch_specs, build_bank, check_study, run_batch, run_window, BankEntry, PoolTotals, StudyOut,
};
use perfbench::trace::{by_layer, coverage, to_jsonl, Span, Trace};
use perfbench::{END_TO_END, PER_LAYER, TRACE_METRICS};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS_SERVE: usize = 9;
const SETUP_REPS_SWEEP: usize = 5;
/// Rounds the measured window is cut into. Metrics cover the whole
/// window; the per-round figures are printed as quartiles beside them.
const ROUNDS: usize = 5;
/// A round in which the hypervisor stole more than this share of the
/// machine's CPU time measures the neighbours, not the program: it is
/// left out and replaced by an extra round, at most `EXTRA_ROUNDS` times.
const STEAL_LIMIT: f64 = 0.02;
const EXTRA_ROUNDS: usize = 5;
/// Untimed closed-loop warm-up before the window (caches, pool threads).
const WARMUP: Duration = Duration::from_secs(1);
/// Fresh answers re-derived through the oracles per serve run.
const CHECK_FRESH: usize = 24;
/// Studies re-run through the per-call simulators per sweep run.
const CHECK_STUDIES: usize = 8;
/// Cap on in-process replay ops per traced serve run.
const MAX_REPLAY_OPS: u64 = 20_000;
/// Where results, spans and the run's scratch files go.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_kernels|serve_wide|serve_hot|sweep_faults> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}"));
    let workload = take("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-round (or per-repeat) values, printed as quartiles.
    rounds: Vec<f64>,
    /// Samples behind a percentile.
    samples: Option<usize>,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) -> &mut Metric {
        let unit = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(
                PER_LAYER
                    .iter()
                    .chain(&TRACE_METRICS)
                    .map(|l| (l.def.name, l.def.unit)),
            )
            .find(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"))
            .1;
        self.metrics.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            rounds: Vec::new(),
            samples: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// A metric that is the median of repeated measurements.
    fn median_of(&mut self, name: &'static str, repeats: Vec<f64>) {
        let value = median(&repeats);
        self.whole(name, value, repeats);
    }

    /// A metric measured over the whole window, with the per-round values
    /// behind it kept for the printed quartiles.
    fn whole(&mut self, name: &'static str, value: f64, per_round: Vec<f64>) {
        self.set(name, value).rounds = per_round;
    }

    /// Give every per-layer metric a value, 0 for the layers the
    /// workload never calls, and order them as they are defined.
    fn complete_layers(&mut self) {
        let order: Vec<&'static str> = PER_LAYER
            .iter()
            .chain(&TRACE_METRICS)
            .map(|l| l.def.name)
            .collect();
        for &name in &order {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.set(name, 0.0);
            }
        }
        self.metrics
            .sort_by_key(|m| order.iter().position(|&n| n == m.name));
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: CHECK FAILED: {msg}");
        }
        self.failures.push(msg);
    }
}

/// Which rounds of a window were disturbed by host steal time.
struct RoundClock {
    target: usize,
    extra: usize,
    steal: Option<(u64, u64)>,
    undisturbed: Vec<bool>,
}

impl RoundClock {
    /// Start the first of `target` rounds; up to `extra` more replace
    /// disturbed ones.
    fn start(target: usize, extra: usize) -> RoundClock {
        RoundClock {
            target,
            extra,
            steal: steal_ticks(),
            undisturbed: Vec::new(),
        }
    }

    /// Close the current round; returns whether another round is needed.
    fn close_round(&mut self) -> bool {
        let now = steal_ticks();
        let disturbed = match (self.steal, now) {
            (Some((s0, t0)), Some((s1, t1))) => {
                (s1 - s0) as f64 > STEAL_LIMIT * (t1 - t0).max(1) as f64
            }
            _ => false,
        };
        self.steal = now;
        self.undisturbed.push(!disturbed);
        let kept = self.undisturbed.iter().filter(|&&k| k).count();
        kept < self.target && self.undisturbed.len() < self.target + self.extra
    }

    /// Rounds the metrics use: the undisturbed ones, or every round when
    /// fewer than a majority of the target stayed undisturbed.
    fn used(&self, report: &mut Report) -> Vec<bool> {
        let kept = self.undisturbed.iter().filter(|&&k| k).count();
        let left_out = self.undisturbed.len() - kept;
        if left_out == 0 {
            return self.undisturbed.clone();
        }
        if kept > self.target / 2 {
            report.notes.push(format!(
                "{left_out} of {} rounds had host steal above {}% and were left out",
                self.undisturbed.len(),
                STEAL_LIMIT * 100.0
            ));
            self.undisturbed.clone()
        } else {
            report.notes.push(format!(
                "{left_out} of {} rounds had host steal above {}%: too many to leave out, all kept",
                self.undisturbed.len(),
                STEAL_LIMIT * 100.0
            ));
            vec![true; self.undisturbed.len()]
        }
    }
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let threads = host_threads();
    let calib = calibration_ms();
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let tmp = TempDir(out_dir.join(format!("tmp-{}-{stamp}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("creating scratch dir: {e}"))?;
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_threads={threads} calibration_ms={calib:.3}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# input digest (first 256 inputs): {:016x}",
        gen::stream_digest(w, args.seed, 256)
    );

    let mut report = Report::default();
    let mut spans: Vec<Span> = Vec::new();
    let bin = if w.is_serve() {
        Some(build_server()?)
    } else {
        None
    };
    let steal0 = steal_ticks();
    match &bin {
        Some(bin) => serve_workload(args, bin, &tmp.0, &mut report, &mut spans)?,
        None => sweep_workload(args, threads, &mut report, &mut spans)?,
    }
    if args.trace {
        report.complete_layers();
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, steal_ticks()) {
        report.notes.push(format!(
            "host steal time during the run: {:.2}% of CPU time",
            (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64
        ));
    }

    let tag = format!("{}-s{}-t{}", w.name(), args.seed, u8::from(args.trace));
    if !spans.is_empty() {
        let path = out_dir.join(format!("spans-{tag}.jsonl"));
        std::fs::write(&path, to_jsonl(&spans)).map_err(|e| format!("writing spans: {e}"))?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    let text = render(args, threads, calib, &report);
    std::fs::write(out_dir.join(format!("result-{tag}.txt")), &text)
        .map_err(|e| format!("writing result: {e}"))?;
    print!("{text}");
    Ok(report)
}

/// The human-readable lines and the final JSON result line.
fn render(args: &Args, threads: usize, calib: f64, r: &Report) -> String {
    let mut out = String::new();
    for m in &r.metrics {
        let _ = write!(out, "metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.rounds.is_empty() {
            let (q1, med, q3) = quartiles(&m.rounds);
            let _ = write!(
                out,
                "  [median {med:.6}, quartiles {q1:.6} .. {q3:.6} over {} repeats]",
                m.rounds.len()
            );
        }
        if let Some(n) = m.samples {
            let _ = write!(out, "  [{n} samples]");
        }
        out.push('\n');
    }
    if args.trace {
        out.push_str(
            "# layer metric -> end-to-end metric it should move (on workload; steady on)\n",
        );
        for l in &PER_LAYER {
            let _ = writeln!(
                out,
                "#   {:<34} -> {} (on {}; steady on {})",
                l.def.name, l.moves, l.on, l.steady_on
            );
        }
    }
    for n in &r.notes {
        let _ = writeln!(out, "# {n}");
    }
    for f in &r.failures {
        let _ = writeln!(out, "# CHECK FAILED: {f}");
    }
    let _ = writeln!(
        out,
        "# host_threads={threads} calibration_ms={calib:.3} checks_failed={}",
        r.failures.len()
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
    out
}

// --- serve workloads -------------------------------------------------------

/// What one closed-loop session against a server produced.
struct ServeSession {
    setup_s: Vec<f64>,
    samples: Vec<Sample>,
    /// Start of the measured window, ns since the epoch.
    window_ns: u64,
    round_ns: u64,
    /// Per round of the window: whether the metrics use it.
    used: Vec<bool>,
    /// Server CPU ms at each round boundary.
    cpu_marks: Vec<f64>,
    rss_mb: f64,
    stats: BTreeMap<&'static str, u64>,
    snapshot_bytes: u64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn serve_session(
    args: &Args,
    bin: &Path,
    tmp: &Path,
    source: &dyn RequestSource,
    window: Duration,
    rounds: usize,
    report: &mut Report,
) -> Result<ServeSession, String> {
    let hot = args.workload == Workload::ServeHot;
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut snapshot = PathBuf::new();
    for k in 0..SETUP_REPS_SERVE {
        let mut sargs = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        if hot {
            // A fresh file per launch: a snapshot left by an earlier
            // server would turn misses into restored hits.
            snapshot = tmp.join(format!("snapshot-{k}.json"));
            sargs.push("--snapshot".into());
            sargs.push(snapshot.display().to_string());
        }
        drop(server.take());
        let (child, t) = ServerChild::launch(bin, &sargs)?;
        setup_s.push(t.as_secs_f64());
        server = Some(child);
    }
    let server = server.expect("at least one launch");
    let pid = server.pid();
    let connections = host_threads().min(2);

    let epoch = Instant::now();
    let window_start = epoch + WARMUP;
    let round = window / rounds as u32;
    let stop = AtomicBool::new(false);
    let (samples, cpu_marks, clock) = std::thread::scope(|s| {
        let clients = s.spawn(|| closed_loop(server.addr, source, connections, epoch, &stop));
        sleep_until(window_start);
        // A single-round session (the traced run) is never extended.
        let extra = if rounds > 1 { EXTRA_ROUNDS } else { 0 };
        let mut clock = RoundClock::start(rounds, extra);
        let mut marks = vec![cpu_ms(pid)];
        loop {
            sleep_until(window_start + round * marks.len() as u32);
            marks.push(cpu_ms(pid));
            if !clock.close_round() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        (
            clients.join().expect("a client thread panicked"),
            marks,
            clock,
        )
    });
    let cpu_marks: Vec<f64> = cpu_marks
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("cannot read the server's CPU time from /proc")?;
    let rss_mb = peak_rss_mb(pid).ok_or("cannot read the server's VmHWM from /proc")?;
    let mut client = Client::connect(server.addr).map_err(|e| format!("stats connection: {e}"))?;
    let mut stats = BTreeMap::new();
    for key in [
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "snapshot_flushes",
        "snapshot_hits",
        "rejected_overload",
        "restored_entries",
    ] {
        stats.insert(
            key,
            client.stat(key).ok_or(format!("stats op lacks {key}"))?,
        );
    }
    drop(client);
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    if !server.shutdown(Duration::from_secs(10)) {
        eprintln!("perfbench: server did not drain in time and was killed");
    }
    Ok(ServeSession {
        setup_s,
        samples,
        window_ns: WARMUP.as_nanos() as u64,
        round_ns: round.as_nanos() as u64,
        used: clock.used(report),
        cpu_marks,
        rss_mb,
        stats,
        snapshot_bytes,
    })
}

/// Parse and check every reply of a session. Returns the parsed replies
/// (`None` for transport failures and error replies).
fn check_session(
    args: &Args,
    source: &dyn RequestSource,
    session: &ServeSession,
    report: &mut Report,
) -> Vec<Option<Reply>> {
    let mut first_bytes: HashMap<String, (u64, String)> = HashMap::new();
    let mut fresh: Vec<(u64, usize)> = Vec::new();
    let mut replies = Vec::with_capacity(session.samples.len());
    for (k, s) in session.samples.iter().enumerate() {
        let reply = match s.reply.as_deref().map(|l| Reply::parse(l, s.index)) {
            None => None,
            Some(Err(e)) => {
                report.fail(e);
                None
            }
            Some(Ok(r)) if !r.ok => None,
            Some(Ok(r)) => Some(r),
        };
        if let Some(r) = &reply {
            match r.served.as_str() {
                "fresh" => fresh.push((gen::mix(args.seed, s.index, 99), k)),
                "cache" => {}
                other => report.fail(format!(
                    "request {} served {other:?}: a cold server must answer fresh or from its own cache",
                    s.index
                )),
            }
            let key = source.request(s.index).key();
            match first_bytes.get(&key) {
                None => {
                    first_bytes.insert(key, (s.index, r.result_bytes.clone()));
                }
                Some((first, bytes)) if *bytes != r.result_bytes => report.fail(format!(
                    "request {} ({}) is not byte-identical to the first answer for its key (request {first})",
                    s.index, r.served
                )),
                Some(_) => {}
            }
        }
        replies.push(reply);
    }
    // A seeded sample of fresh answers goes through the oracles.
    fresh.sort_unstable();
    for &(_, k) in fresh.iter().take(CHECK_FRESH) {
        let s = &session.samples[k];
        let reply = replies[k].as_ref().expect("fresh entries are replies");
        if let Err(e) = check_fresh(&source.request(s.index), reply) {
            report.fail(format!("request {}: {e}", s.index));
        }
    }
    report.notes.push(format!(
        "checked {} replies: {} fresh re-derived through map_nest_reference and Mesh2D::simulate_phase, {} keys byte-compared",
        replies.iter().flatten().count(),
        fresh.len().min(CHECK_FRESH),
        first_bytes.len()
    ));
    replies
}

fn serve_workload(
    args: &Args,
    bin: &Path,
    tmp: &Path,
    report: &mut Report,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let source = gen::source(args.workload, args.seed);
    let seconds = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let session = serve_session(args, bin, tmp, source.as_ref(), seconds, ROUNDS, report)?;
        let replies = check_session(args, source.as_ref(), &session, report);
        serve_end_to_end(args.workload, source.as_ref(), &session, &replies, report);
        return Ok(());
    }
    // Traced run: half the time observing the server from the client,
    // half replaying the same inputs in-process.
    let session = serve_session(args, bin, tmp, source.as_ref(), seconds / 2, 1, report)?;
    let replies = check_session(args, source.as_ref(), &session, report);
    let served_ns = serve_layers(source.as_ref(), seconds / 2, report, spans);
    serve_client_side(&session, &replies, served_ns, report);
    Ok(())
}

fn serve_end_to_end(
    workload: Workload,
    source: &dyn RequestSource,
    session: &ServeSession,
    replies: &[Option<Reply>],
    report: &mut Report,
) {
    let used = &session.used;
    let round_s = session.round_ns as f64 / 1e9;
    let mut per_round: Vec<Vec<f64>> = vec![Vec::new(); used.len()];
    let (mut attempted, mut ok) = (0u64, 0u64);
    for (s, r) in session.samples.iter().zip(replies) {
        if s.done_ns < session.window_ns {
            continue; // warm-up
        }
        attempted += 1;
        if r.is_some() {
            ok += 1;
            // Replies that were in flight when the window closed count
            // in its last round.
            let round = ((s.done_ns - session.window_ns) / session.round_ns) as usize;
            per_round[round.min(used.len() - 1)].push(s.rtt_ns as f64 / 1e6);
        }
    }
    report.attempted = attempted;
    report.failed = attempted - ok;
    // Window-wide figures over the used rounds: a round holds a few
    // hundred ops, too few to even out which expensive requests happen
    // to land in it.
    let cpu = &session.cpu_marks;
    let kept: Vec<usize> = (0..used.len()).filter(|&k| used[k]).collect();
    let all = sorted(
        &kept
            .iter()
            .flat_map(|&k| per_round[k].clone())
            .collect::<Vec<_>>(),
    );
    report.median_of("setup_s", session.setup_s.clone());
    report.whole(
        "throughput_ops_s",
        all.len() as f64 / (round_s * kept.len() as f64),
        kept.iter()
            .map(|&k| per_round[k].len() as f64 / round_s)
            .collect(),
    );
    report.whole(
        "latency_p50_ms",
        quantile(&all, 0.5),
        kept.iter()
            .map(|&k| quantile(&sorted(&per_round[k]), 0.5))
            .collect(),
    );
    report.set("latency_p99_ms", quantile(&all, 0.99)).samples = Some(all.len());
    if all.len() < 1000 {
        report.notes.push(format!(
            "only {} samples: p99 has fewer than ten beyond it",
            all.len()
        ));
    }
    report.set("ok_frac", ok as f64 / attempted.max(1) as f64);
    let round_cpu = |k: usize| cpu[k + 1] - cpu[k];
    report.whole(
        "cpu_ms_per_op",
        kept.iter().map(|&k| round_cpu(k)).sum::<f64>() / all.len().max(1) as f64,
        kept.iter()
            .map(|&k| round_cpu(k) / per_round[k].len().max(1) as f64)
            .collect(),
    );
    report.set("peak_rss_mb", session.rss_mb);
    // Each key of the stream prefix once (only serve_hot repeats keys).
    let prefix = gen::geomean_prefix(workload);
    let mut seen = HashSet::new();
    let (geo, n) = geomean_positive(
        session
            .samples
            .iter()
            .zip(replies)
            .filter(|(s, r)| {
                s.index < prefix && r.is_some() && seen.insert(source.request(s.index).key())
            })
            .filter_map(|(_, r)| r.as_ref()?.field("makespan"))
            .map(|ns| ns as f64 / 1e3),
    );
    report.set("plan_makespan_geomean_us", geo).samples = Some(n);
    if session.samples.len() < prefix as usize {
        report.notes.push(format!(
            "the run ended before the {prefix}-op geomean prefix"
        ));
    }
}

/// Client-observed `serve.*` figures of a traced run; `served_ns` holds
/// the in-process time of the server's own steps per fresh op.
fn serve_client_side(
    session: &ServeSession,
    replies: &[Option<Reply>],
    served_ns: Vec<f64>,
    report: &mut Report,
) {
    let (mut hit, mut fresh) = (Vec::new(), Vec::new());
    let (mut attempted, mut ok) = (0u64, 0u64);
    for (s, r) in session.samples.iter().zip(replies) {
        if s.done_ns < session.window_ns {
            continue;
        }
        attempted += 1;
        if let Some(r) = r {
            ok += 1;
            let us = s.rtt_ns as f64 / 1e3;
            if r.served == "cache" {
                hit.push(us);
            } else {
                fresh.push(us);
            }
        }
    }
    report.attempted = attempted;
    report.failed = attempted - ok;
    let (hit, fresh) = (sorted(&hit), sorted(&fresh));
    report
        .set("serve.rtt_hit_p50_us", quantile(&hit, 0.5))
        .samples = Some(hit.len());
    report
        .set("serve.rtt_hit_p99_us", quantile(&hit, 0.99))
        .samples = Some(hit.len());
    report
        .set("serve.rtt_fresh_p50_us", quantile(&fresh, 0.5))
        .samples = Some(fresh.len());
    report
        .set("serve.rtt_fresh_p99_us", quantile(&fresh, 0.99))
        .samples = Some(fresh.len());
    report.set("serve.cache_hit_ratio", hit.len() as f64 / ok.max(1) as f64);
    let st = &session.stats;
    report.set("serve.evictions", st["cache_evictions"] as f64);
    report.set("serve.snapshot_flushes", st["snapshot_flushes"] as f64);
    report.set("serve.snapshot_bytes", session.snapshot_bytes as f64);
    report.set("serve.rejected_overload", st["rejected_overload"] as f64);
    let compute_p50 = quantile(&sorted(&served_ns), 0.5) / 1e3;
    let gap = if fresh.is_empty() || served_ns.is_empty() {
        0.0
    } else {
        quantile(&fresh, 0.5) - compute_p50
    };
    report.set("serve.gap_fresh_us", gap);
    report.notes.push(format!(
        "serve.gap_fresh_us = fresh round-trip p50 {:.1} us - in-process compute p50 {compute_p50:.1} us \
         (protocol, admission, cache insert, snapshot)",
        quantile(&fresh, 0.5)
    ));
    report.notes.push(format!(
        "server stats: {}",
        st.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Replay the stream in-process on an untraced and a traced state;
/// record the per-layer metrics and return the per-fresh-op time of the
/// server's own steps.
fn serve_layers(
    source: &dyn RequestSource,
    budget: Duration,
    report: &mut Report,
    spans: &mut Vec<Span>,
) -> Vec<f64> {
    // Each op runs once on an untraced and once on a traced replay state,
    // alternating which goes first, so drift and warm caches fall evenly
    // on both sides of the overhead comparison.
    let epoch = Instant::now();
    let mut untraced = ServeReplay::new(Trace::new(false, epoch));
    let mut traced = ServeReplay::new(Trace::new(true, epoch));
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    let mut n = 0u64;
    while n < MAX_REPLAY_OPS && epoch.elapsed() < budget {
        let req = source.request(n);
        for side in [n % 2, 1 - n % 2] {
            let (state, total) = if side == 0 {
                (&mut untraced, &mut untraced_ns)
            } else {
                (&mut traced, &mut traced_ns)
            };
            let t0 = Instant::now();
            state.op(n, &req);
            *total += t0.elapsed().as_nanos() as f64;
        }
        n += 1;
    }
    report.notes.push(format!(
        "in-process replay: {n} ops, {:.1} ms untraced, {:.1} ms traced",
        untraced_ns / 1e6,
        traced_ns / 1e6
    ));

    let c = &traced.counters;
    let layers = by_layer(&traced.trace.spans);
    let busy = |k: &str| layers.get(k).map_or(0.0, |l| l.busy_ms());
    let pct = |k: &str, q: f64| {
        layers
            .get(k)
            .map_or(0.0, |l| quantile(&sorted(&l.dur_ns), q) / 1e3)
    };
    report.set("loopnest.parse_busy_ms", busy("loopnest.parse"));
    report.set("loopnest.parse_p50_us", pct("loopnest.parse", 0.5));
    report.set("loopnest.parse_bytes", c.get("loopnest.parse_bytes"));
    report.set("accessgraph.build_busy_ms", busy("accessgraph.build"));
    report.set(
        "accessgraph.branching_busy_ms",
        busy("accessgraph.branching"),
    );
    report.set("accessgraph.augment_busy_ms", busy("accessgraph.augment"));
    report.set("accessgraph.edges", c.get("accessgraph.edges"));
    report.set("alignment.busy_ms", busy("alignment"));
    report.set("alignment.residuals", c.get("alignment.residuals"));
    report.set("pipeline.map_busy_ms", busy("pipeline.map"));
    report.set("pipeline.map_p50_us", pct("pipeline.map", 0.5));
    report.set("pipeline.map_p99_us", pct("pipeline.map", 0.99));
    report.set(
        "pipeline.analysis_cache_entries",
        traced.analysis_cache_entries() as f64,
    );
    report.set(
        "pipeline.outcome_general",
        c.get("pipeline.outcome_general"),
    );
    report.set(
        "pipeline.outcome_decomposed",
        c.get("pipeline.outcome_decomposed"),
    );
    report.set("pipeline.incidents", c.get("pipeline.incidents"));
    report.set("plan.build_busy_ms", busy("plan.build"));
    report.set("plan.build_p50_us", pct("plan.build", 0.5));
    report.set("plan.build_p99_us", pct("plan.build", 0.99));
    report.set("plan.messages", c.get("plan.messages"));
    report.set("plan.phases", c.get("plan.phases"));
    report.set("plan.affine_phases", c.get("plan.affine_phases"));
    report.set("json.plan_render_busy_ms", busy("json.plan_render"));
    report.set("json.plan_bytes", c.get("json.plan_bytes"));
    report.set("json.parse_busy_ms", busy("json.parse"));
    report.set("distribution.fold_busy_ms", busy("distribution.fold"));
    report.set("distribution.fold_p50_us", pct("distribution.fold", 0.5));
    report.set(
        "distribution.physical_msgs",
        c.get("distribution.physical_msgs"),
    );
    let sim_msgs = c.get("machine.sim_msgs");
    report.set("machine.sim_busy_ms", busy("machine.sim"));
    report.set(
        "machine.sim_ns_per_msg",
        busy("machine.sim") * 1e6 / sim_msgs.max(1.0),
    );
    trace_bookkeeping(&traced.trace.spans, untraced_ns, traced_ns, report);
    report.notes.push(lead_layers(&traced.trace.spans));

    // Per fresh op: time of the steps the server itself runs.
    let mut served: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &traced.trace.spans {
        if SERVED_STEPS.contains(&s.name) {
            *served.entry(s.op).or_insert(0.0) += (s.end - s.start) as f64;
        }
    }
    *spans = std::mem::take(&mut traced.trace.spans);
    served.into_values().collect()
}

/// `trace.coverage` and `trace.overhead_pct`, flagging coverage below
/// the 90% ledger gate.
fn trace_bookkeeping(spans: &[Span], untraced_ns: f64, traced_ns: f64, report: &mut Report) {
    let cov = coverage(spans);
    report.set("trace.coverage", cov);
    report.set(
        "trace.overhead_pct",
        (traced_ns / untraced_ns.max(1.0) - 1.0) * 100.0,
    );
    if cov < 0.9 {
        report.notes.push(format!(
            "FLAG: layer self times cover {:.1}% of op wall time, below the 90% ledger gate",
            cov * 100.0
        ));
    }
}

/// Layer groups the workloads were chosen to load.
const LAYER_GROUPS: [(&str, &[&str]); 5] = [
    (
        "parse+analysis",
        &[
            "json.parse",
            "loopnest.parse",
            "accessgraph.build",
            "accessgraph.branching",
            "accessgraph.augment",
            "alignment",
            "pipeline.map",
        ],
    ),
    (
        "plan+json",
        &["plan.build", "json.plan_render", "json.result_render"],
    ),
    ("fold+simulate", &["distribution.fold", "machine.sim"]),
    (
        "compile+replay",
        &[
            "machine.compile",
            "machine.fault_replay",
            "machine.recovery_replay",
        ],
    ),
    ("plan cache", &["serve.cache"]),
];

/// The layers and layer groups by self time, largest first, as a
/// printable line.
fn lead_layers(spans: &[Span]) -> String {
    let layers = by_layer(spans);
    let mut v: Vec<(&str, f64)> = layers
        .iter()
        .filter(|(k, _)| **k != "op")
        .map(|(k, l)| (*k, l.busy_ms()))
        .collect();
    let total: f64 = v.iter().map(|(_, ms)| ms).sum::<f64>().max(1e-9);
    let mut groups: Vec<(&str, f64)> = LAYER_GROUPS
        .iter()
        .map(|(g, names)| {
            (
                *g,
                v.iter()
                    .filter(|(k, _)| names.contains(k))
                    .map(|(_, ms)| ms)
                    .sum(),
            )
        })
        .filter(|&(_, ms)| ms > 0.0)
        .collect();
    let shares = |v: &mut Vec<(&str, f64)>| {
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.iter()
            .map(|(k, ms)| format!("{k} {:.1}%", ms / total * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "layer self-time shares: {}\n# layer group shares: {}",
        shares(&mut v),
        shares(&mut groups)
    )
}

// --- sweep workload --------------------------------------------------------

fn sweep_workload(
    args: &Args,
    workers: usize,
    report: &mut Report,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut bank = Vec::new();
    for _ in 0..SETUP_REPS_SWEEP {
        let t0 = Instant::now();
        bank = build_bank(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let epoch = Instant::now();
    let seconds = Duration::from_secs_f64(args.seconds);
    // Warm-up: spawns the pool threads and faults in the allocator.
    let mut outs = run_window(&bank, args.seed, 0, workers, WARMUP);
    let warm = outs.len();

    if !args.trace {
        let pid = std::process::id();
        let proc_err = "cannot read this process's CPU time from /proc";
        // Per round: its studies, wall seconds and CPU ms.
        let mut rounds: Vec<(Vec<StudyOut>, f64, f64)> = Vec::new();
        let mut clock = RoundClock::start(ROUNDS, EXTRA_ROUNDS);
        loop {
            let c0 = cpu_ms(pid).ok_or(proc_err)?;
            let t0 = Instant::now();
            let first = (warm + rounds.iter().map(|r| r.0.len()).sum::<usize>()) as u64;
            let round = run_window(&bank, args.seed, first, workers, seconds / ROUNDS as u32);
            let dt = t0.elapsed().as_secs_f64();
            rounds.push((round, dt, cpu_ms(pid).ok_or(proc_err)? - c0));
            if !clock.close_round() {
                break;
            }
        }
        let used = clock.used(report);
        let kept: Vec<&(Vec<StudyOut>, f64, f64)> = rounds
            .iter()
            .zip(&used)
            .filter(|(_, &u)| u)
            .map(|(r, _)| r)
            .collect();
        let lat =
            |r: &[StudyOut]| sorted(&r.iter().map(|o| o.wall_ns as f64 / 1e6).collect::<Vec<_>>());
        let window = sorted(&kept.iter().flat_map(|r| lat(&r.0)).collect::<Vec<_>>());
        let elapsed: f64 = kept.iter().map(|r| r.1).sum();
        let cpu_total: f64 = kept.iter().map(|r| r.2).sum();
        let tput: Vec<f64> = kept.iter().map(|r| r.0.len() as f64 / r.1).collect();
        let p50: Vec<f64> = kept.iter().map(|r| quantile(&lat(&r.0), 0.5)).collect();
        let cpu: Vec<f64> = kept.iter().map(|r| r.2 / r.0.len().max(1) as f64).collect();
        outs.extend(rounds.into_iter().flat_map(|r| r.0));
        let n = window.len() as f64;
        report.attempted = window.len() as u64;
        report.failed = 0;
        report.median_of("setup_s", setup_s);
        report.whole("throughput_ops_s", n / elapsed, tput);
        report.whole("latency_p50_ms", quantile(&window, 0.5), p50);
        report
            .set("latency_p99_ms", quantile(&window, 0.99))
            .samples = Some(window.len());
        if window.len() < 1000 {
            report.notes.push(format!(
                "only {} samples: p99 has fewer than ten beyond it",
                window.len()
            ));
        }
        report.set("ok_frac", 1.0);
        report.whole("cpu_ms_per_op", cpu_total / n.max(1.0), cpu);
        let rss = peak_rss_mb(pid).ok_or("cannot read this process's VmHWM from /proc")?;
        report.set("peak_rss_mb", rss);
        let (geo, n) = geomean_positive(
            outs.iter()
                .filter(|o| o.index < gen::geomean_prefix(Workload::SweepFaults))
                .map(|o| o.clean_makespan as f64 / 1e3),
        );
        report.set("plan_makespan_geomean_us", geo).samples = Some(n);
    } else {
        // Untraced and traced batches of the same studies, alternating
        // which runs first (see `serve_layers`).
        let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
        let (mut traced, mut pool) = (Vec::new(), PoolTotals::default());
        let t0 = Instant::now();
        let mut next = outs.len() as u64;
        let mut odd = false;
        while t0.elapsed() < seconds {
            let specs = batch_specs(args.seed, next, workers);
            next += specs.len() as u64;
            for trace_on in [odd, !odd] {
                let t1 = Instant::now();
                let (res, rep) = run_batch(&bank, &specs, workers, trace_on, epoch);
                let ns = t1.elapsed().as_nanos() as f64;
                if trace_on {
                    traced_ns += ns;
                    pool.absorb(&rep);
                    traced.extend(res);
                } else {
                    untraced_ns += ns;
                    outs.extend(res);
                }
            }
            odd = !odd;
        }
        report.attempted = traced.len() as u64;
        report.notes.push(format!(
            "in-process studies: {}, {:.1} ms untraced, {:.1} ms traced",
            traced.len(),
            untraced_ns / 1e6,
            traced_ns / 1e6
        ));
        sweep_layers(&traced, pool, untraced_ns, traced_ns, report, spans);
    }
    check_sweep(args, &bank, &outs, report);
    Ok(())
}

fn sweep_layers(
    outs: &[StudyOut],
    pool: PoolTotals,
    untraced_ns: f64,
    traced_ns: f64,
    report: &mut Report,
    spans: &mut Vec<Span>,
) {
    // Re-index the per-study span buffers into one.
    for o in outs {
        let base = spans.len() as u32;
        spans.extend(o.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }
    let layers = by_layer(spans);
    let busy = |k: &str| layers.get(k).map_or(0.0, |l| l.busy_ms());
    let pct = |k: &str, q: f64| {
        layers
            .get(k)
            .map_or(0.0, |l| quantile(&sorted(&l.dur_ns), q) / 1e3)
    };
    let sum = |f: &dyn Fn(&StudyOut) -> f64| outs.iter().map(f).sum::<f64>();
    report.set("plan.build_busy_ms", busy("plan.build"));
    report.set("plan.build_p50_us", pct("plan.build", 0.5));
    report.set("plan.build_p99_us", pct("plan.build", 0.99));
    report.set("plan.messages", sum(&|o| o.messages as f64));
    report.set("plan.phases", sum(&|o| o.phases as f64));
    report.set("plan.affine_phases", sum(&|o| o.affine_phases as f64));
    let msgs = sum(&|o| o.physical_msgs as f64);
    report.set("distribution.fold_busy_ms", busy("distribution.fold"));
    report.set("distribution.fold_p50_us", pct("distribution.fold", 0.5));
    report.set("distribution.physical_msgs", msgs);
    report.set("machine.sim_busy_ms", busy("machine.sim"));
    report.set(
        "machine.sim_ns_per_msg",
        busy("machine.sim") * 1e6 / msgs.max(1.0),
    );
    report.set("machine.compile_busy_ms", busy("machine.compile"));
    report.set("machine.fault_replay_busy_ms", busy("machine.fault_replay"));
    report.set(
        "machine.recovery_replay_busy_ms",
        busy("machine.recovery_replay"),
    );
    let attempts = sum(&|o| o.totals.attempts as f64);
    report.set("machine.attempts", attempts);
    report.set("machine.retries", sum(&|o| o.totals.retries as f64));
    report.set(
        "machine.rollbacks",
        sum(&|o| o.totals.recovery.rollbacks as f64),
    );
    report.set(
        "machine.delivered_per_attempt",
        sum(&|o| o.totals.delivered as f64) / attempts.max(1.0),
    );
    report.set("pool.workers_used", pool.workers_used as f64);
    report.set("pool.tasks", pool.tasks as f64);
    report.set("pool.steals", pool.steals as f64);
    trace_bookkeeping(spans, untraced_ns, traced_ns, report);
    report.notes.push(lead_layers(spans));
}

fn check_sweep(args: &Args, bank: &[BankEntry], outs: &[StudyOut], report: &mut Report) {
    let mut order: Vec<(u64, usize)> = outs
        .iter()
        .enumerate()
        .map(|(k, o)| (gen::mix(args.seed, o.index, 98), k))
        .collect();
    order.sort_unstable();
    for &(_, k) in order.iter().take(CHECK_STUDIES) {
        let o = &outs[k];
        if let Err(e) = check_study(bank, &gen::study(args.seed, o.index), o) {
            report.fail(e);
        }
    }
    if let Some(o) = outs.iter().find(|o| o.phases == 0) {
        report.fail(format!("study {} ran a plan without phases", o.index));
    }
    report.notes.push(format!(
        "bank: {} mapped nests with phases; checked {} of {} studies against the per-call simulators",
        bank.len(),
        CHECK_STUDIES.min(outs.len()),
        outs.len()
    ));
}
