//! `perfbench` — host wall-time benchmark of the Otter workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vector-p1|dense-p4|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates seeded scripts, drives each layer's public functions from
//! outside, checks every result against `otter-interp`, and prints
//! every metric with its unit and clock. With `--trace 0` it measures
//! the end-to-end metrics; with `--trace 1` it records spans around
//! every layer call, writes them under `perfbench/out/`, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 1 when any operation failed or gave a wrong result, 2 on a
//! usage error. `metadata.json` describes every workload and metric.

mod calib;
mod gen;
mod library;
mod probes;
mod serve;
mod stats;
mod trace;

use gen::{Requests, Sizes, Workload};
use library::{compile_pass, interp_pass, nproc, run_pass, Prepared, Tally};
use otter_core::{compile, EngineOptions};
use otter_metrics::Json;
use otter_serve::ServeClient;
use stats::{geomean, median, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Passes a loop makes even when its time is up.
const MIN_PASSES: usize = 3;
const METADATA: &str = include_str!("../metadata.json");

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload vector-p1|dense-p4|serve-mix --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `VmHWM` from a `/proc/<pid>/status` file, in bytes.
pub fn peak_rss_bytes(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Metric values of one run plus lines printed alongside them.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<String, f64>,
    /// Unscaled wall value of each calibration-scaled metric.
    raw: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A wall-time metric: the calibration-scaled value, with the raw
    /// one kept for the human-readable table.
    fn set_scaled(&mut self, name: &str, scaled: f64, raw: f64) {
        self.set(name, scaled);
        self.raw.insert(name.to_string(), raw);
    }
}

/// Threads a workload's calibration runs on: as many as its runs keep
/// busy.
fn cal_threads(w: Workload) -> usize {
    match w {
        Workload::VectorP1 => 1,
        Workload::DenseP4 | Workload::ServeMix => nproc(),
    }
}

/// The passes one library loop made; index `i` of every list belongs
/// to round `i`.
#[derive(Default)]
struct Passes {
    compile: Vec<library::CompilePass>,
    run: Vec<library::RunPass>,
    interp: Vec<library::InterpPass>,
    /// Calibration sampled before each round.
    cal: Vec<calib::Sample>,
    /// Trace runs only: untraced and metrics-on run passes.
    untraced: Vec<f64>,
    metrics_on: Vec<f64>,
}

/// Run compile, otter and interpreter passes back to back until
/// `deadline`, alternating which engine goes first. A traced loop also
/// makes an untraced and a metrics-on run pass each round.
fn library_loop(
    prep: &Prepared,
    deadline: Instant,
    cal_threads: usize,
    tracer: &Tracer,
    tally: &Tally,
) -> Passes {
    let quiet = Tracer::new(false);
    let metrics_on: Vec<_> = if tracer.enabled() {
        let opts = EngineOptions::builder().metrics(true).build();
        prep.scripts
            .iter()
            .map(|s| compile(&s.source, &opts).expect("script compiled at set-up"))
            .collect()
    } else {
        Vec::new()
    };
    let mut p = Passes::default();
    let mut round = 0;
    while round < MIN_PASSES || Instant::now() < deadline {
        p.cal.push(calib::sample(cal_threads));
        tracer.span("pass", tracer.op(), None, |parent| {
            p.compile.push(compile_pass(prep, tracer, parent, tally));
            let run_first = round % 2 == 0;
            if run_first {
                p.run
                    .push(run_pass(prep, &prep.artifacts, tracer, parent, tally));
            }
            p.interp.push(interp_pass(prep, tracer, parent, tally));
            if !run_first {
                p.run
                    .push(run_pass(prep, &prep.artifacts, tracer, parent, tally));
            }
        });
        if tracer.enabled() {
            p.untraced
                .push(run_pass(prep, &prep.artifacts, &quiet, None, tally).seconds);
            // One span per pass for the otter-metrics layer: the runs
            // inside stay untraced so the ratio compares like with like.
            let metered = tracer.span("obs.metrics_on", tracer.op(), None, |_| {
                run_pass(prep, &metrics_on, &quiet, None, tally)
            });
            p.metrics_on.push(metered.seconds);
        }
        round += 1;
    }
    p
}

/// `setup_s`: the median of [`SETUP_REPEATS`] set-ups, each scaled by
/// a calibration taken just before it. Returns `(scaled, raw)`.
fn setups(
    mut once: impl FnMut() -> Result<f64, String>,
    cal_threads: usize,
) -> Result<(f64, f64), String> {
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let cal = calib::sample_median(cal_threads, 3);
        let t = once()?;
        raw.push(t);
        scaled.push(t * calib::NOMINAL_S / cal.parallel);
    }
    Ok((median(&scaled), median(&raw)))
}

fn seconds_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    xs.iter().map(f).collect()
}

fn scale(xs: &[f64], factors: &[f64]) -> Vec<f64> {
    xs.iter().zip(factors).map(|(x, f)| x * f).collect()
}

/// Per-script samples: `rows[pass][script]`, each pass scaled by its
/// factor, as `[script][pass]`.
fn scaled_columns<'a>(rows: impl Iterator<Item = &'a Vec<f64>>, f: &[f64]) -> Vec<Vec<f64>> {
    let rows: Vec<Vec<f64>> = rows
        .zip(f)
        .map(|(xs, k)| xs.iter().map(|x| x * k).collect())
        .collect();
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect()
}

/// Scale factors of each round: `(single, parallel)`. Compiling and
/// interpreting run on one thread; otter runs on the workload's.
fn round_factors(cal: &[calib::Sample]) -> (Vec<f64>, Vec<f64>) {
    (
        calib::factors(&seconds_of(cal, |c| c.single)),
        calib::factors(&seconds_of(cal, |c| c.parallel)),
    )
}

/// End-to-end metrics of a library loop.
fn library_e2e(o: &mut Outcome, p: &Passes) {
    let (single, f) = round_factors(&p.cal);
    let run = seconds_of(&p.run, |r| r.seconds);
    let interp = seconds_of(&p.interp, |r| r.seconds);
    let compile = seconds_of(&p.compile, |c| c.seconds);
    let t = tail(&scale(&run, &f));
    o.set_scaled(
        "compile_s",
        median(&scale(&compile, &single)),
        median(&compile),
    );
    o.set_scaled("run_s", median(&scale(&run, &f)), median(&run));
    o.set_scaled("run_tail_s", t.value, tail(&run).value);
    o.set_scaled(
        "interp_s",
        median(&scale(&interp, &single)),
        median(&interp),
    );
    // The host ratio the paper's figures plot, unscaled: both engines
    // run in the same rounds, so a drift common to them cancels.
    let ones = vec![1.0; p.cal.len()];
    let interp = scaled_columns(p.interp.iter().map(|r| &r.per_script), &ones);
    let otter = scaled_columns(p.run.iter().map(|r| &r.per_script), &ones);
    let ratios: Vec<f64> = interp
        .iter()
        .zip(&otter)
        .map(|(i, r)| median(i) / median(r))
        .collect();
    o.set("speedup_vs_interp", geomean(&ratios));
    o.set("modeled_s", p.run[0].counts.modeled_s);
    o.notes.push(format!(
        "run_tail_s is p{:.1} of {} passes",
        t.percentile, t.samples
    ));
}

/// The library workloads' job metrics: a job is one `run` call.
fn library_jobs(o: &mut Outcome, p: &Passes) {
    let (_, f) = round_factors(&p.cal);
    let ones = vec![1.0; p.cal.len()];
    let otter = scaled_columns(p.run.iter().map(|r| &r.per_script), &f);
    let raw = scaled_columns(p.run.iter().map(|r| &r.per_script), &ones);
    let jobs: usize = otter.iter().map(Vec::len).sum();
    let busy: f64 = scale(&seconds_of(&p.run, |r| r.seconds), &f).iter().sum();
    let raw_busy: f64 = p.run.iter().map(|r| r.seconds).sum();
    let medians = |cols: &[Vec<f64>]| geomean(&cols.iter().map(|s| median(s)).collect::<Vec<_>>());
    o.set_scaled("jobs_per_s", jobs as f64 / busy, jobs as f64 / raw_busy);
    o.set_scaled("job_s", medians(&otter), medians(&raw));
}

/// `job_tail_s` (per-layer, raw wall): the geometric mean over scripts
/// of each script's tail run wall.
fn library_job_tail(o: &mut Outcome, p: &Passes) {
    let ones = vec![1.0; p.cal.len()];
    let cols = scaled_columns(p.run.iter().map(|r| &r.per_script), &ones);
    let tails: Vec<f64> = cols.iter().map(|s| tail(s).value).collect();
    o.set("job_tail_s", geomean(&tails));
    o.notes.push(format!(
        "job_tail_s is the geometric mean of per-script p{:.1} of {} runs",
        tail(&cols[0]).percentile,
        cols[0].len()
    ));
}

fn self_rss() -> f64 {
    peak_rss_bytes("/proc/self/status").map_or(f64::NAN, |b| b as f64)
}

/// Per-layer metrics of a traced library loop (unscaled wall).
fn library_layers(o: &mut Outcome, prep: &Prepared, p: &Passes, launch: &BTreeMap<usize, f64>) {
    let c = &p.run[0].counts;
    o.set(
        "frontend.parse_s",
        median(&seconds_of(&p.compile, |c| c.parse_s)),
    );
    // A pass the pipeline no longer runs costs nothing.
    for spec in metric_specs(true) {
        if let Some(pass) = spec
            .name
            .strip_prefix("pass.")
            .and_then(|m| m.strip_suffix("_s"))
        {
            let wall = seconds_of(&p.compile, |c| c.pass_s.get(pass).copied().unwrap_or(0.0));
            o.set(spec.name.clone(), median(&wall));
        }
    }
    o.set("pass.ir_instrs", p.compile[0].ir_instrs as f64);
    o.set("exec.ops", c.ops as f64);
    let launch_total: f64 = prep.scripts.iter().map(|s| launch[&s.ranks]).sum();
    let per_op = seconds_of(&p.run, |r| {
        (r.seconds - launch_total) / r.counts.ops as f64 * 1e6
    });
    o.set("exec.us_per_op", median(&per_op));
    o.set("rt.peak_temp_bytes", c.peak_temp_bytes as f64);
    o.set("mpi.messages", c.messages as f64);
    o.set(
        "mpi.idle_share",
        if c.clock_s > 0.0 {
            c.idle_s / c.clock_s
        } else {
            0.0
        },
    );
    o.set("comm_bytes", c.comm_bytes as f64);
    let interp_per_op = seconds_of(&p.interp, |r| r.seconds / r.ops as f64 * 1e6);
    o.set("interp.us_per_op", median(&interp_per_op));
    o.set(
        "obs.metrics_on_ratio",
        median(&p.metrics_on) / median(&p.untraced),
    );
}

/// Probes shared by every workload. Returns `mpi.launch_s` per rank
/// count.
fn probe_layers(
    o: &mut Outcome,
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    tally: &Tally,
) -> BTreeMap<usize, f64> {
    let sizes = Sizes::draw(seed);
    o.set("rt.matmul_gflops", probes::matmul_gflops(&sizes, tracer));
    o.set("rt.matvec_gflops", probes::matvec_gflops(&sizes, tracer));
    o.set("rt.ew_gelem_per_s", probes::ew_gelem_per_s(&sizes, tracer));
    o.set("mpi.allreduce_s", probes::allreduce_s(tracer));
    o.set(
        "mpi.ring_gbytes_per_s",
        probes::ring_gbytes_per_s(&sizes, tracer),
    );
    o.set(
        "exec.gather_s",
        probes::gather_s(&sizes, w.probe_ranks(), tracer, tally),
    );
    let launch: BTreeMap<usize, f64> = [1, 2, 4]
        .into_iter()
        .map(|p| (p, probes::launch_s(p, tracer)))
        .collect();
    o.set("mpi.launch_s", launch[&w.probe_ranks()]);
    launch
}

/// serve.* metrics from a set of replies.
fn serve_layers(o: &mut Outcome, replies: &[serve::Reply]) {
    let hits = replies.iter().filter(|r| r.cache_hit).count();
    let misses: Vec<f64> = replies
        .iter()
        .filter(|r| !r.cache_hit)
        .map(|r| r.compile_s)
        .collect();
    o.set(
        "serve.cache_hit_ratio",
        hits as f64 / replies.len().max(1) as f64,
    );
    o.set("serve.compile_miss_s", median(&misses));
    o.set(
        "serve.daemon_run_s",
        median(&seconds_of(replies, |r| r.run_s)),
    );
    o.set(
        "serve.overhead_s",
        median(&seconds_of(replies, |r| r.overhead_s())),
    );
}

/// Start otterd and connect `clients` sessions.
fn start_serving(clients: usize) -> Result<(serve::Daemon, Vec<ServeClient>), String> {
    let mut daemon = serve::Daemon::start(&out_dir())?;
    let sessions = (0..clients)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, sessions))
}

fn stop_serving(daemon: serve::Daemon, mut sessions: Vec<ServeClient>) -> Result<(), String> {
    daemon.stop(&mut sessions[0])
}

/// Library workloads in the traced run: each script sent twice (a miss
/// then a hit) to a fresh otterd.
fn serve_probe(
    prep: &Prepared,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Vec<serve::Reply>, String> {
    let (daemon, mut sessions) = start_serving(1)?;
    let mut replies = Vec::new();
    for _ in 0..2 {
        for (s, r) in prep.scripts.iter().zip(&prep.reference) {
            replies.push(serve::request(&mut sessions[0], s, r, tracer, tally)?);
        }
    }
    stop_serving(daemon, sessions)?;
    Ok(replies)
}

fn library_workload(a: &Args, tally: &Tally) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut prep = Prepared::new(a.workload.scripts(a.seed))?;
    let threads = cal_threads(a.workload);
    let (setup, raw_setup) = setups(|| prep.setup(tally), threads)?;
    let tracer = Tracer::new(a.trace);
    if !a.trace {
        let p = library_loop(&prep, deadline(a.seconds), threads, &tracer, tally);
        library_e2e(&mut o, &p);
        library_jobs(&mut o, &p);
        o.set_scaled("setup_s", setup, raw_setup);
        o.set("peak_rss_bytes", self_rss());
        return Ok(o);
    }
    let p = library_loop(&prep, deadline(a.seconds * 0.75), threads, &tracer, tally);
    let launch = probe_layers(&mut o, a.workload, a.seed, &tracer, tally);
    library_layers(&mut o, &prep, &p, &launch);
    library_job_tail(&mut o, &p);
    o.set(
        "trace_overhead",
        median(&seconds_of(&p.run, |r| r.seconds)) / median(&p.untraced) - 1.0,
    );
    let replies = serve_probe(&prep, &tracer, tally)?;
    serve_layers(&mut o, &replies);
    write_spans(&mut o, a, &tracer)?;
    Ok(o)
}

/// Length of one serve phase: clients pause between phases for a
/// calibration, and trace runs alternate untraced and traced phases.
const SERVE_PHASE: Duration = Duration::from_millis(500);

fn serve_workload(a: &Args, tally: &Tally) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut prep = Prepared::new(a.workload.scripts(a.seed))?;
    let threads = cal_threads(a.workload);
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(a.trace);
    // The pool through the library first, for compile, run and
    // interpreter figures, while the process is as fresh as a library
    // workload's (this set-up is not part of setup_s).
    prep.setup(tally)?;
    let lib_end = deadline(a.seconds * if a.trace { 0.35 } else { 0.4 });
    let p = library_loop(&prep, lib_end, threads, &tracer, tally);

    // Set-up: spawn, bind and connect, then one warm-up request per
    // source, least popular first so the hot sources end up cached.
    let mut running = None;
    let (setup, raw_setup) = setups(
        || {
            if let Some((daemon, sessions)) = running.take() {
                stop_serving(daemon, sessions)?;
            }
            let t0 = Instant::now();
            let (daemon, mut sessions) = start_serving(nproc())?;
            for slot in (0..prep.scripts.len()).rev() {
                let (s, r) = (&prep.scripts[slot], &prep.reference[slot]);
                serve::request(&mut sessions[0], s, r, &quiet, tally)?;
            }
            let t = t0.elapsed().as_secs_f64();
            running = Some((daemon, sessions));
            Ok(t)
        },
        threads,
    )?;
    let (daemon, mut sessions) = running.expect("at least one set-up");

    let mut orders: Vec<_> = (0..sessions.len())
        .map(|c| Requests::new(a.seed, c))
        .collect();
    let end = deadline(a.seconds * if a.trace { 0.4 } else { 0.6 });
    // (phase, reply) pairs; calibration and wall time per phase.
    let (mut replies, mut cal, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    while cal.len() < MIN_PASSES || Instant::now() < end {
        let phase = cal.len();
        cal.push(calib::sample(threads).parallel);
        let traced = a.trace && phase % 2 == 1;
        let t0 = Instant::now();
        let got = serve::closed_loop(
            &mut sessions,
            &mut orders,
            &prep.scripts,
            &prep.reference,
            t0 + SERVE_PHASE,
            if traced { &tracer } else { &quiet },
            tally,
        )?;
        wall.push(t0.elapsed().as_secs_f64());
        replies.extend(got.into_iter().map(|r| (phase, r)));
    }
    let rss = daemon.peak_rss_bytes().map_or(f64::NAN, |b| b as f64);
    stop_serving(daemon, sessions)?;

    if !a.trace {
        let f = calib::factors(&cal);
        let rt: Vec<f64> = replies
            .iter()
            .map(|(k, r)| r.round_trip_s * f[*k])
            .collect();
        let raw_rt: Vec<f64> = replies.iter().map(|(_, r)| r.round_trip_s).collect();
        let busy: f64 = scale(&wall, &f).iter().sum();
        library_e2e(&mut o, &p);
        o.set_scaled("setup_s", setup, raw_setup);
        o.set("peak_rss_bytes", rss);
        let n = replies.len() as f64;
        o.set_scaled("jobs_per_s", n / busy, n / wall.iter().sum::<f64>());
        o.set_scaled("job_s", median(&rt), median(&raw_rt));
        return Ok(o);
    }
    let launch = probe_layers(&mut o, a.workload, a.seed, &tracer, tally);
    library_layers(&mut o, &prep, &p, &launch);
    let only: Vec<serve::Reply> = replies.iter().map(|(_, r)| r.clone()).collect();
    serve_layers(&mut o, &only);
    let t = tail(&seconds_of(&only, |r| r.round_trip_s));
    o.set("job_tail_s", t.value);
    o.notes.push(format!(
        "job_tail_s is p{:.1} of {} requests",
        t.percentile, t.samples
    ));
    let rt = |parity: usize| {
        let v: Vec<f64> = replies
            .iter()
            .filter(|(k, _)| k % 2 == parity)
            .map(|(_, r)| r.round_trip_s)
            .collect();
        median(&v)
    };
    o.set("trace_overhead", rt(1) / rt(0) - 1.0);
    write_spans(&mut o, a, &tracer)?;
    Ok(o)
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Write the spans file and print the per-layer self-time table.
fn write_spans(o: &mut Outcome, a: &Args, tracer: &Tracer) -> Result<(), String> {
    let spans = tracer.spans();
    let layers = trace::self_times(&spans);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
    std::fs::write(&path, trace::to_json(&spans, &layers).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    o.notes.push(format!(
        "spans: {} written to {}",
        spans.len(),
        path.display()
    ));
    o.notes.push(format!(
        "{:<24} {:>8} {:>12} {:>12}",
        "layer", "spans", "total_s", "self_s"
    ));
    for (name, t) in &layers {
        o.notes.push(format!(
            "{name:<24} {:>8} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        ));
    }
    Ok(())
}

/// One metric as `metadata.json` describes it.
struct Spec {
    name: String,
    unit: String,
    clock: String,
    better: String,
}

/// Every metric the run must print, in metadata order.
fn metric_specs(trace: bool) -> Vec<Spec> {
    let meta = Json::parse(METADATA).expect("metadata.json parses");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Obj(metrics)) = meta.get(section) else {
        panic!("metadata.json has no `{section}` object");
    };
    metrics
        .iter()
        .map(|(name, spec)| {
            let field = |k: &str| {
                spec.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metadata.json: `{name}` has no `{k}`"))
                    .to_string()
            };
            Spec {
                name: name.clone(),
                unit: field("unit"),
                clock: field("clock"),
                better: field("better"),
            }
        })
        .collect()
}

/// Print the metric table and return the final line: exactly the
/// metrics `metadata.json` lists for this mode.
fn report(o: &Outcome, trace: bool, tally: &Tally) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for m in metric_specs(trace) {
        let value = *o
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        let raw = o
            .raw
            .get(&m.name)
            .map_or(String::new(), |r| format!("  (raw wall {r:.6})"));
        println!(
            "{:<24} {value:>16.6} {:<8} {:<8} {} is better{raw}",
            m.name, m.unit, m.clock, m.better
        );
        metrics.push((
            m.name,
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit)),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed() == 0)),
        ("attempted".into(), Json::Num(tally.attempted() as f64)),
        ("failed".into(), Json::Num(tally.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// `--daemon <otterd flags>`: run otterd in this process.
fn daemon(args: &[String]) -> ExitCode {
    let served = otter_serve::ServeConfig::from_args(args)
        .and_then(|cfg| otter_serve::Server::bind(cfg).map_err(|e| format!("bind: {e}")))
        .and_then(|server| server.run().map_err(|e| format!("accept loop: {e}")));
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench --daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--daemon") {
        return daemon(&argv[1..]);
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc()
    );
    let tally = Tally::default();
    let outcome = match a.workload {
        Workload::ServeMix => serve_workload(&a, &tally),
        _ => library_workload(&a, &tally),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match report(&o, a.trace, &tally) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !o.raw.is_empty() {
        println!(
            "wall times are scaled to a {} ms host-speed calibration unit; see src/calib.rs",
            calib::NOMINAL_S * 1e3
        );
    }
    for note in &o.notes {
        println!("{note}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed(),
        tally.attempted()
    );
    println!("{result}");
    if tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(json: &Json, key: &str) -> Vec<String> {
        json.as_arr()
            .expect("array")
            .iter()
            .map(|m| m.get(key).and_then(Json::as_str).expect(key).to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_metadata() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let listed = bench.get(section).expect(section);
            let specs = metric_specs(trace);
            let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
            let units: Vec<String> = specs.iter().map(|s| s.unit.clone()).collect();
            let better: Vec<String> = specs.iter().map(|s| s.better.clone()).collect();
            assert_eq!(strings(listed, "name"), names, "{section}");
            assert_eq!(strings(listed, "unit"), units, "{section}");
            assert_eq!(strings(listed, "better"), better, "{section}");
            for s in &specs {
                assert!(
                    ["wall", "modeled", "count"].contains(&s.clock.as_str()),
                    "{}",
                    s.name
                );
            }
        }
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            strings(bench.get("workloads").expect("workloads"), "name"),
            workloads
        );
        let meta = Json::parse(METADATA).expect("metadata parses");
        for w in workloads {
            let entry = meta.get("workloads").and_then(|ws| ws.get(w)).expect(w);
            for key in ["why", "loop", "clients", "size_band"] {
                assert!(entry.get(key).is_some(), "{w}: {key}");
            }
        }
    }

    #[test]
    fn arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload dense-p4 --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::DenseP4);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.5, true));
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 0",
            "--workload dense-p4 --seed 3 --seconds 0 --trace 0",
            "--workload dense-p4 --seed 3 --seconds 2 --trace 2",
            "--workload dense-p4 --seconds 2 --trace 0",
            "--workload dense-p4 --seed 3 --seconds 2 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
