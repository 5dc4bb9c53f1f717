//! The library path: `otter_core::compile`, `otter_core::run` and
//! `otter_interp::run_script` called directly, one closed-loop caller
//! running a workload's scripts back to back.

use crate::gen::Script;
use crate::trace::{SpanId, Tracer};
use otter_core::{compile, run, CompiledArtifact, EngineOptions, EngineReport, RunRequest};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Operations attempted and failed. An engine error, an error reply or
/// a result outside tolerance each counts as a failure.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn record(&self, ok: bool) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// The result scalars of one script, as the interpreter computes them.
pub type Reference = Vec<(String, f64)>;

/// The tolerance rule of the repository's engine-agreement tests.
pub fn close(reference: f64, got: f64) -> bool {
    (reference - got).abs() <= 1e-6 * (1.0 + reference.abs())
}

/// Every result scalar present and within tolerance.
pub fn matches(reference: &Reference, get: impl Fn(&str) -> Option<f64>) -> bool {
    reference
        .iter()
        .all(|(var, want)| get(var).is_some_and(|got| close(*want, got)))
}

/// Interpreter reference values for every script (not timed).
pub fn references(scripts: &[Script]) -> Result<Vec<Reference>, String> {
    scripts
        .iter()
        .map(|s| {
            let out = otter_interp::run_script(&s.source, None)
                .map_err(|e| format!("{}: interpreter: {e}", s.label))?;
            s.result_vars
                .iter()
                .map(|v| {
                    out.scalar(v)
                        .map(|x| (v.clone(), x))
                        .ok_or_else(|| format!("{}: interpreter left no scalar `{v}`", s.label))
                })
                .collect()
        })
        .collect()
}

/// Host parallelism: the worker budget of every run and the number of
/// serve clients.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn request_for(script: &Script) -> RunRequest {
    let machine =
        otter_serve::machine_by_name(script.machine).expect("generator names a known machine");
    RunRequest::on(machine, script.ranks).with_workers(nproc())
}

/// A workload's scripts, their references and compiled artifacts.
pub struct Prepared {
    pub scripts: Vec<Script>,
    pub reference: Vec<Reference>,
    pub requests: Vec<RunRequest>,
    pub artifacts: Vec<CompiledArtifact>,
}

impl Prepared {
    /// References and run requests; artifacts come from
    /// [`Prepared::setup`].
    pub fn new(scripts: Vec<Script>) -> Result<Prepared, String> {
        let reference = references(&scripts)?;
        let requests = scripts.iter().map(request_for).collect();
        Ok(Prepared {
            scripts,
            reference,
            requests,
            artifacts: Vec::new(),
        })
    }

    /// System set-up: the first compile and a warm-up run of each
    /// script. Returns the seconds it took; keeps the artifacts.
    pub fn setup(&mut self, tally: &Tally) -> Result<f64, String> {
        let t0 = Instant::now();
        let opts = EngineOptions::default();
        let mut artifacts = Vec::with_capacity(self.scripts.len());
        for (i, s) in self.scripts.iter().enumerate() {
            let artifact = compile(&s.source, &opts);
            tally.record(artifact.is_ok());
            let artifact = artifact.map_err(|e| format!("{}: compile: {e}", s.label))?;
            let report = run(&artifact, &self.requests[i]);
            check_run(tally, &self.reference[i], &report);
            artifacts.push(artifact);
        }
        self.artifacts = artifacts;
        Ok(t0.elapsed().as_secs_f64())
    }
}

fn check_run(
    tally: &Tally,
    reference: &Reference,
    report: &otter_core::error::Result<EngineReport>,
) -> bool {
    tally.record(
        report
            .as_ref()
            .is_ok_and(|r| matches(reference, |v| r.scalar(v))),
    )
}

/// What one compile pass measured.
#[derive(Debug, Clone, Default)]
pub struct CompilePass {
    pub seconds: f64,
    /// `frontend.parse` wall over the scripts (traced passes only).
    pub parse_s: f64,
    /// Pass name → wall seconds summed over scripts, from
    /// `CompiledArtifact::pass_stats`.
    pub pass_s: BTreeMap<&'static str, f64>,
    /// IR instructions after the last pass, summed over scripts.
    pub ir_instrs: u64,
}

pub fn compile_pass(
    prep: &Prepared,
    tracer: &Tracer,
    parent: Option<SpanId>,
    tally: &Tally,
) -> CompilePass {
    let opts = EngineOptions::default();
    let mut out = CompilePass::default();
    for s in &prep.scripts {
        let op = tracer.op();
        if tracer.enabled() {
            let t0 = Instant::now();
            let parsed = tracer.span("frontend.parse", op, parent, |_| {
                otter_frontend::parse(&s.source)
            });
            out.parse_s += t0.elapsed().as_secs_f64();
            tally.record(parsed.is_ok());
        }
        let t0 = Instant::now();
        let artifact = tracer.span("compile", op, parent, |_| compile(&s.source, &opts));
        out.seconds += t0.elapsed().as_secs_f64();
        if tally.record(artifact.is_ok()) {
            let artifact = artifact.expect("checked above");
            for p in artifact.pass_stats() {
                *out.pass_s.entry(p.name).or_default() += p.wall.as_secs_f64();
            }
            out.ir_instrs += artifact
                .pass_stats()
                .last()
                .map_or(0, |p| p.ir_instrs_after as u64);
        }
    }
    out
}

/// What one otter run pass measured.
#[derive(Debug, Clone, Default)]
pub struct RunPass {
    pub seconds: f64,
    pub per_script: Vec<f64>,
    /// Deterministic report sums (modeled clock and counts).
    pub counts: Counts,
}

/// Sums over one pass of `EngineReport`s. All but the wall time are
/// deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub modeled_s: f64,
    pub comm_bytes: u64,
    pub messages: u64,
    pub ops: u64,
    pub peak_temp_bytes: u64,
    pub idle_s: f64,
    pub clock_s: f64,
}

impl Counts {
    pub fn add(&mut self, r: &EngineReport) {
        self.modeled_s += r.modeled_seconds;
        self.comm_bytes += r.bytes;
        self.messages += r.messages;
        self.ops += r.total_ops();
        self.peak_temp_bytes = self.peak_temp_bytes.max(r.peak_temp_bytes as u64);
        for rank in &r.per_rank {
            self.idle_s += rank.idle_seconds;
            self.clock_s += rank.clock;
        }
    }
}

/// Run every artifact once (`artifacts` lets a caller substitute, e.g.,
/// metrics-on builds of the same scripts) and check each result.
pub fn run_pass(
    prep: &Prepared,
    artifacts: &[CompiledArtifact],
    tracer: &Tracer,
    parent: Option<SpanId>,
    tally: &Tally,
) -> RunPass {
    let mut out = RunPass::default();
    for (i, artifact) in artifacts.iter().enumerate() {
        let op = tracer.op();
        let t0 = Instant::now();
        let report = tracer.span("run", op, parent, |_| run(artifact, &prep.requests[i]));
        let dt = t0.elapsed().as_secs_f64();
        out.seconds += dt;
        out.per_script.push(dt);
        tracer.span("oracle", op, parent, |_| {
            check_run(tally, &prep.reference[i], &report)
        });
        if let Ok(r) = &report {
            out.counts.add(r);
        }
    }
    out
}

/// What one interpreter pass measured.
#[derive(Debug, Clone, Default)]
pub struct InterpPass {
    pub seconds: f64,
    pub per_script: Vec<f64>,
    /// Interpreter operations (its cost meter's count).
    pub ops: u64,
}

pub fn interp_pass(
    prep: &Prepared,
    tracer: &Tracer,
    parent: Option<SpanId>,
    tally: &Tally,
) -> InterpPass {
    let mut out = InterpPass::default();
    for (i, s) in prep.scripts.iter().enumerate() {
        let op = tracer.op();
        let t0 = Instant::now();
        let res = tracer.span("interp", op, parent, |_| {
            otter_interp::run_script(&s.source, None)
        });
        let dt = t0.elapsed().as_secs_f64();
        out.seconds += dt;
        out.per_script.push(dt);
        let ok = tracer.span("oracle", op, parent, |_| {
            res.as_ref()
                .is_ok_and(|o| matches(&prep.reference[i], |v| o.scalar(v)))
        });
        tally.record(ok);
        if let Ok(o) = &res {
            out.ops += o.meter.ops();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    fn prepared(w: Workload, seed: u64, tally: &Tally) -> Prepared {
        let mut scripts = w.scripts(seed);
        scripts.truncate(2); // one instance of each app keeps debug builds quick
        let mut prep = Prepared::new(scripts).expect("references");
        prep.setup(tally).expect("set-up");
        prep
    }

    #[test]
    fn deterministic_metrics_repeat_exactly() {
        for w in [Workload::VectorP1, Workload::DenseP4] {
            let tally = Tally::default();
            let quiet = Tracer::new(false);
            let first = prepared(w, 9, &tally);
            let second = prepared(w, 9, &tally);
            let a = run_pass(&first, &first.artifacts, &quiet, None, &tally).counts;
            let b = run_pass(&second, &second.artifacts, &quiet, None, &tally).counts;
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.modeled_s.to_bits(), b.modeled_s.to_bits());
            assert!(a.ops > 0 && a.modeled_s > 0.0);
            if w == Workload::DenseP4 {
                assert!(a.messages > 0 && a.comm_bytes > 0);
            }
            assert_eq!(tally.failed(), 0);
        }
    }

    #[test]
    fn a_wrong_result_counts_in_error_rate() {
        let tally = Tally::default();
        let quiet = Tracer::new(false);
        let mut prep = prepared(Workload::VectorP1, 4, &tally);
        assert_eq!(tally.failed(), 0);
        // Inject a reference the engine cannot match.
        prep.reference[1][0].1 += 1.0;
        run_pass(&prep, &prep.artifacts, &quiet, None, &tally);
        assert_eq!(tally.failed(), 1, "the otter run of script 1 is wrong");
        interp_pass(&prep, &quiet, None, &tally);
        assert_eq!(tally.failed(), 2, "so is the interpreter's, against it");
        assert!(tally.error_rate() > 0.0);
    }

    #[test]
    fn tolerance_rule() {
        assert!(close(1.0, 1.0 + 1e-6));
        assert!(!close(1.0, 1.0 + 3e-6));
        assert!(close(0.0, 1e-6));
        let r: Reference = vec![("x".into(), 2.0)];
        assert!(matches(&r, |_| Some(2.0)));
        assert!(!matches(&r, |_| None), "a missing result is a failure");
    }
}
