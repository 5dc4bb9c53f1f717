//! Per-layer probes: public functions of `otter-rt`, `otter-mpi` and
//! `otter-core` timed from outside at the seed's problem sizes. Each
//! probe repeats its measurement for a few rounds and reports the
//! median round.

use crate::gen::Sizes;
use crate::library::{nproc, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use otter_core::{compile, run, EngineOptions, RunRequest};
use otter_machine::{meiko_cs2, OpClass};
use otter_mpi::{run_spmd_with, CommError, ReduceOp, SpmdOptions};
use otter_rt::{Dense, DistMatrix};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per probe.
const ROUNDS: usize = 7;

fn spmd_options() -> SpmdOptions {
    SpmdOptions {
        workers: Some(nproc()),
        ..SpmdOptions::default()
    }
}

/// A deterministic, non-trivial fill.
fn filled(rows: usize, cols: usize) -> Dense {
    let data = (0..rows * cols)
        .map(|i| ((i % 97) as f64 - 48.0) / 97.0)
        .collect();
    Dense::from_vec(rows, cols, data)
}

/// Run `f` in a span named `name` under a fresh operation id.
fn probe<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    tracer.span(name, tracer.op(), None, |_| f())
}

/// `Dense::matmul` GFLOP/s over the seed's tc sizes (2n³ flops each).
pub fn matmul_gflops(sizes: &Sizes, tracer: &Tracer) -> f64 {
    let mats: Vec<Dense> = sizes.tc.iter().map(|&n| filled(n, n)).collect();
    let flops: f64 = sizes.tc.iter().map(|&n| 2.0 * (n as f64).powi(3)).sum();
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for a in &mats {
                probe(tracer, "rt.matmul", || black_box(a.matmul(black_box(a))));
            }
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// `Dense::matvec` GFLOP/s over the seed's cg sizes (2n² flops each).
pub fn matvec_gflops(sizes: &Sizes, tracer: &Tracer) -> f64 {
    const REPS: usize = 20;
    let mats: Vec<(Dense, Vec<f64>)> = sizes
        .cg
        .iter()
        .map(|&n| (filled(n, n), filled(n, 1).data().to_vec()))
        .collect();
    let flops: f64 = sizes
        .cg
        .iter()
        .map(|&n| 2.0 * (n as f64).powi(2))
        .sum::<f64>()
        * REPS as f64;
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for (a, x) in &mats {
                probe(tracer, "rt.matvec", || {
                    for _ in 0..REPS {
                        black_box(a.matvec(black_box(x)));
                    }
                });
            }
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// `DistMatrix::zip` at p=1 over vector-p1's lengths, in billions of
/// result elements per second.
pub fn ew_gelem_per_s(sizes: &Sizes, tracer: &Tracer) -> f64 {
    const REPS: usize = 200;
    let lengths = sizes.vector_lengths();
    let elems: f64 = lengths.iter().sum::<usize>() as f64 * REPS as f64;
    let rates = run_spmd_with(&meiko_cs2(), 1, spmd_options(), |comm| {
        let vecs: Vec<(DistMatrix, DistMatrix)> = lengths
            .iter()
            .map(|&n| {
                (
                    DistMatrix::from_replicated(comm, &filled(1, n)),
                    DistMatrix::from_replicated(comm, &filled(1, n)),
                )
            })
            .collect();
        let rates: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                for (a, b) in &vecs {
                    probe(tracer, "rt.zip", || {
                        for _ in 0..REPS {
                            black_box(a.zip(comm, b, OpClass::Mul, |x, y| x * y + x));
                        }
                    });
                }
                elems / t0.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        Ok::<_, CommError>(median(&rates))
    });
    rates.map_or(f64::NAN, |r| r[0].value)
}

/// Median wall of `run_spmd_with` with an empty body at `p` ranks.
pub fn launch_s(p: usize, tracer: &Tracer) -> f64 {
    const REPS: usize = 40;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let res = probe(tracer, "mpi.launch", || {
                run_spmd_with(&meiko_cs2(), p, spmd_options(), |_| Ok::<_, CommError>(()))
            });
            assert!(res.is_ok(), "empty SPMD job failed");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seconds per `Comm::allreduce_scalar` at p=4 (rank 0's wall over a
/// burst of calls, median over rounds).
pub fn allreduce_s(tracer: &Tracer) -> f64 {
    const CALLS: usize = 200;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let res = probe(tracer, "mpi.allreduce", || {
                run_spmd_with(&meiko_cs2(), 4, spmd_options(), |comm| {
                    comm.barrier()?;
                    let t0 = Instant::now();
                    let mut acc = 0.0;
                    for i in 0..CALLS {
                        acc += comm.allreduce_scalar(i as f64, ReduceOp::Sum)?;
                    }
                    black_box(acc);
                    Ok(t0.elapsed().as_secs_f64() / CALLS as f64)
                })
            });
            res.map_or(f64::NAN, |r| r[0].value)
        })
        .collect();
    median(&rounds)
}

/// GB/s of a send/recv ring at p=4 passing a cg-sized row block
/// (`n/4 × n` doubles) to the next rank, over the seed's cg sizes.
pub fn ring_gbytes_per_s(sizes: &Sizes, tracer: &Tracer) -> f64 {
    const P: usize = 4;
    const LAPS: usize = 8;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let res = probe(tracer, "mpi.ring", || {
                run_spmd_with(&meiko_cs2(), P, spmd_options(), |comm| {
                    let blocks: Vec<Vec<f64>> =
                        sizes.cg.iter().map(|&n| vec![1.0; n / P * n]).collect();
                    let (next, prev) = ((comm.rank() + 1) % P, (comm.rank() + P - 1) % P);
                    comm.barrier()?;
                    let t0 = Instant::now();
                    let mut bytes = 0usize;
                    for block in &blocks {
                        for _ in 0..LAPS {
                            comm.send(next, block)?;
                            bytes += comm.recv(prev)?.len() * 8;
                        }
                    }
                    comm.barrier()?;
                    Ok((bytes * P) as f64 / t0.elapsed().as_secs_f64() / 1e9)
                })
            });
            res.map_or(f64::NAN, |r| r[0].value)
        })
        .collect();
    median(&rounds)
}

/// Result gather cost: `run` of a script leaving an `n×n` matrix minus
/// the same script reduced to a scalar, summed over the seed's tc
/// sizes, at `p` ranks.
pub fn gather_s(sizes: &Sizes, p: usize, tracer: &Tracer, tally: &Tally) -> f64 {
    let opts = EngineOptions::default();
    let build = |n: usize, keep: bool| {
        let body = format!("n = {n};\nc = ones(n, n) + eye(n);\n");
        let src = if keep {
            body
        } else {
            format!("n = {n};\ns = sum(sum(ones(n, n) + eye(n)));\n")
        };
        compile(&src, &opts).expect("gather probe compiles")
    };
    let pairs: Vec<_> = sizes
        .tc
        .iter()
        .map(|&n| (n, build(n, true), build(n, false)))
        .collect();
    let req = RunRequest::on(meiko_cs2(), p).with_workers(nproc());
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut diff = 0.0;
            for (n, keep, reduce) in &pairs {
                let time = |artifact, name| {
                    let t0 = Instant::now();
                    let r = probe(tracer, name, || run(artifact, &req));
                    let dt = t0.elapsed().as_secs_f64();
                    let want = if name == "exec.gather_matrix" {
                        // c(1,1) = 2 and the matrix is n×n.
                        r.as_ref().is_ok_and(|r| {
                            r.matrix("c")
                                .is_some_and(|m| m.rows() == *n && m.get(0, 0) == 2.0)
                        })
                    } else {
                        r.as_ref()
                            .is_ok_and(|r| r.scalar("s") == Some((n * n + n) as f64))
                    };
                    tally.record(want);
                    dt
                };
                diff += time(keep, "exec.gather_matrix") - time(reduce, "exec.gather_scalar");
            }
            diff
        })
        .collect();
    median(&rounds)
}
