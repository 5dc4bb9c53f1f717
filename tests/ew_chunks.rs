//! The element-wise evaluator runs its register program over
//! fixed-size chunks; chunk boundaries must never change a result bit.
//! Lengths straddle the boundaries (0, 1, 255, 256, 257, 515) at one CPU
//! and at odd CPU counts, whose Block-remainder blocks start and end
//! mid-chunk. Inputs carry NaN, ±inf and −0.0 across the boundaries.
//! Every `EwOp` and every `SFun` reachable from source runs as a fresh
//! output, as an in-place update reading its own destination, as a
//! `MatVecEw` epilogue and under every fusable reduction.
//!
//! Oracles: the same program with fusion off (bitwise, every variable),
//! and the interpreter (bitwise for element-wise results; reductions
//! bitwise at p = 1, where both fold in the same order, and within the
//! engines' 1e-6 agreement tolerance at p > 1, where the allreduce
//! combines per-rank partials).

mod common;

use common::run_interpreter;
use otter_core::{compile, run, EngineOptions, EngineReport, RunRequest};
use otter_machine::{meiko_cs2, workstation};

const LENS: [usize; 6] = [0, 1, 255, 256, 257, 515];

/// 1-based positions that receive special values when in range:
/// the first elements and both sides of the chunk boundaries.
const SPECIAL_AT: [usize; 14] = [1, 2, 3, 4, 5, 128, 255, 256, 257, 258, 511, 512, 513, 515];
const SPECIALS: [&str; 5] = ["0/0", "1/0", "-1/0", "-0", "0"];

fn script(n: usize) -> String {
    let mut s = format!(
        "n = {n};\n\
         k = (1:n)';\n\
         a = sin(k * 0.37) * 3;\n\
         b = cos(k * 0.11) * 2;\n\
         fa = sin(k * 0.37) * 1000;\n\
         fb = cos(k * 0.11);\n"
    );
    for (i, &at) in SPECIAL_AT.iter().filter(|&&at| at <= n).enumerate() {
        s += &format!("a({at}) = {};\n", SPECIALS[i % SPECIALS.len()]);
        s += &format!("b({at}) = {};\n", SPECIALS[(i + 2) % SPECIALS.len()]);
    }
    s += "\
% Every EwOp, fresh output.
e_add = a + b;
e_sub = a - b;
e_mul = a .* b;
e_div = a ./ b;
e_pow = a .^ b;
e_eq = a == b;
e_ne = a ~= b;
e_lt = a < b;
e_le = a <= b;
e_gt = a > b;
e_ge = a >= b;
e_and = a & b;
e_or = a | b;
e_not = ~a;
e_neg = -a;
e_const = 1.5 - a * (2 ^ 0.5);
% Every SFun reachable from source (Pow only as a folded scalar above).
f_sqrt = sqrt(a);
f_abs = abs(a);
f_sin = sin(a);
f_cos = cos(a);
f_tan = tan(a);
f_exp = exp(a);
f_log = log(a);
f_log2 = log2(a);
f_floor = floor(a);
f_ceil = ceil(a);
f_round = round(a);
f_sign = sign(a);
f_mod = mod(a, b);
f_rem = rem(a, b);
f_max = max(a, b);
f_min = min(a, b);
% In place: each update reads the destination it overwrites.
x = a + 0;
for it = 1:3
  x = x + 0.001 * x;
  x = max(x .* b - x, -x);
end
% MatVec epilogues over the product buffer.
A = ones(n, 3);
w = [0.5; -1.25; 2];
y = A * w + a;
y2 = sqrt(abs(A * w)) .* b - 1;
";
    // Reductions of an empty vector are left out: the interpreter
    // asserts on `mean([])`. The evaluator's empty folds are covered by
    // its unit tests.
    if n == 0 {
        return s;
    }
    s += "\
% Every fusable reduction, over specials and over finite data.
red_sum = sum(a .* b + a);
red_mean = mean(a + b);
red_max = max(a - b);
red_min = min(a - b);
red_prod = prod(a / 3 + 1);
red_norm = norm(a + b);
red_fsum = sum(fa .* fb + 0.001);
red_fmean = mean(fa - fb);
red_fmax = max(fa .* fb);
red_fmin = min(fa .* fb);
red_fprod = prod(1 + fb / 1000);
red_fnorm = norm(fa - fb);
% All terms -0.0: only the fold's neutral element decides the sign.
red_zsum = sum(-abs(fb) * 0);
";
    s
}

fn otter(src: &str, p: usize, fusion: bool) -> EngineReport {
    let opts = EngineOptions::builder().fusion(fusion).build();
    let artifact = compile(src, &opts).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    run(&artifact, &RunRequest::on(meiko_cs2(), p))
        .unwrap_or_else(|e| panic!("p={p} fusion={fusion}: {e}\n{src}"))
}

fn values(r: &EngineReport, name: &str) -> Vec<f64> {
    let m = r
        .workspace
        .get(name)
        .and_then(|v| v.to_matrix())
        .unwrap_or_else(|| panic!("{}: no numeric `{name}`", r.engine));
    m.data().to_vec()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.to_bits() == y.to_bits()
                || (x.is_nan() && y.is_nan())
                || (x - y).abs() <= 1e-6 * (1.0 + x.abs())
        })
}

#[test]
fn chunk_boundaries_never_change_a_result_bit() {
    for n in LENS {
        let src = script(n);
        let interp = run_interpreter(&src, &workstation())
            .unwrap_or_else(|e| panic!("n={n}: interpreter: {e}"));
        let mut names: Vec<&String> = interp.workspace.keys().collect();
        names.sort();
        for p in [1usize, 3, 5] {
            let fused = otter(&src, p, true);
            let unfused = otter(&src, p, false);
            // At n = 1 the n×3 product is a dot product, not a matvec.
            if n > 1 {
                let count = |op: &str| fused.op_counts.get(op).copied().unwrap_or(0);
                assert!(
                    count("matvec-ew") == 2 && count("reduce-ew") == 13,
                    "n={n} p={p}: fused kernels did not run: {:?}",
                    fused.op_counts
                );
            }
            for name in &names {
                let (f, u, i) = (
                    values(&fused, name),
                    values(&unfused, name),
                    values(&interp, name),
                );
                assert!(
                    same_bits(&f, &u),
                    "n={n} p={p}: `{name}` fusion on {f:?} vs off {u:?}"
                );
                let agree = if name.starts_with("red_") && p > 1 {
                    close(&i, &f)
                } else {
                    same_bits(&i, &f)
                };
                assert!(
                    agree,
                    "n={n} p={p}: `{name}` interpreter {i:?} vs otter {f:?}"
                );
            }
        }
    }
}
