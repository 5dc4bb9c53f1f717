//! Vector-at-a-time element-wise evaluator.
//!
//! An [`EwExpr`] compiles, once per executed instruction, into a flat
//! register program in the MonetDB/X100 style (Boncz et al., CIDR
//! 2005): replicated-scalar subtrees fold to constants, matrix leaves
//! become operand slices or the destination register, and every
//! remaining tree node becomes one instruction writing one scratch
//! register. The program then runs over [`CHUNK`]-element chunks, each
//! instruction one tight loop over the chunk with its operator matched
//! outside the loop.
//!
//! Chunking cannot change a bit: element `k` of the result still sees
//! exactly the IEEE operations of the tree, in the same order, on the
//! same inputs (`EwOp::eval` / `SFun::eval` themselves run in every
//! loop). Chunks only reorder *which element* is computed when, and no
//! element depends on another. Folds walk the chunks in ascending
//! element order with one running accumulator, so a reduction adds in
//! the same order as a plain loop over the whole slice.

use crate::error::{OtterError, Result};
use otter_ir::{EwExpr, EwOp, SExpr, SFun};

/// Expand `$body` once per listed variant of `$val`, with `$op` bound
/// to that variant as a constant: the inlined `eval` folds to a single
/// arm, so the loop in `$body` carries no per-element dispatch. Unlisted
/// variants belong to the other arity class and cannot reach the match.
macro_rules! per_variant {
    ($val:expr, $ty:ident, [$($v:ident),*], |$op:ident| $body:expr) => {
        match $val {
            $($ty::$v => {
                const $op: $ty = $ty::$v;
                $body
            })*
            #[allow(unreachable_patterns)]
            _ => unreachable!("operator outside its arity class"),
        }
    };
}

/// Elements per chunk: 256 doubles is 2 KiB a register, so a program's
/// registers stay in L1 while each instruction streams its chunk.
pub const CHUNK: usize = 256;

/// Where an instruction reads one operand for the current chunk.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Operand slice `i`, at the chunk's offset.
    Slice(usize),
    /// Scratch register `r`: a constant, the destination's previous
    /// contents, or an earlier instruction's result.
    Reg(usize),
}

/// One instruction; it writes its own register (see [`EwProgram::code`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Neg(Src),
    Not(Src),
    Bin(EwOp, Src, Src),
    Fun1(SFun, Src),
    Fun2(SFun, Src, Src),
}

/// A compiled element-wise expression. Build it with
/// [`EwProgram::compile`]; run it with [`EwProgram::apply`] or
/// [`EwProgram::fold`].
#[derive(Debug)]
pub struct EwProgram {
    /// `(register, value)` for every constant register.
    consts: Vec<(usize, f64)>,
    /// Register loaded with the destination's previous contents at the
    /// start of every chunk, when the expression reads them.
    dst: Option<usize>,
    /// `(output register, op)` in evaluation order. Every operand
    /// register is lower than the output register.
    code: Vec<(usize, Op)>,
    /// Where the expression's value ends up.
    result: Src,
    /// Number of scratch registers.
    regs: usize,
}

/// A subtree's value while compiling: folded, or read per element.
enum Val {
    Const(f64),
    Src(Src),
}

impl EwProgram {
    /// Compile `expr`. `operands` lists the matrices read through the
    /// `slices` argument of `apply`/`fold`, in order; `dst` names the
    /// matrix whose previous contents `apply` reads from the buffer it
    /// overwrites. `scalar` evaluates replicated-scalar leaves — the
    /// environment cannot change while the program runs, so each is
    /// evaluated once.
    pub fn compile(
        expr: &EwExpr,
        operands: &[String],
        dst: Option<&str>,
        scalar: &mut dyn FnMut(&SExpr) -> Result<f64>,
    ) -> Result<EwProgram> {
        let mut p = EwProgram {
            consts: Vec::new(),
            dst: None,
            code: Vec::new(),
            result: Src::Reg(0),
            regs: 0,
        };
        let v = p.val(expr, operands, dst, scalar)?;
        p.result = p.src(v);
        Ok(p)
    }

    fn val(
        &mut self,
        e: &EwExpr,
        operands: &[String],
        dst: Option<&str>,
        scalar: &mut dyn FnMut(&SExpr) -> Result<f64>,
    ) -> Result<Val> {
        Ok(match e {
            EwExpr::Mat(m) if Some(m.as_str()) == dst => match self.dst {
                Some(r) => Val::Src(Src::Reg(r)),
                None => {
                    let r = self.reg();
                    self.dst = Some(r);
                    Val::Src(Src::Reg(r))
                }
            },
            EwExpr::Mat(m) => Val::Src(Src::Slice(
                operands
                    .iter()
                    .position(|n| n == m)
                    .expect("every matrix operand is in the slice list"),
            )),
            EwExpr::Scalar(s) => Val::Const(scalar(s)?),
            EwExpr::Neg(x) => match self.val(x, operands, dst, scalar)? {
                Val::Const(c) => Val::Const(-c),
                Val::Src(a) => self.push(Op::Neg(a)),
            },
            EwExpr::Not(x) => match self.val(x, operands, dst, scalar)? {
                Val::Const(c) => Val::Const(f64::from(c == 0.0)),
                Val::Src(a) => self.push(Op::Not(a)),
            },
            EwExpr::Bin(op, a, b) => {
                let a = self.val(a, operands, dst, scalar)?;
                let b = self.val(b, operands, dst, scalar)?;
                match (a, b) {
                    (Val::Const(x), Val::Const(y)) => Val::Const(op.eval(x, y)),
                    (a, b) => {
                        let (a, b) = (self.src(a), self.src(b));
                        self.push(Op::Bin(*op, a, b))
                    }
                }
            }
            EwExpr::Call(f, args) => {
                if args.len() != f.arity() {
                    return Err(OtterError::execution(format!(
                        "`{}` takes {} argument(s), got {}",
                        f.c_name(),
                        f.arity(),
                        args.len()
                    )));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.val(a, operands, dst, scalar)?);
                }
                let consts: Vec<f64> = vals
                    .iter()
                    .filter_map(|v| match v {
                        Val::Const(c) => Some(*c),
                        Val::Src(_) => None,
                    })
                    .collect();
                if consts.len() == vals.len() {
                    Val::Const(f.eval(&consts))
                } else {
                    let srcs: Vec<Src> = vals.into_iter().map(|v| self.src(v)).collect();
                    match srcs[..] {
                        [a] => self.push(Op::Fun1(*f, a)),
                        [a, b] => self.push(Op::Fun2(*f, a, b)),
                        _ => unreachable!("arity checked above"),
                    }
                }
            }
        })
    }

    fn reg(&mut self) -> usize {
        self.regs += 1;
        self.regs - 1
    }

    fn push(&mut self, op: Op) -> Val {
        let r = self.reg();
        self.code.push((r, op));
        Val::Src(Src::Reg(r))
    }

    /// Materialize a constant into a register (filled once per run).
    fn src(&mut self, v: Val) -> Src {
        match v {
            Val::Src(s) => s,
            Val::Const(c) => {
                let r = self.reg();
                self.consts.push((r, c));
                Src::Reg(r)
            }
        }
    }

    /// Scratch registers for a run over `len` elements: one flat buffer,
    /// `width` doubles per register, constants filled in.
    fn registers(&self, len: usize) -> (Vec<f64>, usize) {
        let width = CHUNK.min(len);
        let mut regs = vec![0.0; self.regs * width];
        for &(r, c) in &self.consts {
            regs[r * width..(r + 1) * width].fill(c);
        }
        (regs, width)
    }

    /// Evaluate elements `base..base + n` (`n` ≤ `width`) and return
    /// them. The destination register, if any, must hold the chunk.
    fn eval_chunk<'a>(
        &self,
        regs: &'a mut [f64],
        width: usize,
        slices: &[&'a [f64]],
        base: usize,
        n: usize,
    ) -> &'a [f64] {
        for &(r, op) in &self.code {
            let (done, rest) = regs.split_at_mut(r * width);
            let out = &mut rest[..n];
            let get = |s: Src| -> &[f64] {
                match s {
                    Src::Slice(i) => &slices[i][base..base + n],
                    Src::Reg(j) => &done[j * width..j * width + n],
                }
            };
            match op {
                Op::Neg(a) => map1(out, get(a), |x| -x),
                Op::Not(a) => map1(out, get(a), |x| f64::from(x == 0.0)),
                Op::Bin(bop, a, b) => {
                    let (a, b) = (get(a), get(b));
                    per_variant!(
                        bop,
                        EwOp,
                        [Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or],
                        |OP| map2(out, a, b, |x, y| OP.eval(x, y))
                    )
                }
                Op::Fun1(f, a) => {
                    let a = get(a);
                    per_variant!(
                        f,
                        SFun,
                        [Sqrt, Abs, Sin, Cos, Tan, Exp, Log, Log2, Floor, Ceil, Round, Sign],
                        |F| map1(out, a, |x| F.eval(&[x]))
                    )
                }
                Op::Fun2(f, a, b) => {
                    let (a, b) = (get(a), get(b));
                    per_variant!(f, SFun, [Pow, Mod, Rem, Max, Min], |F| map2(
                        out,
                        a,
                        b,
                        |x, y| F.eval(&[x, y])
                    ))
                }
            }
        }
        match self.result {
            Src::Slice(i) => &slices[i][base..base + n],
            Src::Reg(r) => &regs[r * width..r * width + n],
        }
    }

    /// Overwrite `buf` with the expression's value. Where the program
    /// reads the destination, it reads `buf`'s previous element — each
    /// element is read before it is written, as in a per-element loop.
    pub fn apply(&self, slices: &[&[f64]], buf: &mut [f64]) {
        let (mut regs, width) = self.registers(buf.len());
        for base in (0..buf.len()).step_by(CHUNK) {
            let n = width.min(buf.len() - base);
            let out = &mut buf[base..base + n];
            if let Some(d) = self.dst {
                regs[d * width..d * width + n].copy_from_slice(out);
            }
            out.copy_from_slice(self.eval_chunk(&mut regs, width, slices, base, n));
        }
    }

    /// Fold the expression's `len` values into `init` in ascending
    /// element order, without materializing them.
    pub fn fold(
        &self,
        slices: &[&[f64]],
        len: usize,
        init: f64,
        f: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let (mut regs, width) = self.registers(len);
        let mut acc = init;
        for base in (0..len).step_by(CHUNK) {
            let n = width.min(len - base);
            acc = self
                .eval_chunk(&mut regs, width, slices, base, n)
                .iter()
                .fold(acc, |a, &x| f(a, x));
        }
        acc
    }
}

#[inline(always)]
fn map1(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EW_OPS: [EwOp; 13] = [
        EwOp::Add,
        EwOp::Sub,
        EwOp::Mul,
        EwOp::Div,
        EwOp::Pow,
        EwOp::Eq,
        EwOp::Ne,
        EwOp::Lt,
        EwOp::Le,
        EwOp::Gt,
        EwOp::Ge,
        EwOp::And,
        EwOp::Or,
    ];
    const SFUNS: [SFun; 17] = [
        SFun::Sqrt,
        SFun::Abs,
        SFun::Sin,
        SFun::Cos,
        SFun::Tan,
        SFun::Exp,
        SFun::Log,
        SFun::Log2,
        SFun::Floor,
        SFun::Ceil,
        SFun::Round,
        SFun::Sign,
        SFun::Pow,
        SFun::Mod,
        SFun::Rem,
        SFun::Max,
        SFun::Min,
    ];
    /// Lengths around the chunk boundaries, empty included.
    const LENS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3];

    /// Deterministic data with NaN, ±inf, ±0 and extremes sprinkled
    /// through every chunk (`shift` staggers the two operands).
    fn data(len: usize, shift: usize) -> Vec<f64> {
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            0.5,
            -2.5,
            1e308,
            5e-324,
        ];
        (0..len)
            .map(|k| match (k + shift) % 5 {
                0 => special[(k + shift) / 5 % special.len()],
                _ => ((k + shift) as f64 * 0.37).sin() * 3.0,
            })
            .collect()
    }

    fn mat(n: &str) -> EwExpr {
        EwExpr::mat(n)
    }

    fn c(v: f64) -> EwExpr {
        EwExpr::Scalar(SExpr::Const(v))
    }

    /// The per-element tree walk the register program replaces.
    fn reference(e: &EwExpr, a: f64, b: f64, d: f64) -> f64 {
        match e {
            EwExpr::Mat(m) => match m.as_str() {
                "a" => a,
                "b" => b,
                _ => d,
            },
            EwExpr::Scalar(SExpr::Const(v)) => *v,
            EwExpr::Scalar(s) => panic!("non-constant scalar {s:?}"),
            EwExpr::Neg(x) => -reference(x, a, b, d),
            EwExpr::Not(x) => f64::from(reference(x, a, b, d) == 0.0),
            EwExpr::Bin(op, x, y) => op.eval(reference(x, a, b, d), reference(y, a, b, d)),
            EwExpr::Call(f, args) => {
                let vals: Vec<f64> = args.iter().map(|x| reference(x, a, b, d)).collect();
                f.eval(&vals)
            }
        }
    }

    fn cases() -> Vec<EwExpr> {
        let mut out = Vec::new();
        for op in EW_OPS {
            out.push(EwExpr::bin(op, mat("a"), mat("b")));
            out.push(EwExpr::bin(op, c(1.5), mat("a")));
            out.push(EwExpr::bin(op, mat("b"), c(-0.0)));
        }
        for f in SFUNS {
            out.push(match f.arity() {
                1 => EwExpr::Call(f, vec![mat("a")]),
                _ => EwExpr::Call(f, vec![mat("a"), mat("b")]),
            });
            if f.arity() == 2 {
                out.push(EwExpr::Call(f, vec![c(2.0), mat("b")]));
            }
        }
        out.push(EwExpr::Neg(Box::new(mat("a"))));
        out.push(EwExpr::Not(Box::new(mat("b"))));
        // A folded constant subtree, a bare operand, and a deep mix.
        out.push(EwExpr::bin(
            EwOp::Add,
            mat("a"),
            EwExpr::bin(EwOp::Mul, c(2.0), EwExpr::Neg(Box::new(c(3.0)))),
        ));
        out.push(mat("b"));
        out.push(EwExpr::Call(
            SFun::Max,
            vec![
                EwExpr::Neg(Box::new(mat("b"))),
                EwExpr::Call(SFun::Sqrt, vec![EwExpr::bin(EwOp::Pow, mat("a"), c(2.0))]),
            ],
        ));
        out
    }

    fn compile(e: &EwExpr, operands: &[&str], dst: Option<&str>) -> EwProgram {
        let operands: Vec<String> = operands.iter().map(|s| s.to_string()).collect();
        EwProgram::compile(e, &operands, dst, &mut |s| match s {
            SExpr::Const(v) => Ok(*v),
            other => panic!("non-constant scalar {other:?}"),
        })
        .unwrap()
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k}: {g} vs {w}");
        }
    }

    #[test]
    fn fresh_output_matches_the_tree_walk_bit_for_bit() {
        for len in LENS {
            let (a, b) = (data(len, 0), data(len, 2));
            for e in cases() {
                let prog = compile(&e, &["a", "b"], None);
                let mut out = vec![0.0; len];
                prog.apply(&[&a, &b], &mut out);
                let want: Vec<f64> = (0..len).map(|k| reference(&e, a[k], b[k], 0.0)).collect();
                assert_bits(&out, &want, &format!("{e:?} len={len}"));
            }
        }
    }

    #[test]
    fn in_place_reads_each_old_element_before_writing_it() {
        // `d` is the destination: `a` plays it here, so every case
        // reads the buffer it overwrites, plus `x = x + 0.001*x`.
        let rename = |e: &EwExpr| -> EwExpr {
            fn go(e: &EwExpr) -> EwExpr {
                match e {
                    EwExpr::Mat(m) if m == "a" => EwExpr::mat("d"),
                    EwExpr::Neg(x) => EwExpr::Neg(Box::new(go(x))),
                    EwExpr::Not(x) => EwExpr::Not(Box::new(go(x))),
                    EwExpr::Bin(op, x, y) => EwExpr::bin(*op, go(x), go(y)),
                    EwExpr::Call(f, args) => EwExpr::Call(*f, args.iter().map(go).collect()),
                    other => other.clone(),
                }
            }
            go(e)
        };
        let mut exprs: Vec<EwExpr> = cases().iter().map(rename).collect();
        exprs.push(EwExpr::bin(
            EwOp::Add,
            mat("d"),
            EwExpr::bin(EwOp::Mul, c(0.001), mat("d")),
        ));
        for len in LENS {
            let (d0, b) = (data(len, 1), data(len, 3));
            for e in &exprs {
                let prog = compile(e, &["b"], Some("d"));
                let mut buf = d0.clone();
                prog.apply(&[&b], &mut buf);
                let want: Vec<f64> = (0..len)
                    .map(|k| reference(e, f64::NAN, b[k], d0[k]))
                    .collect();
                assert_bits(&buf, &want, &format!("{e:?} len={len}"));
            }
        }
    }

    #[test]
    fn folds_match_the_whole_slice_iterator_folds() {
        // The exact iterator forms of the runtime's reduction kernels:
        // chunked folds must add, multiply and compare in their order
        // and start from their neutral elements.
        for len in LENS {
            for (a, b) in [
                (data(len, 0), data(len, 2)),
                // Finite values, so the order of the sums shows.
                (
                    (0..len).map(|k| (k as f64 * 0.37).sin() * 1e3).collect(),
                    (0..len).map(|k| (k as f64 * 0.11).cos()).collect(),
                ),
            ] {
                for e in cases() {
                    let prog = compile(&e, &["a", "b"], None);
                    let vals: Vec<f64> = (0..len).map(|k| reference(&e, a[k], b[k], 0.0)).collect();
                    let s = &[a.as_slice(), b.as_slice()];
                    let what = format!("{e:?} len={len}");
                    assert_bits(
                        &[
                            prog.fold(s, len, -0.0, |x, y| x + y),
                            prog.fold(s, len, f64::NEG_INFINITY, f64::max),
                            prog.fold(s, len, f64::INFINITY, f64::min),
                            prog.fold(s, len, 1.0, |x, y| x * y),
                            prog.fold(s, len, -0.0, |x, y| x + y * y),
                        ],
                        &[
                            vals.iter().sum::<f64>(),
                            vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                            vals.iter().copied().fold(f64::INFINITY, f64::min),
                            vals.iter().product::<f64>(),
                            vals.iter().map(|x| x * x).sum::<f64>(),
                        ],
                        &what,
                    );
                }
            }
        }
    }

    #[test]
    fn constant_subtrees_fold_and_bad_arity_is_a_typed_error() {
        let e = EwExpr::bin(
            EwOp::Add,
            mat("a"),
            EwExpr::bin(EwOp::Mul, c(2.0), EwExpr::Neg(Box::new(c(3.0)))),
        );
        let prog = compile(&e, &["a"], None);
        assert_eq!(prog.code.len(), 1, "{prog:?}");
        assert_eq!(prog.consts, vec![(0, -6.0)]);
        let bad = EwExpr::Call(SFun::Max, vec![mat("a")]);
        let err = EwProgram::compile(&bad, &["a".to_string()], None, &mut |_| Ok(0.0));
        assert!(err.is_err());
    }
}
