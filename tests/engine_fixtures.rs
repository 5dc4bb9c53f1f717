//! Engine agreement on the scripts under `tests/fixtures/` that once
//! made the interpreter and compiled code disagree: every workspace
//! variable must match the interpreter's bit for bit, at one CPU and at
//! an odd CPU count.

mod common;

use common::{run_interpreter, run_otter};
use otter_machine::{meiko_cs2, workstation};

/// Scripts whose every variable must agree exactly across engines.
const FIXTURES: [(&str, &str); 1] = [(
    "for_fractional_range",
    include_str!("fixtures/for_fractional_range.m"),
)];

fn bits(name: &str, v: &otter_interp::Value) -> (usize, usize, Vec<u64>) {
    let m = v
        .to_matrix()
        .unwrap_or_else(|| panic!("`{name}` is not numeric"));
    let data = m.data().iter().map(|x| x.to_bits()).collect();
    (m.rows(), m.cols(), data)
}

#[test]
fn fixtures_agree_bitwise_across_engines() {
    for (id, src) in FIXTURES {
        let base = run_interpreter(src, &workstation())
            .unwrap_or_else(|e| panic!("{id}: interpreter: {e}"));
        assert!(!base.workspace.is_empty(), "{id}: empty workspace");
        for p in [1usize, 3] {
            let run = run_otter(src, &meiko_cs2(), p)
                .unwrap_or_else(|e| panic!("{id}: otter p={p}: {e}"));
            for (name, v) in &base.workspace {
                let got = run
                    .workspace
                    .get(name)
                    .unwrap_or_else(|| panic!("{id}: otter p={p} lacks `{name}`"));
                assert_eq!(
                    bits(name, got),
                    bits(name, v),
                    "{id}: `{name}` differs at p={p}"
                );
            }
        }
    }
}
