//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed drifts by tens of
//! percent over seconds, moving every wall time of a run together. The
//! benchmark therefore times a fixed unit of its own work — integer,
//! allocation, hash-lookup, vector, page-fault and thread-spawn work,
//! independent of the code under test — right before each pass or phase, and scales
//! that pass's wall times by `NOMINAL_S / calibration`. A change to the
//! program moves the scaled times in full; a change in host speed moves
//! the calibration with them and mostly cancels (between-run spread fell
//! from 10–30% raw to 2–8% scaled on a 2-vCPU KVM guest). Raw wall
//! times are printed beside the scaled ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The calibration time the scaled figures are expressed against.
pub const NOMINAL_S: f64 = 1e-3;
/// Samples on each side of a pass whose median scales it.
const WINDOW: usize = 2;

fn work() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 100_000
        })
        .collect();
    keys.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for k in keys.iter().step_by(4) {
        *map.entry(*k % 997).or_insert(0u64) += 1;
    }
    let a: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    let mut b: Vec<f64> = vec![1.0; 4096];
    for _ in 0..40 {
        for (bi, ai) in b.iter_mut().zip(&a) {
            *bi = *bi * 0.999 + ai * 1e-3;
        }
        b = black_box(b.iter().map(|v| v.sqrt() + 1.0).collect());
    }
    // Name lookups, short-lived strings and branchy dispatch: the shape
    // of an interpreter's or compiler pass's inner loop.
    let names: Vec<String> = (0..64).map(|i| format!("v{i}")).collect();
    let mut vars: std::collections::HashMap<String, f64> =
        names.iter().map(|n| (n.clone(), 1.0)).collect();
    for step in 0..3000 {
        let v = vars[&names[step % names.len()]];
        let slot = vars.entry(format!("t{}", step % 97)).or_insert(0.0);
        *slot = if step % 3 == 0 {
            *slot + v
        } else {
            *slot * 0.5 + 1.0
        };
    }
    let looked_up: f64 = black_box(&vars).values().sum();
    // Fresh pages (large allocations are mmap'd) and a thread spawn,
    // as every SPMD launch makes.
    let mut touched = 0.0;
    for _ in 0..4 {
        let mut big = vec![0u8; 1 << 20];
        for page in big.iter_mut().step_by(4096) {
            *page = 1;
        }
        touched += f64::from(black_box(big)[4096]);
    }
    let spawned = std::thread::spawn(|| black_box(1.0))
        .join()
        .expect("calibration thread panicked");
    b.iter().sum::<f64>() + map.len() as f64 + looked_up + touched + spawned
}

/// Round trips between two threads: the cross-CPU wake-ups that
/// parked ranks and serve sessions pay.
fn ping_pong(rounds: usize) {
    let (to_peer, peer_rx) = std::sync::mpsc::channel::<usize>();
    let (to_main, main_rx) = std::sync::mpsc::channel::<usize>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in peer_rx {
                to_main.send(v + 1).expect("calibration peer");
            }
        });
        let mut v = 0;
        for _ in 0..rounds {
            to_peer.send(v).expect("calibration peer");
            v = main_rx.recv().expect("calibration peer");
        }
        drop(to_peer);
        black_box(v);
    });
}

/// One calibration: the seconds a unit of work takes on one thread,
/// and on `threads` threads at once plus cross-thread wake-ups (the
/// slowest thread sets the time, as in a parallel job).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub single: f64,
    pub parallel: f64,
}

pub fn sample(threads: usize) -> Sample {
    let t0 = Instant::now();
    black_box(work());
    let single = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        black_box(work());
        for h in others {
            black_box(h.join().expect("calibration thread panicked"));
        }
    });
    if threads > 1 {
        ping_pong(50);
    }
    Sample {
        single,
        parallel: t0.elapsed().as_secs_f64(),
    }
}

/// The median of `n` samples, for a one-off measurement like set-up.
pub fn sample_median(threads: usize, n: usize) -> Sample {
    let samples: Vec<Sample> = (0..n).map(|_| sample(threads)).collect();
    Sample {
        single: median(&samples.iter().map(|s| s.single).collect::<Vec<_>>()),
        parallel: median(&samples.iter().map(|s| s.parallel).collect::<Vec<_>>()),
    }
}

/// Scale factor of each pass: `NOMINAL_S` over the median calibration
/// within [`WINDOW`] samples of it.
pub fn factors(cal: &[f64]) -> Vec<f64> {
    (0..cal.len())
        .map(|i| {
            let window = &cal[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(cal.len())];
            NOMINAL_S / median(window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_the_local_median() {
        let f = factors(&[1e-3, 1e-3, 4e-3, 2e-3, 2e-3, 2e-3]);
        assert_eq!(f.len(), 6);
        assert_eq!(f[0], 1.0, "window [1,1,4] has median 1 ms");
        assert_eq!(f[5], 0.5, "window [2,2,2] has median 2 ms");
        let s = sample(2);
        assert!(s.single > 0.0 && s.parallel > 0.0);
    }
}
