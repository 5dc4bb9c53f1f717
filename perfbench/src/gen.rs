//! Seeded input generation. The program under test only ever sees the
//! scripts built here; the seed fixes every byte of them and, for
//! serve-mix, the order in which each client sends its requests.
//!
//! Sizes are drawn within ±1/8 of the `large()` (library workloads) or
//! `test()` (serve pool) parameters of `otter-apps`. Each app appears
//! as several instances whose size factors are stratified over the
//! band and paired around its centre (see [`band_draws`]), so a new
//! seed moves every size while the total work of a pass stays nearly
//! the same. That keeps one seed's figures comparable to another's.

use otter_apps::{cg, nbody, ocean, transitive, App};

/// Half-width of the size band, as a share of the base parameter.
pub const BAND: f64 = 0.125;
/// Stratified instances of each app in a library workload.
pub const INSTANCES: usize = 4;
/// Entries in the serve-mix source pool: twice otterd's default cache
/// capacity of 64, so misses keep compiling, inserting and evicting.
pub const POOL: usize = 128;
/// Pool slots holding test-scale apps; every other slot is a short
/// generated script. Fixed slots (not seeded) keep the mix of cheap and
/// expensive requests the same for every seed.
const APP_SLOTS: [usize; 8] = [3, 9, 17, 29, 45, 66, 90, 119];
/// Exponent of the Zipf popularity of pool slot `i` (weight
/// `1/(i+1)^s`). With LRU capacity 64 about five requests in six hit.
const ZIPF_S: f64 = 1.0;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under `seed`.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `k` sizes around `base`. Instance `i < k/2` draws its factor from
/// the `i`-th of `k` strata of `[1−BAND, 1+BAND]`; instance `k−1−i`
/// takes the mirror image `2 − factor`. Mirrored pairs keep the total
/// work of a pass nearly the same for every seed: linear costs cancel
/// exactly, higher powers up to a term in the square of the offset.
/// With `k` odd the middle instance sits at the centre.
pub fn band_draws(rng: &mut Rng, base: usize, k: usize) -> Vec<usize> {
    let mut factors = vec![1.0; k];
    for i in 0..k / 2 {
        let share = (i as f64 + rng.unit()) / k as f64;
        factors[i] = 1.0 - BAND + 2.0 * BAND * share;
        factors[k - 1 - i] = 2.0 - factors[i];
    }
    factors
        .into_iter()
        .map(|f| ((base as f64 * f).round() as usize).max(1))
        .collect()
}

/// One generated script and how to run and check it.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// `app#instance` or `pool#slot`, for tables and spans.
    pub label: String,
    pub source: String,
    /// Workspace scalars compared against the interpreter.
    pub result_vars: Vec<String>,
    pub ranks: usize,
    /// Machine model name as `otter_serve::machine_by_name` knows it.
    pub machine: &'static str,
}

impl Script {
    fn from_app(app: App, instance: usize, ranks: usize, machine: &'static str) -> Script {
        Script {
            label: format!("{}#{instance}", app.id),
            source: app.script,
            result_vars: app.result_vars.iter().map(|v| v.to_string()).collect(),
            ranks,
            machine,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ocean + nbody at p=1: element-wise chains, executor dispatch.
    VectorP1,
    /// cg + tc at p=4 over the worker pool: kernels and messaging.
    DenseP4,
    /// Two closed-loop clients against otterd over its Unix socket.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::VectorP1, Workload::DenseP4, Workload::ServeMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::VectorP1 => "vector-p1",
            Workload::DenseP4 => "dense-p4",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Ranks the per-layer probes (launch, gather) run at.
    pub fn probe_ranks(self) -> usize {
        match self {
            Workload::VectorP1 => 1,
            Workload::DenseP4 | Workload::ServeMix => 4,
        }
    }

    /// The scripts one pass runs: the library workloads' apps, or the
    /// serve pool (which serve-mix also runs through the library for
    /// its compile, run and interpreter figures).
    pub fn scripts(self, seed: u64) -> Vec<Script> {
        let sizes = Sizes::draw(seed);
        match self {
            Workload::VectorP1 => interleave(vec![
                sizes
                    .ocean
                    .iter()
                    .enumerate()
                    .map(|(i, &(nt, nz))| {
                        let app = ocean::ocean_engineering(ocean::Params { nt, nz });
                        Script::from_app(app, i, 1, "workstation")
                    })
                    .collect(),
                sizes
                    .nbody
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let p = nbody::Params {
                            n,
                            ..nbody::Params::large()
                        };
                        Script::from_app(nbody::n_body(p), i, 1, "workstation")
                    })
                    .collect(),
            ]),
            Workload::DenseP4 => interleave(vec![
                sizes
                    .cg
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let p = cg::Params {
                            n,
                            ..cg::Params::large()
                        };
                        Script::from_app(cg::conjugate_gradient(p), i, 4, "meiko")
                    })
                    .collect(),
                sizes
                    .tc
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        let app = transitive::transitive_closure(transitive::Params { n });
                        Script::from_app(app, i, 4, "meiko")
                    })
                    .collect(),
            ]),
            Workload::ServeMix => pool(seed),
        }
    }
}

fn interleave(groups: Vec<Vec<Script>>) -> Vec<Script> {
    let len = groups.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .flat_map(|i| groups.iter().filter_map(move |g| g.get(i).cloned()))
        .collect()
}

/// Every size a seed fixes, for all workloads and probes.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `(nt, nz)` per ocean instance.
    pub ocean: Vec<(usize, usize)>,
    pub nbody: Vec<usize>,
    pub cg: Vec<usize>,
    pub tc: Vec<usize>,
}

impl Sizes {
    pub fn draw(seed: u64) -> Sizes {
        let large_ocean = ocean::Params::large();
        let nt = band_draws(
            &mut Rng::stream(seed, "ocean.nt"),
            large_ocean.nt,
            INSTANCES,
        );
        let nz = band_draws(
            &mut Rng::stream(seed, "ocean.nz"),
            large_ocean.nz,
            INSTANCES,
        );
        Sizes {
            ocean: nt.into_iter().zip(nz).collect(),
            nbody: band_draws(
                &mut Rng::stream(seed, "nbody.n"),
                nbody::Params::large().n,
                INSTANCES,
            ),
            cg: band_draws(
                &mut Rng::stream(seed, "cg.n"),
                cg::Params::large().n,
                INSTANCES,
            ),
            tc: band_draws(
                &mut Rng::stream(seed, "tc.n"),
                transitive::Params::large().n,
                INSTANCES,
            ),
        }
    }

    /// vector-p1's vector lengths (ocean time series, nbody particles).
    pub fn vector_lengths(&self) -> Vec<usize> {
        self.ocean
            .iter()
            .map(|&(nt, _)| nt)
            .chain(self.nbody.iter().copied())
            .collect()
    }
}

/// The serve-mix source pool: test-scale apps at [`APP_SLOTS`], short
/// generated scripts everywhere else. Slot `i` is the `i`-th most
/// popular source.
pub fn pool(seed: u64) -> Vec<Script> {
    let mut rng = Rng::stream(seed, "pool");
    let test_apps = {
        let mut r = Rng::stream(seed, "pool.apps");
        let cg_n = band_draws(&mut r, cg::Params::test().n, 2);
        let oc_nt = band_draws(&mut r, ocean::Params::test().nt, 2);
        let nb_n = band_draws(&mut r, nbody::Params::test().n, 2);
        let tc_n = band_draws(&mut r, transitive::Params::test().n, 2);
        let mut apps = Vec::new();
        for i in 0..2 {
            apps.push(cg::conjugate_gradient(cg::Params {
                n: cg_n[i],
                ..cg::Params::test()
            }));
            apps.push(ocean::ocean_engineering(ocean::Params {
                nt: oc_nt[i],
                ..ocean::Params::test()
            }));
            apps.push(nbody::n_body(nbody::Params {
                n: nb_n[i],
                ..nbody::Params::test()
            }));
            apps.push(transitive::transitive_closure(transitive::Params {
                n: tc_n[i],
            }));
        }
        apps
    };
    let mut apps = test_apps.into_iter();
    (0..POOL)
        .map(|slot| {
            if APP_SLOTS.contains(&slot) {
                let app = apps.next().expect("one app per app slot");
                let mut s = Script::from_app(app, slot, 4, "meiko");
                s.label = format!("pool#{slot}:{}", s.label);
                s
            } else {
                short_script(&mut rng, slot)
            }
        })
        .collect()
}

/// A short script from one of four templates (element-wise vector,
/// small dense, scalar loop, reduction) with seeded constants. Its size
/// is the template's scaled by a factor within ±1/8 fixed per slot, not
/// per seed, so a seed changes values and request order but not the
/// work each popularity rank carries. The slot number is part of the
/// text, so every slot is a distinct cache key.
fn short_script(rng: &mut Rng, slot: usize) -> Script {
    let a = 0.5 + rng.unit();
    let b = 0.5 + rng.unit();
    let size = |base: usize| {
        let factor = 1.0 - BAND + 2.0 * BAND * ((slot * 37) % 100) as f64 / 100.0;
        (base as f64 * factor).round() as usize
    };
    let (source, vars) = match slot % 4 {
        0 => {
            let n = size(2000);
            (
                format!(
                    "% pool slot {slot}\nn = {n};\nx = linspace(0, {a}, n);\n\
                     y = {b} * sin(x) + x .* x;\ns = sum(y);\nm = max(abs(y));\n"
                ),
                vec!["s", "m"],
            )
        }
        1 => {
            let n = size(64);
            (
                format!(
                    "% pool slot {slot}\nn = {n};\nA = ones(n, n) + {a} * eye(n);\n\
                     v = A * ones(n, 1);\nr = norm(v);\nt = sum(sum(A .* A)) * {b};\n"
                ),
                vec!["r", "t"],
            )
        }
        2 => {
            let k = size(100);
            (
                format!(
                    "% pool slot {slot}\ns = 0;\nfor i = 1:{k}\n  s = s + {a} * i;\nend\n\
                     q = sqrt(s) + {b};\n"
                ),
                vec!["s", "q"],
            )
        }
        _ => {
            let n = size(2000);
            (
                format!(
                    "% pool slot {slot}\nn = {n};\nx = (1:n)' / n;\n\
                     y = exp(x * {a}) - cos(x * {b});\nmu = mean(y);\nsd = norm(y - mu);\n"
                ),
                vec!["mu", "sd"],
            )
        }
    };
    Script {
        label: format!("pool#{slot}"),
        source,
        result_vars: vars.into_iter().map(str::to_string).collect(),
        ranks: [1, 2, 4][slot % 3],
        machine: "meiko",
    }
}

/// One serve-mix client's request order: pool slots drawn from the
/// Zipf popularity, a fixed sequence per `(seed, client)`.
#[derive(Debug, Clone)]
pub struct Requests {
    rng: Rng,
    cumulative: Vec<f64>,
}

impl Requests {
    pub fn new(seed: u64, client: usize) -> Requests {
        let mut total = 0.0;
        let cumulative = (0..POOL)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Requests {
            rng: Rng::stream(seed, &format!("client{client}")),
            cumulative,
        }
    }
}

impl Iterator for Requests {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let total = *self.cumulative.last().expect("non-empty pool");
        let x = self.rng.unit() * total;
        Some(self.cumulative.partition_point(|&c| c <= x).min(POOL - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_request_order() {
        for w in Workload::ALL {
            assert_eq!(w.scripts(7), w.scripts(7), "{}", w.name());
        }
        let a: Vec<usize> = Requests::new(7, 0).take(500).collect();
        let b: Vec<usize> = Requests::new(7, 0).take(500).collect();
        assert_eq!(a, b);
        let other: Vec<usize> = Requests::new(7, 1).take(500).collect();
        assert_ne!(a, other, "clients draw independent orders");
    }

    #[test]
    fn another_seed_moves_sizes_within_the_band() {
        let (a, b) = (Sizes::draw(1), Sizes::draw(2));
        assert_ne!(a, b);
        assert_ne!(Workload::ServeMix.scripts(1), Workload::ServeMix.scripts(2));
        let within = |n: usize, base: usize| {
            let (lo, hi) = (base as f64 * (1.0 - BAND), base as f64 * (1.0 + BAND));
            (lo - 0.5..=hi + 0.5).contains(&(n as f64))
        };
        for seed in 0..50 {
            let s = Sizes::draw(seed);
            assert!(s.cg.iter().all(|&n| within(n, cg::Params::large().n)));
            assert!(s
                .tc
                .iter()
                .all(|&n| within(n, transitive::Params::large().n)));
            assert!(s.nbody.iter().all(|&n| within(n, nbody::Params::large().n)));
            assert!(s
                .ocean
                .iter()
                .all(|&(nt, nz)| within(nt, ocean::Params::large().nt)
                    && within(nz, ocean::Params::large().nz)));
        }
    }

    #[test]
    fn pool_sources_are_distinct_and_popularity_is_skewed() {
        let pool = pool(3);
        assert_eq!(pool.len(), POOL);
        let mut sources: Vec<&str> = pool.iter().map(|s| s.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), POOL, "every slot is its own cache key");
        let hot = Requests::new(3, 0).take(10_000).filter(|&i| i < 64).count();
        assert!(
            hot > 7_500,
            "most requests fall in the cacheable top 64: {hot}"
        );
    }
}
