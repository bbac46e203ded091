//! Seeded request streams and the fixed priming catalogue.
//!
//! Every stream is drawn from a *fixed corpus* (built from a constant
//! corpus seed), and the run's `--seed` decides the order inside small
//! windows and how each problem is presented: axis permutation,
//! dependence-column order and space-row signs. Two seeds therefore
//! send different bytes in a different order, while the cost mix a
//! timed phase consumes stays the same from run to run.

use cfmap_core::canon::CanonicalProblem;
use cfmap_core::family::FamilyKey;
use cfmap_model::algorithms;
use cfmap_service::engine::canonical_problem;
use cfmap_service::wire::{MapRequest, ParetoRequest};
use cfmap_testkit::Rng;
use std::collections::{HashMap, HashSet};

/// A structural mapping problem `(μ, D, S)` as the client states it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Problem {
    /// Index-set bounds, one per axis.
    pub mu: Vec<i64>,
    /// Dependence columns.
    pub deps: Vec<Vec<i64>>,
    /// Space-map rows (empty for a joint-scope `/pareto` request).
    pub space: Vec<Vec<i64>>,
}

impl Problem {
    /// The `/map` request for this problem.
    pub fn map_request(&self) -> MapRequest {
        let mut req = MapRequest::named("", 1, self.space.clone());
        req.algorithm = None;
        req.mu = self.mu.clone();
        req.deps = Some(self.deps.clone());
        req
    }

    /// The engine's cache identity of this problem.
    pub fn canonical(&self) -> CanonicalProblem {
        canonical_problem(&self.map_request()).expect("benchmark problems are well-formed")
    }

    /// Present the problem in another coordinate order: presented axis
    /// `i` is axis `axes[i]` of `self`; dependence columns come in
    /// `cols` order; space row `r` is negated when `flips[r]`.
    pub fn presented(&self, axes: &[usize], cols: &[usize], flips: &[bool]) -> Problem {
        let permute = |v: &[i64]| axes.iter().map(|&a| v[a]).collect::<Vec<i64>>();
        Problem {
            mu: permute(&self.mu),
            deps: cols.iter().map(|&c| permute(&self.deps[c])).collect(),
            space: self
                .space
                .iter()
                .zip(flips)
                .map(|(row, &flip)| {
                    permute(row)
                        .into_iter()
                        .map(|v| if flip { -v } else { v })
                        .collect()
                })
                .collect(),
        }
    }
}

/// One `/pareto` request of the corpus.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParetoCase {
    /// The problem; `space` is empty for the joint scope.
    pub problem: Problem,
    /// Space-row entry bound override.
    pub entry_bound: Option<i64>,
    /// Track peak link load as a fourth objective.
    pub include_bandwidth: bool,
    /// Bandwidth budget.
    pub max_bandwidth: Option<u64>,
}

impl ParetoCase {
    /// The wire request.
    pub fn request(&self) -> ParetoRequest {
        let mut req = ParetoRequest::named("", 1);
        req.algorithm = None;
        req.mu = self.problem.mu.clone();
        req.deps = Some(self.problem.deps.clone());
        req.space = (!self.problem.space.is_empty()).then(|| self.problem.space.clone());
        req.entry_bound = self.entry_bound;
        req.include_bandwidth = self.include_bandwidth;
        req.max_bandwidth = self.max_bandwidth;
        req
    }
}

/// One timed request: which corpus entry it presents, how, and the
/// serialized body the daemons receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Presented {
    /// Index into the corpus (or working set) it was drawn from.
    pub base: usize,
    /// Presented axis `i` is base axis `axes[i]`.
    pub axes: Vec<usize>,
    /// The problem as sent.
    pub problem: Problem,
    /// The request body.
    pub body: String,
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Keep-alive `/map` hits through the router.
    WarmRouted,
    /// One-shot `/map` misses direct to one daemon.
    MapCold,
    /// One-shot `/pareto` misses direct to one daemon.
    ParetoCold,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-routed" => Some(Workload::WarmRouted),
            "map-cold" => Some(Workload::MapCold),
            "pareto-cold" => Some(Workload::ParetoCold),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRouted => "warm-routed",
            Workload::MapCold => "map-cold",
            Workload::ParetoCold => "pareto-cold",
        }
    }

    /// The route its requests go to.
    pub fn path(self) -> &'static str {
        match self {
            Workload::ParetoCold => "/pareto",
            _ => "/map",
        }
    }
}

/// Matmul's dependence columns (E4).
pub fn matmul_deps() -> Vec<Vec<i64>> {
    algorithms::matmul(2).deps.columns_i64()
}

/// Transitive closure's dependence columns (E5).
pub fn tc_deps() -> Vec<Vec<i64>> {
    algorithms::transitive_closure(2).deps.columns_i64()
}

fn identity_deps(n: usize) -> Vec<Vec<i64>> {
    algorithms::identity_cube(n, 2).deps.columns_i64()
}

/// The E4–E6 paper instances every daemon solves during set-up. The
/// matmul and TC rows hold four sizes each, so the background fitter
/// certifies exactly these two families before the timed phase.
pub fn priming_catalogue() -> Vec<Problem> {
    let mut out = Vec::new();
    for mu in [2, 3, 4, 6] {
        out.push(Problem {
            mu: vec![mu; 3],
            deps: matmul_deps(),
            space: vec![vec![1, 1, -1]],
        });
    }
    for mu in [2, 3, 4, 6] {
        out.push(Problem {
            mu: vec![mu; 3],
            deps: tc_deps(),
            space: vec![vec![0, 0, 1]],
        });
    }
    let bitlevel = |alg: cfmap_model::Uda, space: Vec<Vec<i64>>| Problem {
        mu: alg.index_set.mu().to_vec(),
        deps: alg.deps.columns_i64(),
        space,
    };
    let e5 = |i: usize, n: usize| -> Vec<i64> { (0..n).map(|j| i64::from(i == j)).collect() };
    out.push(bitlevel(
        algorithms::bitlevel_matmul(2, 3),
        vec![e5(0, 5), e5(1, 5)],
    ));
    out.push(bitlevel(
        algorithms::bitlevel_convolution(3, 3),
        vec![e5(0, 4), e5(1, 4)],
    ));
    out.push(bitlevel(
        algorithms::bitlevel_matmul(2, 1),
        vec![vec![1, 1, 0, 0, 0]],
    ));
    out
}

/// Families the priming catalogue holds at least
/// [`cfmap_core::family::MIN_INSTANCES`] sizes of; the fitter must have
/// resolved this many before a timed phase starts.
pub fn priming_fit_families() -> usize {
    family_sizes(&priming_catalogue())
        .values()
        .filter(|n| **n >= cfmap_core::family::MIN_INSTANCES)
        .count()
}

/// Distinct sizes per family over a list of problems.
pub fn family_sizes(problems: &[Problem]) -> HashMap<FamilyKey, usize> {
    let mut sizes: HashMap<FamilyKey, HashSet<i64>> = HashMap::new();
    for p in problems {
        let (key, size) = FamilyKey::of(&p.canonical());
        sizes.entry(key).or_default().insert(size);
    }
    sizes.into_iter().map(|(k, v)| (k, v.len())).collect()
}

/// The E4/E5 closed form a paper instance must hit: `μ(μ+2)+1` for
/// matmul with `S = [1,1,−1]`, `μ(μ+3)+1` for TC with `S = [0,0,1]`,
/// both at uniform μ. `None` for every other problem.
pub fn paper_total_time(p: &Problem) -> Option<i64> {
    let mu = *p.mu.first()?;
    if p.mu.iter().any(|&m| m != mu) || p.space.len() != 1 {
        return None;
    }
    let same = |deps: &[Vec<i64>]| {
        let mut a = p.deps.clone();
        let mut b = deps.to_vec();
        a.sort();
        b.sort();
        a == b
    };
    if same(&matmul_deps()) && p.space[0] == [1, 1, -1] {
        Some(mu * (mu + 2) + 1)
    } else if same(&tc_deps()) && p.space[0] == [0, 0, 1] {
        Some(mu * (mu + 3) + 1)
    } else {
        None
    }
}

const CORPUS_SEED: u64 = 0x00c0_f3a9_2024_0001;

/// Rows of the space map are linearly independent (fraction-free
/// elimination; entries stay tiny for these corpora).
fn full_row_rank(rows: &[Vec<i64>]) -> bool {
    let mut m: Vec<Vec<i128>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| i128::from(v)).collect())
        .collect();
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for c in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| m[r][c] != 0) else {
            continue;
        };
        m.swap(rank, p);
        let pivot = m[rank].clone();
        for (r, row) in m.iter_mut().enumerate() {
            if r != rank && row[c] != 0 {
                let b = row[c];
                for (x, p) in row.iter_mut().zip(&pivot) {
                    *x = *x * pivot[c] - p * b;
                }
            }
        }
        rank += 1;
    }
    rank == rows.len()
}

fn random_row(rng: &mut Rng, n: usize, bound: i64) -> Vec<i64> {
    loop {
        let row: Vec<i64> = (0..n).map(|_| rng.i64_in(-bound, bound)).collect();
        if row.iter().any(|&v| v != 0) {
            return row;
        }
    }
}

fn random_space(rng: &mut Rng, n: usize, rows: usize, bound: i64) -> Vec<Vec<i64>> {
    loop {
        let space: Vec<Vec<i64>> = (0..rows).map(|_| random_row(rng, n, bound)).collect();
        if full_row_rank(&space) {
            return space;
        }
    }
}

/// Admits problems whose canonical key is new and whose family stays
/// below [`cfmap_core::family::MIN_INSTANCES`] sizes, counting the
/// priming catalogue's families as already full.
struct Admission {
    keys: HashSet<CanonicalProblem>,
    families: HashMap<FamilyKey, usize>,
}

impl Admission {
    fn new() -> Admission {
        let mut families = HashMap::new();
        let mut keys = HashSet::new();
        for p in priming_catalogue() {
            let canon = p.canonical();
            families.insert(FamilyKey::of(&canon).0, usize::MAX);
            keys.insert(canon);
        }
        Admission { keys, families }
    }

    fn admit(&mut self, p: &Problem) -> bool {
        let canon = p.canonical();
        let (family, _) = FamilyKey::of(&canon);
        let seen = self.families.get(&family).copied().unwrap_or(0);
        if seen >= cfmap_core::family::MIN_INSTANCES - 1 || self.keys.contains(&canon) {
            return false;
        }
        self.families.insert(family, seen + 1);
        self.keys.insert(canon);
        true
    }
}

/// Size of the `warm-routed` working set.
pub const WORKING_SET: usize = 240;

/// The `warm-routed` working set: distinct canonical `/map` problems,
/// a third of them tie-heavy (identity cubes at uniform μ, bit-level
/// problems with tied word and bit axes), the rest matmul / TC shapes.
pub fn working_set() -> Vec<Problem> {
    let mut rng = Rng::new(CORPUS_SEED ^ 0x3a3a);
    let mut admission = Admission::new();
    let mut out = Vec::with_capacity(WORKING_SET);
    let bm = algorithms::bitlevel_matmul(2, 2).deps.columns_i64();
    let bc = algorithms::bitlevel_convolution(2, 2).deps.columns_i64();
    // Classes take turns per attempt, so a class that runs out of new
    // canonical keys leaves its turns to the others.
    for attempt in 0.. {
        if out.len() == WORKING_SET {
            break;
        }
        let p = match attempt % 8 {
            0 => {
                let mu = rng.i64_in(2, 6);
                Problem {
                    mu: vec![mu; 3],
                    deps: identity_deps(3),
                    space: random_space(&mut rng, 3, 1, 3),
                }
            }
            1 => {
                let mu = rng.i64_in(2, 3);
                Problem {
                    mu: vec![mu; 4],
                    deps: identity_deps(4),
                    space: random_space(&mut rng, 4, 2, 1),
                }
            }
            2 => Problem {
                mu: vec![2; 5],
                deps: identity_deps(5),
                space: random_space(&mut rng, 5, 2, 1),
            },
            3 => Problem {
                mu: vec![2; 5],
                deps: bm.clone(),
                space: random_space(&mut rng, 5, 2, 1),
            },
            4 => {
                let mu = rng.i64_in(2, 3);
                Problem {
                    mu: vec![mu; 4],
                    deps: bc.clone(),
                    space: random_space(&mut rng, 4, 2, 1),
                }
            }
            5 | 6 => Problem {
                mu: (0..3).map(|_| rng.i64_in(2, 9)).collect(),
                deps: matmul_deps(),
                space: random_space(&mut rng, 3, 1, 2),
            },
            _ => Problem {
                mu: (0..3).map(|_| rng.i64_in(2, 7)).collect(),
                deps: tc_deps(),
                space: random_space(&mut rng, 3, 1, 2),
            },
        };
        if admission.admit(&p) {
            out.push(p);
        }
    }
    out
}

/// Size of the `map-cold` corpus; a timed phase consumes a prefix.
pub const MAP_COLD_CORPUS: usize = 16_000;

/// The `map-cold` corpus: distinct canonical 3-D matmul and TC problems
/// with per-axis μ and one space row, none in a family that reaches
/// three sizes (so every request is a fresh search).
pub fn map_cold_corpus() -> Vec<Problem> {
    let mut rng = Rng::new(CORPUS_SEED ^ 0xc01d);
    let mut admission = Admission::new();
    let mut out = Vec::with_capacity(MAP_COLD_CORPUS);
    while out.len() < MAP_COLD_CORPUS {
        let p = if out.len() % 2 == 0 {
            Problem {
                mu: (0..3).map(|_| rng.i64_in(10, 34)).collect(),
                deps: matmul_deps(),
                space: random_space(&mut rng, 3, 1, 2),
            }
        } else {
            Problem {
                mu: (0..3).map(|_| rng.i64_in(8, 24)).collect(),
                deps: tc_deps(),
                space: random_space(&mut rng, 3, 1, 2),
            }
        };
        if admission.admit(&p) {
            out.push(p);
        }
    }
    out
}

/// Size of the `pareto-cold` corpus.
pub const PARETO_CORPUS: usize = 4000;

/// The `pareto-cold` corpus, in windows of 20: 14 joint-scope frontiers
/// at the default entry bound, 3 fixed-space frontiers, and 3
/// bandwidth-tracked joint frontiers at small μ with `entry_bound` 1.
pub fn pareto_corpus() -> Vec<ParetoCase> {
    let mut rng = Rng::new(CORPUS_SEED ^ 0x9a2e);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(PARETO_CORPUS);
    while out.len() < PARETO_CORPUS {
        // Joint-scope frontiers are cached by the problem verbatim, so
        // the dependence-column order tells otherwise equal requests apart.
        let mut deps = if rng.u64_below(2) == 0 {
            matmul_deps()
        } else {
            tc_deps()
        };
        shuffle(&mut rng, &mut deps);
        let case = match out.len() % 20 {
            0..=13 => ParetoCase {
                problem: Problem {
                    mu: (0..3).map(|_| rng.i64_in(2, 6)).collect(),
                    deps,
                    space: vec![],
                },
                entry_bound: None,
                include_bandwidth: false,
                max_bandwidth: None,
            },
            14..=16 => ParetoCase {
                problem: Problem {
                    mu: (0..3).map(|_| rng.i64_in(2, 8)).collect(),
                    deps,
                    space: random_space(&mut rng, 3, 1, 2),
                },
                entry_bound: None,
                include_bandwidth: false,
                max_bandwidth: None,
            },
            _ => {
                let mu: Vec<i64> = loop {
                    let mu: Vec<i64> = (0..3).map(|_| rng.i64_in(1, 3)).collect();
                    if mu.iter().product::<i64>() <= 8 && mu.iter().any(|&m| m > 1) {
                        break mu;
                    }
                };
                let budget = rng.u64_below(4);
                ParetoCase {
                    problem: Problem {
                        mu,
                        deps,
                        space: vec![],
                    },
                    entry_bound: Some(1),
                    include_bandwidth: true,
                    max_bandwidth: (budget > 0).then_some(budget + 1),
                }
            }
        };
        // Fixed-space frontiers are cached by canonical key, the other
        // scopes by the problem verbatim.
        let identity = if case.problem.space.is_empty() {
            format!(
                "{:?}",
                (&case.problem, case.include_bandwidth, case.max_bandwidth)
            )
        } else {
            format!("{:?}", case.problem.canonical())
        };
        if seen.insert(identity) {
            out.push(case);
        }
    }
    out
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.u64_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut p);
    p
}

/// A seeded presentation of `p`: random axis order, column order and
/// space-row signs.
fn present(rng: &mut Rng, p: &Problem) -> (Vec<usize>, Problem) {
    let axes = permutation(rng, p.mu.len());
    let cols = permutation(rng, p.deps.len());
    let flips: Vec<bool> = p.space.iter().map(|_| rng.u64_below(2) == 1).collect();
    let shown = p.presented(&axes, &cols, &flips);
    (axes, shown)
}

/// Corpus order with each window of `window` entries shuffled by `rng`:
/// any prefix holds nearly the same entries whatever the seed.
fn windowed_order(rng: &mut Rng, len: usize, window: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for chunk in order.chunks_mut(window) {
        shuffle(rng, chunk);
    }
    order
}

/// Length of the pre-generated `warm-routed` stream; the timed phase
/// wraps around it when it runs longer.
pub const WARM_STREAM: usize = 20_000;

/// The `warm-routed` stream: seeded presentations of working-set
/// problems in seeded order.
pub fn warm_stream(seed: u64, working_set: &[Problem]) -> Vec<Presented> {
    let mut rng = Rng::new(seed ^ 0x3a3a_0000);
    (0..WARM_STREAM)
        .map(|_| {
            let base = rng.u64_below(working_set.len() as u64) as usize;
            let (axes, problem) = present(&mut rng, &working_set[base]);
            let body = problem.map_request().to_json().serialize();
            Presented {
                base,
                axes,
                problem,
                body,
            }
        })
        .collect()
}

/// The `map-cold` stream: every corpus problem once, presented by seed,
/// in seed-shuffled windows of 32.
pub fn map_cold_stream(seed: u64, corpus: &[Problem]) -> Vec<Presented> {
    let mut rng = Rng::new(seed ^ 0xc01d_0000);
    windowed_order(&mut rng, corpus.len(), 32)
        .into_iter()
        .map(|base| {
            let (axes, problem) = present(&mut rng, &corpus[base]);
            let body = problem.map_request().to_json().serialize();
            Presented {
                base,
                axes,
                problem,
                body,
            }
        })
        .collect()
}

/// The `pareto-cold` stream: every corpus request once, presented by
/// seed, in seed-shuffled windows of 20 (one full scope mix each).
/// Presentations that would repeat an earlier verbatim request are
/// redrawn, so every request misses the frontier cache.
pub fn pareto_stream(seed: u64, corpus: &[ParetoCase]) -> Vec<(ParetoCase, Presented)> {
    let mut rng = Rng::new(seed ^ 0x9a2e_0000);
    let mut bodies = HashSet::new();
    let mut out = Vec::with_capacity(corpus.len());
    for base in windowed_order(&mut rng, corpus.len(), 20) {
        for _ in 0..16 {
            let (axes, problem) = present(&mut rng, &corpus[base].problem);
            let case = ParetoCase {
                problem: problem.clone(),
                ..corpus[base].clone()
            };
            let body = case.request().to_json().serialize();
            if bodies.insert(body.clone()) {
                out.push((
                    case,
                    Presented {
                        base,
                        axes,
                        problem,
                        body,
                    },
                ));
                break;
            }
        }
    }
    out
}
