//! Differential suite for the bandwidth probe: the closed-form mesh
//! kernel `peak_link_load` must return exactly what the ILP-routed
//! reference `peak_link_load_routed` returns, on seeded random problems
//! that cover 1- and 2-row space maps, non-positive schedule times,
//! unroutable designs, stationary channels and `i64` overflow.

use cfmap::prelude::*;
use cfmap::systolic::{peak_link_load, peak_link_load_routed};
use cfmap_model::{DependenceMatrix, IndexSet, Uda};
use cfmap_testkit::{seed_for, Rng};

/// A random problem: `n` in 2–4, `μᵢ` in 1–4, 1–4 nonzero dependences
/// with entries in `[−2, 2]`; lexicographically positive ones when
/// `lex_positive`, as in a real loop nest.
fn random_alg(rng: &mut Rng, lex_positive: bool) -> Uda {
    let n = rng.usize_in(2, 4);
    let mu: Vec<i64> = (0..n).map(|_| rng.i64_in(1, 4)).collect();
    let m = rng.usize_in(1, 4);
    let cols: Vec<Vec<i64>> = (0..m)
        .map(|_| loop {
            let mut d: Vec<i64> = (0..n).map(|_| rng.i64_in(-2, 2)).collect();
            match d.iter().find(|&&x| x != 0) {
                None => continue,
                Some(&first) if lex_positive && first < 0 => d.iter_mut().for_each(|x| *x = -*x),
                Some(_) => {}
            }
            break d;
        })
        .collect();
    let refs: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
    Uda::new("random", IndexSet::new(&mu), DependenceMatrix::from_columns(&refs))
}

/// A random mapping for `alg` with 1 or 2 space rows and entries in
/// `[−2, 2]`. The schedule has small entries in `[−2, 4]`, or, when
/// `steep`, dominant leading entries `≈ 3·5^(n−1−i)` that give most
/// lexicographically positive dependences room to route.
fn random_mapping(rng: &mut Rng, alg: &Uda, steep: bool) -> MappingMatrix {
    let n = alg.dim();
    let rows = rng.usize_in(1, 2);
    let s: Vec<Vec<i64>> = (0..rows).map(|_| (0..n).map(|_| rng.i64_in(-2, 2)).collect()).collect();
    let pi: Vec<i64> = (0..n)
        .map(|i| {
            if steep {
                3 * 5i64.pow((n - 1 - i) as u32) + rng.i64_in(-1, 1)
            } else {
                rng.i64_in(-2, 4)
            }
        })
        .collect();
    let mut all: Vec<&[i64]> = s.iter().map(Vec::as_slice).collect();
    all.push(&pi);
    MappingMatrix::from_rows(&all)
}

fn assert_agree(alg: &Uda, m: &MappingMatrix, ctx: &str) -> Option<u64> {
    let fast = peak_link_load(alg, m);
    let routed = peak_link_load_routed(alg, m);
    assert_eq!(
        fast,
        routed,
        "{ctx}: kernel vs routed reference on μ={:?} D={:?} T={m}",
        alg.index_set.mu(),
        alg.deps.columns_i64()
    );
    fast
}

#[test]
fn kernel_matches_routed_reference_on_random_problems() {
    let mut rng = Rng::new(seed_for("kernel_matches_routed_reference_on_random_problems"));
    let (mut loaded, mut unroutable, mut two_row, mut stationary, mut nonpositive) =
        (0, 0, 0, 0, 0);
    for case in 0..600 {
        let realistic = case % 2 == 0;
        let alg = random_alg(&mut rng, realistic);
        let m = random_mapping(&mut rng, &alg, realistic);
        let pd = m.schedule().dep_times(&alg.deps);
        let sd = m.space().as_mat() * alg.deps.as_mat();
        nonpositive += usize::from(pd.iter().any(|t| !t.is_positive()));
        stationary += usize::from((0..sd.ncols()).any(|c| sd.col(c).is_zero()));
        two_row += usize::from(m.k() == 3);
        match assert_agree(&alg, &m, &format!("case {case}")) {
            Some(0) => {}
            Some(_) => loaded += 1,
            None => unroutable += 1,
        }
    }
    // The generator must reach every regime the kernel distinguishes.
    for (what, count) in [
        ("loaded", loaded),
        ("unroutable", unroutable),
        ("two-row S", two_row),
        ("stationary channel", stationary),
        ("Π·d̄ ≤ 0", nonpositive),
    ] {
        assert!(count >= 50, "only {count} {what} cases in 600");
    }
}

#[test]
fn kernel_matches_on_paper_designs() {
    let cases: [(Uda, &[&[i64]]); 4] = [
        (algorithms::matmul(4), &[&[1, 1, -1], &[1, 4, 1]]),
        (algorithms::matmul(3), &[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]]),
        (algorithms::transitive_closure(4), &[&[0, 0, 1], &[5, 1, 1]]),
        (algorithms::matmul(2), &[&[2, -1, 1], &[3, 1, 2]]),
    ];
    for (alg, rows) in &cases {
        let m = MappingMatrix::from_rows(rows);
        assert!(assert_agree(alg, &m, &alg.name).is_some(), "{}: routable", alg.name);
    }
}

#[test]
fn stationary_only_designs_load_no_link() {
    // Every dependence maps to displacement 0: no hop anywhere.
    let alg = algorithms::matmul(3);
    let m = MappingMatrix::from_rows(&[&[0, 0, 0], &[1, 1, 1]]);
    assert_eq!(assert_agree(&alg, &m, "all stationary"), Some(0));
}

#[test]
fn dependences_longer_than_the_box_carry_no_data() {
    // d̄ = [2, 0] on μ = [1, 3]: no producer has its consumer in the box.
    let alg = Uda::new("long", IndexSet::new(&[1, 3]), DependenceMatrix::from_columns(&[&[2, 0]]));
    let m = MappingMatrix::from_rows(&[&[1, 0], &[2, 1]]);
    assert_eq!(assert_agree(&alg, &m, "long dependence"), Some(0));
}

#[test]
fn negative_schedule_time_is_unroutable_even_when_stationary() {
    // Π·d̄ = −1 leaves no room even for a zero-hop route.
    let alg = Uda::new("neg", IndexSet::new(&[2, 2]), DependenceMatrix::from_columns(&[&[1, 0]]));
    let m = MappingMatrix::from_rows(&[&[0, 1], &[-1, 1]]);
    assert_eq!(assert_agree(&alg, &m, "negative budget"), None);
}

#[test]
fn route_level_i64_overflow_is_none_on_both_paths() {
    // Π·d̄ = 2·2⁶² overflows i64: the routing ILP refuses it and so must
    // the closed form.
    let big = 1i64 << 62;
    let alg = Uda::new("big", IndexSet::new(&[1, 1]), DependenceMatrix::from_columns(&[&[1, 1]]));
    let m = MappingMatrix::from_rows(&[&[1, 0], &[big, big]]);
    assert_eq!(assert_agree(&alg, &m, "Π·d̄ overflow"), None);
    // Likewise a displacement S·d̄ outside i64.
    let m = MappingMatrix::from_rows(&[&[big, big], &[1, 1]]);
    assert_eq!(assert_agree(&alg, &m, "S·d̄ overflow"), None);
}

#[test]
fn keys_wider_than_u64_still_match() {
    // S·d̄ = 1 and Π·d̄ = 2, but PE and cycle spans of about 2³⁵ each
    // need a key box wider than u64; the answer must not change.
    let big = 1i64 << 33;
    let alg = Uda::new("wide", IndexSet::new(&[2, 2]), DependenceMatrix::from_columns(&[&[1, 1]]));
    let m = MappingMatrix::from_rows(&[&[big, 1 - big], &[big, 2 - big]]);
    assert_eq!(assert_agree(&alg, &m, "wide keys"), Some(1));
}
