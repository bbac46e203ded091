//! Independent answer checks.
//!
//! Nothing here asks the engine or the search for a verdict: validity is
//! checked on the dependence columns, conflict-freedom by brute-force
//! enumeration of the index set, and frontier dominance by a direct
//! comparison of objective vectors.

use crate::streams::{paper_total_time, ParetoCase, Problem};
use cfmap_core::oracle::is_conflict_free_by_enumeration;
use cfmap_core::{Certification, MappingMatrix, SpaceMap};
use cfmap_model::{IndexSet, LinearSchedule};
use cfmap_service::wire::{MapOutcome, MapResponse, ParetoPointWire, ParetoResponse};

fn dot(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `Π·d̄ ≥ 1` on every dependence, `t = 1 + Σ|π_i|μ_i`, and `[S; Π]`
/// injective on the index set by enumeration.
pub fn check_design(
    p: &Problem,
    space: &[Vec<i64>],
    pi: &[i64],
    total_time: i64,
) -> Result<(), String> {
    if pi.len() != p.mu.len() {
        return Err(format!(
            "schedule {pi:?} has the wrong length for n = {}",
            p.mu.len()
        ));
    }
    if let Some(d) = p.deps.iter().find(|d| dot(pi, d) < 1) {
        return Err(format!(
            "schedule {pi:?} violates Π·d ≥ 1 on dependence {d:?}"
        ));
    }
    let expected: i64 = 1 + pi.iter().zip(&p.mu).map(|(x, m)| x.abs() * m).sum::<i64>();
    if total_time != expected {
        return Err(format!(
            "total_time {total_time} ≠ 1 + Σ|π_i|μ_i = {expected} for Π = {pi:?}"
        ));
    }
    let rows: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
    let mapping = MappingMatrix::new(SpaceMap::from_rows(&rows), LinearSchedule::new(pi));
    if !is_conflict_free_by_enumeration(&mapping, &IndexSet::new(&p.mu)) {
        return Err(format!(
            "[S; Π] with S = {space:?}, Π = {pi:?} maps two index points together"
        ));
    }
    Ok(())
}

/// The design inside a `/map` answer, or why there is none.
pub fn map_outcome(resp: &MapResponse) -> Result<&MapOutcome, String> {
    match resp {
        MapResponse::Ok(o) if o.certification == Certification::Optimal => Ok(o),
        MapResponse::Ok(o) => Err(format!("answer is {:?}, not optimal", o.certification)),
        other => Err(format!("expected a design, got {other:?}")),
    }
}

/// Check a `/map` answer for `p`, including the paper's closed forms
/// where `p` is an Example 5.1 / 5.2 instance.
pub fn check_map(p: &Problem, resp: &MapResponse) -> Result<(), String> {
    let o = map_outcome(resp)?;
    if o.objective + 1 != o.total_time {
        return Err(format!(
            "objective {} and total_time {} disagree",
            o.objective, o.total_time
        ));
    }
    check_design(p, &p.space, &o.schedule, o.total_time)?;
    match paper_total_time(p) {
        Some(t) if t != o.total_time => Err(format!(
            "paper instance μ = {:?} answered t = {}, the paper's optimum is {t}",
            p.mu, o.total_time
        )),
        _ => Ok(()),
    }
}

/// Sort space rows after sign normalization (first nonzero positive).
fn row_set(rows: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = rows
        .iter()
        .map(|r| {
            let neg = r.iter().find(|&&v| v != 0).is_some_and(|&v| v < 0);
            r.iter().map(|&v| if neg { -v } else { v }).collect()
        })
        .collect();
    out.sort();
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..n {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

/// Whether relabelling axis `i` as `tau[i]` maps `p` onto itself: μ,
/// the dependence set and the space rows (up to sign and order) all
/// stay put.
fn is_automorphism(p: &Problem, tau: &[usize]) -> bool {
    let apply = |v: &[i64]| tau.iter().map(|&t| v[t]).collect::<Vec<i64>>();
    if apply(&p.mu) != p.mu {
        return false;
    }
    let mut deps: Vec<Vec<i64>> = p.deps.iter().map(|d| apply(d)).collect();
    let mut orig = p.deps.clone();
    deps.sort();
    orig.sort();
    deps == orig
        && row_set(&p.space.iter().map(|r| apply(r)).collect::<Vec<_>>()) == row_set(&p.space)
}

/// A `warm-routed` answer against the set-up answer of its base
/// problem: the reply, pulled back through the presentation's axis
/// permutation, must equal `expected` — or, for problems with
/// symmetric axes, be its image under an axis automorphism of the base
/// problem with the same total time.
pub fn check_warm(
    base: &Problem,
    expected: &MapOutcome,
    axes: &[usize],
    resp: &MapResponse,
) -> Result<(), String> {
    let o = map_outcome(resp)?;
    if !o.cached {
        return Err("warm request was not served from the cache".into());
    }
    if o.total_time != expected.total_time {
        return Err(format!(
            "warm answer t = {} but set-up answered t = {}",
            o.total_time, expected.total_time
        ));
    }
    if o.schedule.len() != axes.len() {
        return Err("warm answer has the wrong schedule length".into());
    }
    let mut pulled = vec![0i64; axes.len()];
    for (i, &a) in axes.iter().enumerate() {
        pulled[a] = o.schedule[i];
    }
    if pulled == expected.schedule {
        return Ok(());
    }
    let symmetric = permutations(axes.len()).iter().any(|tau| {
        is_automorphism(base, tau)
            && tau
                .iter()
                .map(|&t| expected.schedule[t])
                .eq(pulled.iter().copied())
    });
    if symmetric {
        Ok(())
    } else {
        Err(format!(
            "warm answer pulls back to {pulled:?}, set-up answered {:?}",
            expected.schedule
        ))
    }
}

/// Objective vector of a frontier point, in the order the frontier
/// minimizes: time, processors, wires, and bandwidth when tracked.
fn objectives(p: &ParetoPointWire) -> Vec<i64> {
    let mut v = vec![p.total_time, p.processors as i64, p.wires];
    if let Some(b) = p.bandwidth {
        v.push(b as i64);
    }
    v
}

/// `a` dominates `b`: no worse on every axis, better on one.
fn dominates(a: &[i64], b: &[i64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// A space row divided by the gcd of its entries: the service treats
/// `S` and a rescaled `S` as one problem and costs the reduced rows.
fn reduced(row: &[i64]) -> Vec<i64> {
    let g = row.iter().fold(0i64, |g, &v| {
        let (mut a, mut b) = (g, v.abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    });
    row.iter().map(|v| v / g.max(1)).collect()
}

/// Processor count as the frontier's cost model defines it: the
/// bounding box of the array, `Π_r (1 + Σ_i |s_ri| μ_i)` over the
/// reduced rows.
fn processors(p: &Problem, space: &[Vec<i64>]) -> u64 {
    space
        .iter()
        .map(|row| {
            1 + reduced(row)
                .iter()
                .zip(&p.mu)
                .map(|(s, m)| s.abs() * m)
                .sum::<i64>()
        })
        .product::<i64>() as u64
}

/// Total wire length: `Σ_d Σ_r |s_r·d|` over the reduced rows.
fn wires(p: &Problem, space: &[Vec<i64>]) -> i64 {
    let rows: Vec<Vec<i64>> = space.iter().map(|r| reduced(r)).collect();
    p.deps
        .iter()
        .flat_map(|d| rows.iter().map(move |row| dot(row, d).abs()))
        .sum()
}

/// Check a `/pareto` answer: every point is a valid, conflict-free
/// design with the processor and wire counts its space map gives, within the
/// bandwidth budget, in the requested scope; no point dominates or
/// repeats another.
pub fn check_pareto(case: &ParetoCase, resp: &ParetoResponse) -> Result<(), String> {
    let o = match resp {
        ParetoResponse::Ok(o) => o,
        other => return Err(format!("expected a frontier, got {other:?}")),
    };
    if !o.verified || o.frontier_size != o.points.len() as u64 {
        return Err("frontier is unverified or miscounted".into());
    }
    let p = &case.problem;
    for pt in &o.points {
        if !p.space.is_empty() && pt.space != p.space {
            return Err(format!(
                "fixed-space point has S = {:?}, asked for {:?}",
                pt.space, p.space
            ));
        }
        check_design(p, &pt.space, &pt.schedule, pt.total_time)?;
        let procs = processors(p, &pt.space);
        if procs != pt.processors {
            return Err(format!(
                "point claims {} processors, S gives {procs}",
                pt.processors
            ));
        }
        let wires = wires(p, &pt.space);
        if wires != pt.wires {
            return Err(format!("point claims {} wires, Σ|S·d̄| = {wires}", pt.wires));
        }
        match (case.include_bandwidth, pt.bandwidth) {
            (true, None) => return Err("bandwidth-tracked point has no bandwidth".into()),
            (false, Some(_)) => return Err("untracked point reports a bandwidth".into()),
            (true, Some(b)) if case.max_bandwidth.is_some_and(|cap| b > cap) => {
                return Err(format!(
                    "point bandwidth {b} exceeds the budget {:?}",
                    case.max_bandwidth
                ))
            }
            _ => {}
        }
    }
    let vectors: Vec<Vec<i64>> = o.points.iter().map(objectives).collect();
    for (i, a) in vectors.iter().enumerate() {
        for (j, b) in vectors.iter().enumerate() {
            if i != j && (a == b || dominates(a, b)) {
                return Err(format!("frontier point {a:?} dominates or repeats {b:?}"));
            }
        }
    }
    Ok(())
}
