//! End-to-end benchmark of `cfmapd` and `cfmapd-router`.
//!
//! Three closed-loop workloads run against real daemon processes:
//! `warm-routed` (keep-alive cache hits through the router),
//! `map-cold` (one-shot `/map` searches) and `pareto-cold` (one-shot
//! `/pareto` frontiers). A traced run replays the same streams through
//! each layer's public calls in process and reports per-layer timings.
//! See `WORKLOADS.md` for what each workload loads and bypasses.

pub mod check;
pub mod fleet;
pub mod inputs;
pub mod load;
pub mod streams;
pub mod trace;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}
