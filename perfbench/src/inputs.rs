//! One workload's generated inputs, and the checks on what came back.

use crate::check::{check_map, check_pareto, check_warm};
use crate::fleet::Metrics;
use crate::load::Sample;
use crate::streams::{
    map_cold_corpus, map_cold_stream, pareto_corpus, pareto_stream, warm_stream, working_set,
    ParetoCase, Presented, Problem, Workload,
};
use cfmap_service::wire::{MapOutcome, MapResponse, ParetoResponse};
use std::str::FromStr;

/// A workload's stream, generated and serialized before any timing.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The `warm-routed` working set (empty otherwise).
    pub working_set: Vec<Problem>,
    /// The stream, in send order.
    pub requests: Vec<Presented>,
    /// For `pareto-cold`, the request behind each stream entry.
    pub pareto_cases: Vec<ParetoCase>,
}

impl Inputs {
    /// Generate `workload`'s stream for `seed`.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let mut working = Vec::new();
        let mut pareto_cases = Vec::new();
        let requests = match workload {
            Workload::WarmRouted => {
                working = working_set();
                warm_stream(seed, &working)
            }
            Workload::MapCold => map_cold_stream(seed, &map_cold_corpus()),
            Workload::ParetoCold => {
                let (cases, requests) = pareto_stream(seed, &pareto_corpus()).into_iter().unzip();
                pareto_cases = cases;
                requests
            }
        };
        Inputs {
            workload,
            working_set: working,
            requests,
            pareto_cases,
        }
    }

    /// Check one timed reply: a transport error, a non-200 status, an
    /// undecodable body, or a wrong answer is a failure.
    pub fn check(&self, warm_answers: &[MapOutcome], sample: &Sample) -> Result<(), String> {
        let reply = sample
            .reply
            .as_ref()
            .map_err(|e| format!("transport: {e}"))?;
        if reply.status != 200 {
            return Err(format!("status {}: {}", reply.status, reply.body));
        }
        let i = sample.index % self.requests.len();
        let request = &self.requests[i];
        match self.workload {
            Workload::WarmRouted => {
                let resp = MapResponse::from_str(&reply.body).map_err(|e| e.to_string())?;
                let base = request.base;
                check_warm(
                    &self.working_set[base],
                    &warm_answers[base],
                    &request.axes,
                    &resp,
                )
            }
            Workload::MapCold => {
                let resp = MapResponse::from_str(&reply.body).map_err(|e| e.to_string())?;
                check_map(&request.problem, &resp)
            }
            Workload::ParetoCold => {
                let resp = ParetoResponse::from_str(&reply.body).map_err(|e| e.to_string())?;
                check_pareto(&self.pareto_cases[i], &resp)
            }
        }
    }

    /// The workload-identity checks on `/metrics` scraped before and
    /// after a phase of `requests` requests: a phase that did other work
    /// than its workload promises is refused.
    pub fn identity(
        &self,
        before: &[Metrics],
        after: &[Metrics],
        requests: usize,
    ) -> Result<(), String> {
        let n = requests as f64;
        for (b, a) in before.iter().zip(after) {
            let d = |name: &str| a.get(name) - b.get(name);
            let fail = |what: String| {
                Err(format!(
                    "{} identity check failed: {what}",
                    self.workload.name()
                ))
            };
            if d("cfmap_intlin_bigint_spills_total") != 0.0 {
                return fail(format!(
                    "{} bigint spills",
                    d("cfmap_intlin_bigint_spills_total")
                ));
            }
            match self.workload {
                Workload::WarmRouted if d("cfmap_solves_total") != 0.0 => {
                    return fail(format!("a backend ran {} solves", d("cfmap_solves_total")));
                }
                Workload::MapCold => {
                    let (solves, misses) = (d("cfmap_solves_total"), d("cfmap_cache_misses_total"));
                    let family = d("cfmapd_family_hits_total");
                    if solves != n || misses != n || family != 0.0 {
                        return fail(format!(
                            "{requests} requests ran {solves} solves, {misses} cache misses, {family} family hits"
                        ));
                    }
                }
                Workload::ParetoCold if d("cfmap_pareto_solves_total") != n => {
                    return fail(format!(
                        "{requests} requests ran {} frontier solves",
                        d("cfmap_pareto_solves_total")
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}
