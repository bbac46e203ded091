//! The traced run: each request's real round trip is the root span,
//! then the same body is replayed through each layer's public calls on
//! an in-process mirror engine, one span per call.
//!
//! Spans stay in memory and are written out once the run ends. A span's
//! self time is its duration minus the time its child spans cover.

use crate::inputs::Inputs;
use crate::load::{closed_loop, Sample};
use crate::streams::{priming_catalogue, Workload};
use cfmap_core::canon::canonicalize;
use cfmap_core::{
    HybridPolicy, MappingMatrix, ParetoSearch, Procedure51, ResourceModel, SymmetryMode, TieBreak,
};
use cfmap_model::{DependenceMatrix, IndexSet, Uda};
use cfmap_service::client::Client;
use cfmap_service::engine::{canonical_problem, Engine};
use cfmap_service::json::parse;
use cfmap_service::wire::{MapRequest, MapResponse, ParetoRequest, ParetoResponse};
use cfmap_systolic::{peak_link_load, Simulator};
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `canon.canonicalize`.
    pub name: &'static str,
    /// Stream index of the request it belongs to.
    pub request: usize,
    /// Index of the parent span in the same buffer.
    pub parent: Option<usize>,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span buffer.
pub struct Tracer {
    origin: Instant,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// End a recorded span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, request, parent, start, Instant::now());
        (out, id)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Layer counters gathered while replaying.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Procedure 5.1 solves that returned a schedule.
    pub solves: u64,
    /// Procedure 5.1 candidates enumerated.
    pub candidates: u64,
    /// Candidates accepted.
    pub accepted: u64,
    /// Hermite normal forms computed.
    pub hnf: u64,
    /// Orbit members skipped by the symmetry quotient.
    pub orbits_pruned: u64,
    /// Conflict-memo hits.
    pub memo_hits: u64,
    /// Conflict-memo misses.
    pub memo_misses: u64,
    /// Total Procedure 5.1 solve time, ns.
    pub solve_ns: u64,
    /// Frontier searches that returned a frontier.
    pub frontiers: u64,
    /// Pareto candidates examined.
    pub pareto_candidates: u64,
    /// Pareto designs dropped as dominated.
    pub dominated_pruned: u64,
    /// Frontier points returned.
    pub frontier_points: u64,
}

/// An in-process engine primed like the daemons: the paper catalogue,
/// plus the working set (empty except in `warm-routed`). Priming also
/// warms this process's conflict memo the way set-up warms a daemon's.
pub fn mirror_engine(inputs: &Inputs) -> Engine {
    let engine = Engine::new(8192, 8);
    for p in priming_catalogue().iter().chain(&inputs.working_set) {
        let _ = engine.resolve(&p.map_request());
    }
    engine
}

fn uda(mu: &[i64], deps: &[Vec<i64>]) -> Uda {
    let refs: Vec<&[i64]> = deps.iter().map(Vec::as_slice).collect();
    Uda::new(
        "request",
        IndexSet::new(mu),
        DependenceMatrix::from_columns(&refs),
    )
}

/// Replay one `/map` body: decode, a warm lookup on the mirror
/// (`warm-routed`), canonicalize, a fresh Procedure 5.1 solve
/// (`map-cold`), then encode the daemon's answer.
fn replay_map(
    t: &mut Tracer,
    c: &mut Counters,
    mirror: Option<&Engine>,
    i: usize,
    root: usize,
    body: &str,
    answer: &str,
) {
    let (req, _) = t.time("wire.decode", i, Some(root), || {
        parse(body)
            .ok()
            .and_then(|j| MapRequest::from_json(&j).ok())
    });
    let Some(req) = req else { return };
    if let Some(mirror) = mirror {
        // Resolve first, so the separate canonicalization below runs as
        // warm as the one inside `resolve` and their difference is the
        // lookup alone.
        t.time("cache.resolve", i, Some(root), || {
            std::hint::black_box(mirror.resolve(&req))
        });
    }
    let (canon, _) = t.time("canon.canonicalize", i, Some(root), || {
        canonical_problem(&req)
    });
    let Ok(canon) = canon else { return };
    if mirror.is_none() {
        let alg = canon.uda("canonical");
        let space = canon.space_map();
        let proc = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .memo(true)
            .symmetry(SymmetryMode::Quotient)
            .hybrid(HybridPolicy::default());
        let (outcome, id) = t.time("search.solve", i, Some(root), || proc.solve());
        if let Ok(o) = outcome {
            let tel = &o.telemetry;
            c.solves += 1;
            c.candidates += tel.enumerated;
            c.accepted += tel.accepted;
            c.hnf += tel.hnf_computations;
            c.orbits_pruned += tel.orbits_pruned;
            c.memo_hits += tel.memo_hits;
            c.memo_misses += tel.memo_misses;
            c.solve_ns += t.spans[id].ns();
        }
    }
    if let Ok(resp) = MapResponse::from_str(answer) {
        t.time("wire.encode", i, Some(root), || resp.to_json().serialize());
    }
}

/// Replay one `/pareto` body: decode, canonicalize (fixed-space scope
/// only), the frontier search with each bandwidth probe timed, the
/// simulator re-verification of every point, then encode.
fn replay_pareto(
    t: &mut Tracer,
    c: &mut Counters,
    i: usize,
    root: usize,
    body: &str,
    answer: &str,
) {
    let (req, _) = t.time("wire.decode", i, Some(root), || {
        parse(body)
            .ok()
            .and_then(|j| ParetoRequest::from_json(&j).ok())
    });
    let Some(req) = req else { return };
    let Some(deps) = &req.deps else { return };
    let alg = uda(&req.mu, deps);
    let canon = req.space.as_ref().map(|rows| {
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let space = cfmap_core::SpaceMap::from_rows(&refs);
        t.time("canon.canonicalize", i, Some(root), || {
            canonicalize(&alg, &space)
        })
        .0
    });
    let (solve_alg, solve_space) = match &canon {
        Some(c) => (c.problem.uda("canonical"), Some(c.problem.space_map())),
        None => (alg, None),
    };
    let model = ResourceModel {
        max_processors: None,
        max_wires: None,
        max_bandwidth: req.max_bandwidth,
        include_bandwidth: req.include_bandwidth,
    };
    let probes: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());
    let probe = |m: &MappingMatrix| {
        let start = Instant::now();
        let load = peak_link_load(&solve_alg, m);
        probes
            .lock()
            .expect("probe log is never poisoned")
            .push((start, Instant::now()));
        load
    };
    let mut search = ParetoSearch::new(&solve_alg)
        .resources(model)
        .memo(true)
        .symmetry(SymmetryMode::Quotient);
    if let Some(s) = &solve_space {
        search = search.fixed_space(s);
    }
    if let Some(b) = req.entry_bound {
        search = search.entry_bound(b);
    }
    if req.include_bandwidth {
        search = search.bandwidth_probe(&probe);
    }
    let (frontier, solve_id) = t.time("pareto.solve", i, Some(root), || search.solve());
    for (start, end) in probes.into_inner().expect("probe log is never poisoned") {
        t.record("links.peak_link_load", i, Some(solve_id), start, end);
    }
    let Ok(frontier) = frontier else { return };
    c.frontiers += 1;
    c.pareto_candidates += frontier.candidates_examined;
    c.dominated_pruned += frontier.dominated_pruned;
    c.frontier_points += frontier.points.len() as u64;
    for p in &frontier.points {
        t.time("sim.verify", i, Some(root), || {
            std::hint::black_box(Simulator::new(&solve_alg, &p.mapping).run().is_ok())
        });
    }
    if let Ok(resp) = ParetoResponse::from_str(answer) {
        t.time("wire.encode", i, Some(root), || resp.to_json().serialize());
    }
}

/// What the traced phase produced.
pub struct Traced {
    /// The round trips, for the answer checks and the root latency.
    pub samples: Vec<Sample>,
    /// Every span.
    pub spans: Vec<Span>,
    /// Layer counters.
    pub counters: Counters,
}

/// Run the traced phase: the same closed loop as the timed phase, from
/// stream position `start` for `seconds`, with each round trip followed
/// by its in-process replay; then, in `warm-routed`, the direct pass
/// that times the router hop.
pub fn traced_loop(
    inputs: &Inputs,
    addr: &str,
    mirror: &Engine,
    start: usize,
    seconds: f64,
) -> Traced {
    let w = inputs.workload;
    let warm = w == Workload::WarmRouted;
    let mut t = Tracer::new(Instant::now());
    let mut c = Counters::default();
    let phase = closed_loop(addr, w, &inputs.requests, start, seconds, |s| {
        let i = s.index;
        let root = t.record("request", i, None, s.sent, s.sent);
        t.record("http.roundtrip", i, Some(root), s.sent, s.sent + s.latency);
        if let Ok(r) = &s.reply {
            let body = &inputs.requests[i % inputs.requests.len()].body;
            if w == Workload::ParetoCold {
                replay_pareto(&mut t, &mut c, i, root, body, &r.body);
            } else {
                replay_map(
                    &mut t,
                    &mut c,
                    warm.then_some(mirror),
                    i,
                    root,
                    body,
                    &r.body,
                );
            }
        }
        t.close(root);
    });
    if warm {
        time_direct(&mut t, inputs, &phase.samples);
    }
    Traced {
        samples: phase.samples,
        spans: t.spans,
        counters: c,
    }
}

/// The router hop: after the traced phase, send each traced body again
/// straight to the backend that answered it, over one kept-alive
/// connection per backend, as a `router.direct` child of its request.
/// A separate pass, so the routed round trips keep their untraced pace.
fn time_direct(t: &mut Tracer, inputs: &Inputs, samples: &[Sample]) {
    let path = inputs.workload.path();
    let roots: HashMap<usize, usize> = t
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "request")
        .map(|(k, s)| (s.request, k))
        .collect();
    let mut direct: HashMap<String, Client> = HashMap::new();
    for sample in samples {
        let Some(owner) = sample.reply.as_ref().ok().and_then(|r| r.backend.clone()) else {
            continue;
        };
        let body = &inputs.requests[sample.index % inputs.requests.len()].body;
        let conn = direct
            .entry(owner.clone())
            .or_insert_with(|| Client::with_defaults(&owner));
        t.time(
            "router.direct",
            sample.index,
            roots.get(&sample.index).copied(),
            || conn.post(path, body).is_ok(),
        );
    }
}
