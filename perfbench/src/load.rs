//! Set-up of a fresh fleet and the closed-loop timed phase.

use crate::check::{check_map, map_outcome};
use crate::fleet::{wait_for, Fleet};
use crate::streams::{priming_catalogue, priming_fit_families, Presented, Problem, Workload};
use cfmap_service::client::{self, Client, HttpReply};
use cfmap_service::json::Json;
use cfmap_service::wire::{MapOutcome, MapResponse};
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Threads that warm the working set through the router during set-up.
const WARM_SETUP_THREADS: usize = 8;

/// Seconds spent in each phase of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Spawn until every daemon answers (and the router sees them up).
    pub spawn_s: f64,
    /// Priming catalogue plus the wait for the family fitter.
    pub prime_s: f64,
    /// Warming the working set through the router (`warm-routed` only).
    pub warm_s: f64,
    /// Spawn to the start of the timed phase.
    pub total_s: f64,
}

/// A primed (and, for `warm-routed`, warmed) fleet.
pub struct Setup {
    /// The daemons.
    pub fleet: Fleet,
    /// Phase timings.
    pub times: SetupTimes,
    /// Set-up answer for each working-set problem (`warm-routed` only).
    pub warm_answers: Vec<MapOutcome>,
}

/// POST every body to `addr` with one-shot connections from `threads`
/// threads; replies come back in input order.
fn post_all(
    addr: &str,
    path: &str,
    bodies: &[String],
    threads: usize,
) -> Vec<Result<HttpReply, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<HttpReply, String>>>> = Mutex::new(vec![None; bodies.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                let reply = client::post(addr, path, body).map_err(|e| e.to_string());
                out.lock().expect("reply slots are never poisoned")[i] = Some(reply);
            });
        }
    });
    out.into_inner()
        .expect("reply slots are never poisoned")
        .into_iter()
        .map(|r| r.expect("every body was posted"))
        .collect()
}

/// Decode a `/map` reply and check it against `p`.
fn checked_map(p: &Problem, reply: Result<HttpReply, String>) -> Result<MapResponse, String> {
    let reply = reply?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let resp = MapResponse::from_str(&reply.body).map_err(|e| e.to_string())?;
    check_map(p, &resp)?;
    Ok(resp)
}

/// Spawn a fresh fleet for `workload`, prime every backend with the
/// paper catalogue, warm the working set for `warm-routed`, and wait
/// until each backend's family fitter is idle.
pub fn set_up(
    bin_dir: &Path,
    workload: Workload,
    working_set: &[Problem],
) -> Result<Setup, String> {
    let started = Instant::now();
    let routed = workload == Workload::WarmRouted;
    let fleet = Fleet::spawn(bin_dir, if routed { 2 } else { 1 }, routed)?;
    let spawned = Instant::now();

    let catalogue = priming_catalogue();
    let bodies: Vec<String> = catalogue
        .iter()
        .map(|p| p.map_request().to_json().serialize())
        .collect();
    let primed: Vec<Vec<Result<HttpReply, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = fleet
            .backends
            .iter()
            .map(|b| s.spawn(|| post_all(&b.addr, "/map", &bodies, 1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("priming thread panicked"))
            .collect()
    });
    for replies in primed {
        for (p, reply) in catalogue.iter().zip(replies) {
            checked_map(p, reply).map_err(|e| format!("priming μ = {:?}: {e}", p.mu))?;
        }
    }
    let fitted = priming_fit_families() as i64;
    for b in &fleet.backends {
        wait_for(&b.addr, "/family", |j| {
            let count = |k: &str| j.get(k).and_then(Json::as_i64).unwrap_or(0);
            count("certificates") + count("rejected") >= fitted
        })?;
    }
    let primed_at = Instant::now();

    let mut warm_answers = Vec::new();
    if routed {
        let bodies: Vec<String> = working_set
            .iter()
            .map(|p| p.map_request().to_json().serialize())
            .collect();
        let replies = post_all(fleet.entry(), "/map", &bodies, WARM_SETUP_THREADS);
        for (p, reply) in working_set.iter().zip(replies) {
            let resp = checked_map(p, reply).map_err(|e| format!("warming μ = {:?}: {e}", p.mu))?;
            warm_answers.push(map_outcome(&resp)?.clone());
        }
    }
    let done = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        spawn_s: secs(started, spawned),
        prime_s: secs(spawned, primed_at),
        warm_s: secs(primed_at, done),
        total_s: secs(started, done),
    };
    Ok(Setup {
        fleet,
        times,
        warm_answers,
    })
}

/// One timed request.
#[derive(Debug)]
pub struct Sample {
    /// Index into the stream.
    pub index: usize,
    /// When the client call started.
    pub sent: Instant,
    /// Client-observed time of the call.
    pub latency: Duration,
    /// The reply, or the transport error.
    pub reply: Result<HttpReply, String>,
}

/// What a closed-loop phase did.
#[derive(Debug)]
pub struct Phase {
    /// Every request, in send order.
    pub samples: Vec<Sample>,
    /// Start of the phase to the last completion.
    pub wall: Duration,
    /// Stream index the next phase should start from.
    pub next: usize,
}

/// Closed loop of one client: send the next request only after the
/// previous one completed, from stream position `start`, until `seconds`
/// have passed or the stream ends. `warm-routed` keeps one connection
/// alive and starts the stream over when it runs out (its requests are
/// all cache hits, so they may repeat); the other workloads open one
/// connection per request. Latency is the time of the client call;
/// `each` runs after every call, outside it.
pub fn closed_loop(
    addr: &str,
    workload: Workload,
    requests: &[Presented],
    start: usize,
    seconds: f64,
    mut each: impl FnMut(&Sample),
) -> Phase {
    let warm = workload == Workload::WarmRouted;
    let path = workload.path();
    let mut kept = warm.then(|| Client::with_defaults(addr));
    let mut samples = Vec::new();
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let mut end = began;
    let mut index = start;
    while Instant::now() < deadline && (warm || index < requests.len()) {
        let body = &requests[index % requests.len()].body;
        let sent = Instant::now();
        let reply = match &mut kept {
            Some(c) => c.post(path, body),
            None => client::post(addr, path, body),
        };
        end = Instant::now();
        let sample = Sample {
            index,
            sent,
            latency: end - sent,
            reply: reply.map_err(|e| e.to_string()),
        };
        each(&sample);
        samples.push(sample);
        index += 1;
    }
    Phase {
        samples,
        wall: end - began,
        next: index,
    }
}
