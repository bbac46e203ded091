//! Real `cfmapd` / `cfmapd-router` processes: spawn, readiness,
//! `/metrics` scrapes, peak memory, and teardown.

use cfmap_service::client;
use cfmap_service::json::{parse, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for a daemon to answer, for the router to see its
/// backends, or for the family fitter to settle.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Design-cache entries per backend behind the router. The default of
/// 256 is split over 8 shards of 32, and a backend's half of the warm
/// working set plus the priming catalogue would overflow some shard: an
/// evicted warm entry turns a hit into a search. The one-shot workloads
/// keep the default.
const ROUTED_CACHE_CAPACITY: &str = "1024";

/// Worker threads per backend. An idle kept-alive connection holds a backend worker, and
/// the router pools up to 8 of them per backend, while `cfmapd` runs 4
/// workers by default. Warming through the router fills that pool, so
/// at the default a starved `/healthz` probe marks the backend down and
/// the router steers its keys to the other backend.
const BACKEND_WORKERS: &str = "16";

/// One spawned daemon.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's one stdout line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    fn spawn(program: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(program)
            .args(args)
            .arg("--watch-stdin")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, a)| a.to_string());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} did not report its address (got {line:?})",
                    program.display()
                ))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the status of daemon {}: {e}", self.addr))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM for daemon {}", self.addr))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `cfmapd` backends, optionally behind one `cfmapd-router`.
pub struct Fleet {
    /// The backends, in `--backend` order.
    pub backends: Vec<Daemon>,
    /// The router, when the workload is routed.
    pub router: Option<Daemon>,
}

impl Fleet {
    /// Spawn `backends` daemons (and a router in front of them when
    /// `routed`) and wait until each answers and the router sees every
    /// backend up and ready.
    pub fn spawn(bin_dir: &Path, backends: usize, routed: bool) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            backends: Vec::new(),
            router: None,
        };
        let mut backend_args = vec!["--addr", "127.0.0.1:0", "--workers", BACKEND_WORKERS];
        if routed {
            backend_args.extend(["--cache-capacity", ROUTED_CACHE_CAPACITY]);
        }
        for _ in 0..backends {
            let d = Daemon::spawn(&bin_dir.join("cfmapd"), &backend_args)?;
            wait_for(&d.addr, "/healthz", |_| true)?;
            fleet.backends.push(d);
        }
        if routed {
            let mut args = vec!["--addr", "127.0.0.1:0"];
            for b in &fleet.backends {
                args.extend(["--backend", b.addr.as_str()]);
            }
            let router = Daemon::spawn(&bin_dir.join("cfmapd-router"), &args)?;
            wait_for(&router.addr, "/backends", |j| {
                let list = j.get("backends").and_then(Json::as_arr).unwrap_or(&[]);
                list.len() == backends
                    && list.iter().all(|b| {
                        b.get("up").and_then(Json::as_bool) == Some(true)
                            && b.get("ready").and_then(Json::as_bool) == Some(true)
                    })
            })?;
            fleet.router = Some(router);
        }
        Ok(fleet)
    }

    /// Where clients send requests: the router, else the first backend.
    pub fn entry(&self) -> &str {
        self.router
            .as_ref()
            .unwrap_or(&self.backends[0])
            .addr
            .as_str()
    }

    /// Sum of `VmHWM` over every daemon of the fleet, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for d in self.backends.iter().chain(&self.router) {
            total += d.peak_rss_mb()?;
        }
        Ok(total)
    }

    /// Scrape every backend's `/metrics`.
    pub fn scrape(&self) -> Result<Vec<Metrics>, String> {
        self.backends
            .iter()
            .map(|d| Metrics::scrape(&d.addr))
            .collect()
    }
}

/// Poll `GET path` until it answers 200 with a body `ready` accepts.
pub fn wait_for(addr: &str, path: &str, ready: impl Fn(&Json) -> bool) -> Result<Json, String> {
    let started = Instant::now();
    loop {
        if let Ok(reply) = client::get(addr, path) {
            if let Ok(json) = parse(&reply.body) {
                if reply.status == 200 && ready(&json) {
                    return Ok(json);
                }
            }
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err(format!("{addr}{path} not ready after {READY_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One `/metrics` scrape: each metric name's value summed over its
/// label sets.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub HashMap<String, f64>);

impl Metrics {
    /// Scrape `addr`.
    pub fn scrape(addr: &str) -> Result<Metrics, String> {
        let reply = client::get(addr, "/metrics").map_err(|e| format!("{addr}/metrics: {e}"))?;
        Ok(Metrics::parse(&reply.body))
    }

    /// Parse Prometheus text format.
    pub fn parse(text: &str) -> Metrics {
        let mut out = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = key.split('{').next().unwrap_or(key);
            if let Ok(v) = value.parse::<f64>() {
                *out.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
        Metrics(out)
    }

    /// A metric's value (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-metric difference `after − before`, summed over backends.
pub fn delta(before: &[Metrics], after: &[Metrics], name: &str) -> f64 {
    after.iter().map(|m| m.get(name)).sum::<f64>() - before.iter().map(|m| m.get(name)).sum::<f64>()
}
