//! Benchmark entry point. Run through `perfbench/run.sh` from the repository
//! root, which builds the daemons first:
//!
//! ```text
//! cfmap-perfbench --bin-dir DIR --workload warm-routed|map-cold|pareto-cold
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced run. The last stdout line is one JSON object.

use cfmap_perfbench::fleet::delta;
use cfmap_perfbench::inputs::Inputs;
use cfmap_perfbench::load::{closed_loop, set_up, Sample, Setup};
use cfmap_perfbench::quantile;
use cfmap_perfbench::streams::Workload;
use cfmap_perfbench::trace::{mirror_engine, self_times, traced_loop, Span, Traced};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per `--trace 0` run; `setup_s` is their median and the last
/// one serves the timed phase.
const SETUP_REPEATS: usize = 3;

/// Where the traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    bin_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        bin_dir: PathBuf::from(get("--bin-dir")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
    })
}

/// A reported metric: name, value, unit, and the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// Print every metric by name, then the result line.
fn report(metrics: &[Metric], attempted: usize, failed: usize, correct: bool) {
    let mut out = std::io::stdout().lock();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<30} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

/// Run the answer checks on every sample, on two threads; returns the
/// failure count and prints the first few failures.
fn check_all(inputs: &Inputs, setup: &Setup, samples: &[&Sample]) -> usize {
    let half = samples.len().div_ceil(2).max(1);
    let errors: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = samples
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|smp| {
                            inputs
                                .check(&setup.warm_answers, smp)
                                .err()
                                .map(|e| (smp.index, e))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    for (index, e) in errors.iter().take(5) {
        eprintln!("check failed on request {index}: {e}");
    }
    errors.len()
}

fn ms(samples: &[&Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect()
}

fn timed_run(args: &Args, inputs: &Inputs) -> Result<(), String> {
    let w = args.workload;
    let mut setup_times = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let s = set_up(&args.bin_dir, w, &inputs.working_set)?;
        setup_times.push(s.times.total_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    let before = setup.fleet.scrape()?;
    let phase = closed_loop(
        setup.fleet.entry(),
        w,
        &inputs.requests,
        0,
        args.seconds,
        |_| {},
    );
    let after = setup.fleet.scrape()?;
    let rss = setup.fleet.peak_rss_mb()?;
    inputs.identity(&before, &after, phase.samples.len())?;

    let samples: Vec<&Sample> = phase.samples.iter().collect();
    let failed = check_all(inputs, &setup, &samples);
    let n = samples.len();
    let lat = ms(&samples);
    println!(
        "{} seed={} clients=1 keep_alive={} requests={n} failed_frac={:.4} ({failed}/{n})",
        w.name(),
        args.seed,
        w == Workload::WarmRouted,
        failed as f64 / n.max(1) as f64
    );
    let metrics = [
        metric("latency_p50_ms", quantile(&lat, 0.5), "ms", n),
        metric("latency_p90_ms", quantile(&lat, 0.9), "ms", n),
        metric(
            "throughput_rps",
            (n - failed) as f64 / phase.wall.as_secs_f64(),
            "1/s",
            n - failed,
        ),
        metric(
            "setup_s",
            quantile(&setup_times, 0.5),
            "s",
            setup_times.len(),
        ),
        metric(
            "peak_rss_mb",
            rss,
            "MiB",
            setup.fleet.backends.len() + usize::from(setup.fleet.router.is_some()),
        ),
    ];
    report(&metrics, n.max(1), failed, failed == 0 && n > 0);
    Ok(())
}

/// Per-request sum of span durations by name.
fn by_request(spans: &[Span]) -> BTreeMap<usize, HashMap<&'static str, f64>> {
    let mut out: BTreeMap<usize, HashMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.request)
            .or_default()
            .entry(s.name)
            .or_insert(0.0) += s.ns() as f64 / 1e3;
    }
    out
}

/// Durations (µs) of every span called `name`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

/// The in-process layer calls whose sum a workload's round trip is
/// compared against.
fn layer_calls(w: Workload) -> &'static [&'static str] {
    match w {
        // `cache.resolve` includes its own canonicalization.
        Workload::WarmRouted => &["wire.decode", "cache.resolve", "wire.encode"],
        Workload::MapCold => &[
            "wire.decode",
            "canon.canonicalize",
            "search.solve",
            "wire.encode",
        ],
        Workload::ParetoCold => &[
            "wire.decode",
            "canon.canonicalize",
            "pareto.solve",
            "sim.verify",
            "wire.encode",
        ],
    }
}

fn write_spans(args: &Args, spans: &[Span], selfs: &[u64]) -> Result<String, String> {
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("cannot create {SPAN_DIR}: {e}"))?;
    let path = format!(
        "{SPAN_DIR}/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut text = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}\n",
            s.name, s.request, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

fn traced_run(args: &Args, inputs: &Inputs) -> Result<(), String> {
    let w = args.workload;
    let setup = set_up(&args.bin_dir, w, &inputs.working_set)?;
    let half = args.seconds / 2.0;
    let before = setup.fleet.scrape()?;
    let untraced = closed_loop(setup.fleet.entry(), w, &inputs.requests, 0, half, |_| {});
    let mirror = mirror_engine(inputs);
    let spills_before = cfmap_intlin::stats::bigint_spills_total();
    let Traced {
        samples,
        spans,
        counters: c,
    } = traced_loop(inputs, setup.fleet.entry(), &mirror, untraced.next, half);
    let spills = cfmap_intlin::stats::bigint_spills_total() - spills_before;
    let after = setup.fleet.scrape()?;
    inputs.identity(&before, &after, untraced.samples.len() + samples.len())?;

    let all: Vec<&Sample> = untraced.samples.iter().chain(&samples).collect();
    let failed = check_all(inputs, &setup, &all);
    let selfs = self_times(&spans);
    let path = write_spans(args, &spans, &selfs)?;

    let per_req = by_request(&spans);
    let calls = layer_calls(w);
    let mut layer_sum = Vec::new();
    let mut unattributed = Vec::new();
    let mut hop = Vec::new();
    let mut lookup = Vec::new();
    for layers in per_req.values() {
        let Some(rt) = layers.get("http.roundtrip") else {
            continue;
        };
        if layers.contains_key("wire.decode") {
            let sum: f64 = calls.iter().filter_map(|c| layers.get(c)).sum();
            layer_sum.push(sum);
            unattributed.push(rt - sum);
        }
        if let Some(direct) = layers.get("router.direct") {
            hop.push(rt - direct);
        }
        if let (Some(res), Some(canon)) = (
            layers.get("cache.resolve"),
            layers.get("canon.canonicalize"),
        ) {
            lookup.push(res - canon);
        }
    }
    let d = |name: &str| delta(&before, &after, name);
    let (hits, misses) = (d("cfmap_cache_hits_total"), d("cfmap_cache_misses_total"));
    let canon = durations_us(&spans, "canon.canonicalize");
    let solve_ms: Vec<f64> = durations_us(&spans, "search.solve")
        .iter()
        .map(|v| v / 1e3)
        .collect();
    let pareto_ms: Vec<f64> = durations_us(&spans, "pareto.solve")
        .iter()
        .map(|v| v / 1e3)
        .collect();
    let links = durations_us(&spans, "links.peak_link_load");
    let sims = durations_us(&spans, "sim.verify");
    let decode = durations_us(&spans, "wire.decode");
    let encode = durations_us(&spans, "wire.encode");
    let traced_rt: Vec<f64> = durations_us(&spans, "http.roundtrip")
        .iter()
        .map(|v| v / 1e3)
        .collect();
    let untraced_ms = ms(&untraced.samples.iter().collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let solves = solve_ms.len();
    // Counts are reported per solve or per frontier, so they do not grow
    // with the number of requests the timed half happens to complete.
    let per_solve = |name, n: u64| {
        metric(
            name,
            ratio(n as f64, c.solves as f64),
            "count/solve",
            c.solves as usize,
        )
    };
    let per_frontier = |name, n: u64| {
        metric(
            name,
            ratio(n as f64, c.frontiers as f64),
            "count/frontier",
            c.frontiers as usize,
        )
    };
    let t = setup.times;
    let metrics = [
        metric(
            "http.unattributed_us.p50",
            quantile(&unattributed, 0.5),
            "us",
            unattributed.len(),
        ),
        metric(
            "http.unattributed_us.p90",
            quantile(&unattributed, 0.9),
            "us",
            unattributed.len(),
        ),
        metric("router.hop_us.p50", quantile(&hop, 0.5), "us", hop.len()),
        metric("router.hop_us.p90", quantile(&hop, 0.9), "us", hop.len()),
        metric(
            "wire.decode_us.p50",
            quantile(&decode, 0.5),
            "us",
            decode.len(),
        ),
        metric(
            "wire.encode_us.p50",
            quantile(&encode, 0.5),
            "us",
            encode.len(),
        ),
        metric(
            "canon.canonicalize_us.p50",
            quantile(&canon, 0.5),
            "us",
            canon.len(),
        ),
        metric(
            "canon.canonicalize_us.p90",
            quantile(&canon, 0.9),
            "us",
            canon.len(),
        ),
        metric(
            "cache.lookup_us.p50",
            quantile(&lookup, 0.5),
            "us",
            lookup.len(),
        ),
        metric(
            "cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            (hits + misses) as usize,
        ),
        metric(
            "cache.family_hits",
            ratio(d("cfmapd_family_hits_total"), all.len() as f64),
            "count/request",
            all.len(),
        ),
        metric(
            "search.solve_ms.p50",
            quantile(&solve_ms, 0.5),
            "ms",
            solves,
        ),
        metric(
            "search.solve_ms.p90",
            quantile(&solve_ms, 0.9),
            "ms",
            solves,
        ),
        per_solve("search.candidates", c.candidates),
        metric(
            "search.accept_ratio",
            ratio(c.accepted as f64, c.candidates as f64),
            "ratio",
            solves,
        ),
        metric(
            "search.ns_per_candidate",
            ratio(c.solve_ns as f64, c.candidates as f64),
            "ns",
            solves,
        ),
        metric(
            "search.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
            solves,
        ),
        per_solve("search.hnf", c.hnf),
        per_solve("search.orbits_pruned", c.orbits_pruned),
        metric("search.bigint_spills", spills as f64, "count", solves),
        metric(
            "pareto.solve_ms.p50",
            quantile(&pareto_ms, 0.5),
            "ms",
            pareto_ms.len(),
        ),
        metric(
            "pareto.solve_ms.p90",
            quantile(&pareto_ms, 0.9),
            "ms",
            pareto_ms.len(),
        ),
        per_frontier("pareto.candidates", c.pareto_candidates),
        per_frontier("pareto.dominated_pruned", c.dominated_pruned),
        per_frontier("pareto.frontier_points", c.frontier_points),
        metric(
            "links.peak_link_load_us.p50",
            quantile(&links, 0.5),
            "us",
            links.len(),
        ),
        per_frontier("links.calls", links.len() as u64),
        metric("sim.verify_us.p50", quantile(&sims, 0.5), "us", sims.len()),
        per_frontier("sim.points", sims.len() as u64),
        metric("setup.spawn_ms", t.spawn_s * 1e3, "ms", 1),
        metric("setup.prime_s", t.prime_s, "s", 1),
        metric("setup.warm_s", t.warm_s, "s", 1),
        metric(
            "trace.overhead_ms",
            quantile(&traced_rt, 0.5) - quantile(&untraced_ms, 0.5),
            "ms",
            traced_rt.len(),
        ),
    ];
    println!(
        "{} seed={} traced run: {} untraced + {} traced requests, failed_frac={:.4}, spans in {path}",
        w.name(),
        args.seed,
        untraced.samples.len(),
        samples.len(),
        failed as f64 / all.len().max(1) as f64
    );
    println!(
        "  unattributed: client p50 {:.3} ms vs in-process layer sum p50 {:.1} us ({})",
        quantile(&traced_rt, 0.5),
        quantile(&layer_sum, 0.5),
        calls.join(" + ")
    );
    println!(
        "  tracing overhead: traced p50 {:.3} ms - untraced p50 {:.3} ms",
        quantile(&traced_rt, 0.5),
        quantile(&untraced_ms, 0.5)
    );
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        by_name
            .entry(s.name)
            .or_default()
            .push(*self_ns as f64 / 1e3);
    }
    println!(
        "  {:<24} {:>8} {:>14} {:>14}",
        "span", "count", "self p50 us", "self total ms"
    );
    for (name, v) in &by_name {
        println!(
            "  {name:<24} {:>8} {:>14.2} {:>14.3}",
            v.len(),
            quantile(v, 0.5),
            v.iter().sum::<f64>() / 1e3
        );
    }
    report(
        &metrics,
        all.len().max(1),
        failed,
        failed == 0 && !all.is_empty(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let inputs = Inputs::build(args.workload, args.seed);
        if args.trace {
            traced_run(&args, &inputs)
        } else {
            timed_run(&args, &inputs)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
