//! Self-tests of the benchmark's inputs and its answer checker.

use cfmap_perfbench::check::{check_design, check_map, check_pareto, check_warm, map_outcome};
use cfmap_perfbench::inputs::Inputs;
use cfmap_perfbench::streams::{
    family_sizes, map_cold_corpus, map_cold_stream, pareto_corpus, pareto_stream,
    priming_catalogue, warm_stream, working_set, Problem, Workload,
};
use cfmap_service::engine::Engine;
use cfmap_service::wire::{MapResponse, ParetoResponse};
use std::collections::HashSet;

const WORKLOADS: [Workload; 3] = [
    Workload::WarmRouted,
    Workload::MapCold,
    Workload::ParetoCold,
];

#[test]
fn same_seed_gives_byte_identical_streams() {
    for w in WORKLOADS {
        let bodies = |seed| -> Vec<String> {
            Inputs::build(w, seed)
                .requests
                .into_iter()
                .map(|r| r.body)
                .collect()
        };
        let (a, b, c) = (bodies(7), bodies(7), bodies(8));
        assert_eq!(a, b, "{}: seed 7 twice must send the same bytes", w.name());
        assert_ne!(a, c, "{}: seeds 7 and 8 must differ", w.name());
    }
}

#[test]
fn map_cold_keys_are_distinct_and_no_family_reaches_three_sizes() {
    let corpus = map_cold_corpus();
    let stream = map_cold_stream(3, &corpus);
    assert_eq!(stream.len(), corpus.len());
    let keys: HashSet<_> = stream.iter().map(|r| r.problem.canonical()).collect();
    assert_eq!(
        keys.len(),
        stream.len(),
        "every map-cold request must be a distinct canonical problem"
    );
    let priming: HashSet<_> = priming_catalogue().iter().map(Problem::canonical).collect();
    assert!(
        keys.is_disjoint(&priming),
        "map-cold must not repeat a priming problem"
    );

    let primed = family_sizes(&priming_catalogue());
    let presented: Vec<Problem> = stream.into_iter().map(|r| r.problem).collect();
    for (family, sizes) in family_sizes(&presented) {
        assert!(sizes < 3, "a map-cold family holds {sizes} sizes");
        assert!(
            !primed.contains_key(&family),
            "a map-cold problem joins a priming family"
        );
    }
}

#[test]
fn every_warm_presentation_canonicalizes_to_its_working_set_key() {
    let set = working_set();
    let keys: Vec<_> = set.iter().map(Problem::canonical).collect();
    assert_eq!(
        keys.iter().collect::<HashSet<_>>().len(),
        set.len(),
        "working-set keys must be distinct"
    );
    for r in warm_stream(5, &set).iter().take(2000) {
        assert_eq!(
            r.problem.canonical(),
            keys[r.base],
            "presentation of {:?} left its key",
            set[r.base]
        );
    }
}

#[test]
fn pareto_requests_are_distinct() {
    let stream = pareto_stream(9, &pareto_corpus());
    let bodies: HashSet<_> = stream.iter().map(|(_, r)| r.body.clone()).collect();
    assert_eq!(bodies.len(), stream.len());
    assert!(stream.iter().filter(|(c, _)| c.include_bandwidth).count() * 10 > stream.len());
}

fn matmul4() -> Problem {
    priming_catalogue()
        .into_iter()
        .find(|p| p.mu == [4, 4, 4] && p.space == [vec![1, 1, -1]])
        .expect("E4 μ = 4")
}

#[test]
fn checker_accepts_the_real_answer_and_flags_tampered_ones() {
    let p = matmul4();
    let resp = Engine::new(16, 1).resolve(&p.map_request());
    check_map(&p, &resp).expect("the engine's own E4 answer passes");
    let good = map_outcome(&resp).expect("a design").clone();
    assert_eq!(good.total_time, 25, "E4: μ(μ+2)+1 at μ = 4");

    // A changed π entry: the total time no longer matches the schedule.
    let mut changed = good.clone();
    changed.schedule[0] += 1;
    assert!(check_map(&p, &MapResponse::Ok(changed)).is_err());

    // A conflicting Π with a consistent total time: only the brute-force
    // enumeration can refuse it.
    let (pi, t) = (vec![1, 1, 4], 1 + 4 + 4 + 16);
    assert!(check_design(&p, &p.space, &pi, t)
        .unwrap_err()
        .contains("maps two index points together"));
    let mut conflicting = good.clone();
    conflicting.schedule = pi;
    conflicting.total_time = t;
    conflicting.objective = t - 1;
    assert!(check_map(&p, &MapResponse::Ok(conflicting)).is_err());

    // A warm answer that does not pull back to the set-up answer.
    let mut warm = good.clone();
    warm.cached = true;
    let axes = [0, 1, 2];
    check_warm(&p, &good, &axes, &MapResponse::Ok(warm.clone())).expect("the same answer passes");
    warm.schedule.swap(0, 2);
    if warm.schedule != good.schedule {
        assert!(check_warm(&p, &good, &axes, &MapResponse::Ok(warm)).is_err());
    }
}

#[test]
fn checker_flags_a_tampered_frontier() {
    let stream = pareto_stream(1, &pareto_corpus());
    let (case, _) = stream
        .iter()
        .find(|(c, _)| c.problem.space.is_empty() && !c.include_bandwidth)
        .expect("a joint case");
    let resp = Engine::new(16, 1).pareto(&case.request());
    check_pareto(case, &resp).expect("the engine's own frontier passes");
    let ParetoResponse::Ok(o) = resp else {
        panic!("a frontier")
    };
    assert!(o.points.len() >= 2, "a joint frontier has several points");

    let mut repeated = o.clone();
    repeated.points.push(o.points[0].clone());
    repeated.frontier_size += 1;
    assert!(
        check_pareto(case, &ParetoResponse::Ok(repeated)).is_err(),
        "a repeated point is flagged"
    );

    let mut conflicting = o.clone();
    conflicting.points[0].schedule = vec![1; case.problem.mu.len()];
    assert!(
        check_pareto(case, &ParetoResponse::Ok(conflicting)).is_err(),
        "a changed schedule is flagged"
    );
}
