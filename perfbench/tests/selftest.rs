//! Self-tests of the benchmark: reproducible inputs, well-formed metric
//! names that agree with `BENCHMARK.json`, and generators that hit the
//! mix each workload was chosen for.

use perfbench::gen::{stream_digest, Generated, Hot, RequestSource, Workload, BANK_SIZE};
use perfbench::replay::{Lru, SERVER_CACHE_CAP};
use perfbench::sweep::build_bank;
use perfbench::{valid_metric_name, END_TO_END, PER_LAYER, TRACE_METRICS};
use rescomm::build_plan_closed;
use rescomm_json::{parse, JsonValue};
use std::collections::HashSet;

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = stream_digest(w, 7, 64);
        println!("{} seed 7 digest {a:016x}", w.name());
        assert_eq!(
            a,
            stream_digest(w, 7, 64),
            "{} is not reproducible",
            w.name()
        );
        assert_ne!(a, stream_digest(w, 8, 64), "{} ignores its seed", w.name());
    }
}

fn names(v: &JsonValue, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect();
    assert_eq!(names(&doc, "end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .chain(&TRACE_METRICS)
        .map(|l| {
            (
                l.def.name.to_string(),
                l.def.unit.to_string(),
                l.def.better.to_string(),
            )
        })
        .collect();
    assert_eq!(names(&doc, "per_layer"), layers);
    let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let mut seen = HashSet::new();
    for (name, ..) in e2e.iter().chain(&layers) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name.clone()), "metric {name} defined twice");
    }
}

#[test]
fn distinct_request_workloads_are_all_fresh() {
    for (wide, n) in [(false, 2000), (true, 400)] {
        let src = Generated::new(3, wide);
        let keys: HashSet<String> = (0..n).map(|i| src.request(i).key()).collect();
        assert_eq!(keys.len() as u64, n, "wide={wide}: a request repeats a key");
    }
}

#[test]
fn hot_stream_is_mostly_cache_hits() {
    let hot = Hot::new(5);
    let mut lru = Lru::new(SERVER_CACHE_CAP);
    let n = 20_000;
    let mut hits = 0;
    for i in 0..n {
        let key = hot.request(i).key();
        if lru.touch(&key) {
            hits += 1;
        } else {
            lru.insert(key);
        }
    }
    let ratio = hits as f64 / n as f64;
    println!("serve_hot LRU hit ratio over {n} requests: {ratio:.3}");
    assert!(ratio > 0.6 && ratio < 0.99, "hit ratio {ratio}");
}

#[test]
fn every_sweep_study_has_a_phase() {
    let bank = build_bank(11);
    // Transpose maps communication-free and must have been dropped.
    assert!(bank.len() < BANK_SIZE as usize && bank.len() >= BANK_SIZE as usize - 4);
    for e in &bank {
        let phases = build_plan_closed(&e.nest, &e.mapping).phases.len();
        assert!(phases >= 1, "{} has no phase", e.nest.name);
    }
}
