//! Tests of the benchmark harness itself: seeded inputs, the percentile
//! rule, metric names, and agreement with `BENCHMARK.json`.

use cachemap_perfbench::client::{self, Outcome};
use cachemap_perfbench::report::Report;
use cachemap_perfbench::sched::{ChurnMix, ChurnStream, Kind, Rng, Zipf};
use cachemap_perfbench::serve::{self, KeySpace};
use cachemap_perfbench::spec;
use cachemap_perfbench::stats;
use cachemap_util::Json;
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = cachemap_perfbench::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    cachemap_util::json::parse(&text).expect("BENCHMARK.json parses")
}

/// A letter or digit first, then at most 63 more of letters, digits,
/// `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn names_units(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn arrival_schedule_and_hits_mix_repeat_for_a_seed() {
    let mut a = KeySpace::new(&serve::HITS, 11);
    let mut b = KeySpace::new(&serve::HITS, 11);
    let mut c = KeySpace::new(&serve::HITS, 12);
    let pa = a.plan(500.0, 2.0, 1);
    assert_eq!(pa, b.plan(500.0, 2.0, 1));
    assert_ne!(pa, c.plan(500.0, 2.0, 1));
    // Poisson at 500/s over 2 s: about 1000 arrivals, in order.
    assert!((800..1200).contains(&pa.len()), "{}", pa.len());
    assert!(pa.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    assert!(pa.iter().all(|s| s.key < a.templates().len()));
    assert_eq!(a.frames(), b.frames());
}

#[test]
fn churn_mix_repeats_for_a_seed_and_keeps_old_keys_old() {
    let mix = ChurnMix::DEFAULT;
    let mut a = ChurnStream::new(5, mix, serve::CHURN.population);
    let mut b = ChurnStream::new(5, mix, serve::CHURN.population);
    let mut kinds = [0usize; 3];
    for _ in 0..5000 {
        let issued = a.issued();
        let (key, kind) = a.next_key();
        assert_eq!((key, kind), b.next_key());
        match kind {
            Kind::Fresh => {
                assert_eq!(key, issued);
                kinds[0] += 1;
            }
            Kind::Recent => {
                assert!(key + mix.recent_window >= issued && key < issued);
                kinds[1] += 1;
            }
            Kind::Old => {
                assert!(key + mix.old_gap < issued);
                kinds[2] += 1;
            }
        }
    }
    // Shares near the configured mix.
    assert!((400..600).contains(&kinds[0]), "{kinds:?}");
    assert!((400..600).contains(&kinds[2]), "{kinds:?}");

    // The key space built on it is deterministic too, requests included.
    let mut x = KeySpace::new(&serve::CHURN, 5);
    let mut y = KeySpace::new(&serve::CHURN, 5);
    assert_eq!(x.plan(300.0, 1.0, 1), y.plan(300.0, 1.0, 1));
    assert_eq!(x.frames(), y.frames());
}

#[test]
fn churn_keys_are_distinct_requests() {
    let ks = KeySpace::new(&serve::CHURN, 9);
    let frames: BTreeSet<&Vec<u8>> = ks.frames().iter().collect();
    assert_eq!(frames.len(), ks.frames().len());
}

#[test]
fn rng_and_zipf_are_seeded() {
    let mut a = Rng::new(3, 1);
    let mut b = Rng::new(3, 1);
    let mut c = Rng::new(3, 2);
    let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
    assert_eq!(xa, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
    assert_ne!(xa, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    let mut r = Rng::new(1, 0);
    let z = Zipf::new(32, 1.2);
    let keys: Vec<usize> = (0..10_000).map(|_| z.sample(&mut r)).collect();
    let top = keys.iter().filter(|&&k| k == 0).count();
    let last = keys.iter().filter(|&&k| k == 31).count();
    assert!(top > 10 * last.max(1), "rank 0 {top}, rank 31 {last}");
}

#[test]
fn percentile_helper_applies_the_ten_beyond_rule() {
    assert_eq!(stats::samples_beyond(1000, 99.0), 10);
    assert_eq!(stats::highest_supported_percentile(1000), Some(99.0));
    assert_eq!(stats::samples_beyond(999, 99.0), 9);
    assert_eq!(stats::highest_supported_percentile(999), Some(90.0));
    assert_eq!(stats::highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(stats::highest_supported_percentile(20), Some(50.0));
    assert_eq!(stats::highest_supported_percentile(19), None);
    assert_eq!(stats::highest_supported_percentile(0), None);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 50.0), 50.0);
    assert_eq!(stats::percentile(&v, 99.0), 99.0);
    let l = stats::Latency::of(&v);
    assert_eq!(
        (l.n, l.p50, l.p99, l.tail_pct),
        (100, 50.0, 99.0, Some(90.0))
    );
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let all = spec::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(spec::per_layer());
    for (name, unit) in all {
        assert!(valid_name(&name), "{name}");
        assert!(seen.insert(name.clone()), "{name} twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
            "{unit}"
        );
    }
    assert!(!valid_name("_x"));
    assert!(!valid_name("a b"));
    assert!(!valid_name(&"a".repeat(65)));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let j = benchmark_json();
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);

    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut rep = Report::new("serve-hits", 1, 1, traced);
        rep.zero_unset();
        let line = cachemap_util::json::parse(&rep.result_line().expect("all set"))
            .expect("result line parses");
        let printed: Vec<(String, String)> = match line.get("metrics") {
            Some(Json::Object(m)) => m
                .iter()
                .map(|(n, v)| {
                    (
                        n.clone(),
                        v.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect(),
            other => panic!("metrics object expected, got {other:?}"),
        };
        assert_eq!(printed, names_units(&j, key), "{key}");
    }
}

#[test]
fn replies_are_classified_and_their_mapping_located() {
    let ok = br#"{"id":3,"status":"ok","op":"map","cached":true,"fingerprint":"ab","service_us":7,"mapping":{"clients":[[1]]}}"#;
    assert_eq!(client::classify(ok), Outcome::Ok { cached: true });
    assert_eq!(
        client::mapping_bytes(ok, false),
        Some(&br#"{"clients":[[1]]}"#[..])
    );
    let traced = br#"{"id":3,"status":"ok","op":"map","cached":false,"fingerprint":"ab","service_us":7,"mapping":{"clients":[[1]]},"trace":{"stages":[]}}"#;
    assert_eq!(
        client::mapping_bytes(traced, true),
        Some(&br#"{"clients":[[1]]}"#[..])
    );
    let err =
        br#"{"id":0,"status":"error","op":"map","error":{"code":"queue_full","message":"x"}}"#;
    assert_eq!(
        client::classify(err),
        Outcome::Rejected("queue_full".into())
    );
    assert_eq!(client::classify(b"garbage"), Outcome::Untyped);
    assert_ne!(
        client::hash_bytes(b"abcdefgh1"),
        client::hash_bytes(b"abcdefgh2")
    );
}
