//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! lists the same names and units; a test keeps the two in step.

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["map-paper", "serve-hits", "serve-churn"];

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("sim_exec_ms", "sim_ms"),
    ("sim_io_ms", "sim_ms"),
    ("speedup_vs_original", "x"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps_at_slo", "1/s"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The apps of the paper suite, in suite order.
pub const APPS: [&str; 8] = [
    "hf",
    "sar",
    "contour",
    "astro",
    "e_elem",
    "apsi",
    "madbench2",
    "wupwise",
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. Those of a
/// layer a workload does not run read 0 on that workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("core.tags.self_s".into(), "s"),
        ("core.tags.chunks".into(), "count"),
        ("core.cluster.self_s".into(), "s"),
    ];
    for app in APPS {
        v.push((format!("core.cluster.self_s.{app}"), "s"));
    }
    for (name, unit) in [
        ("core.cluster.pairs", "count"),
        ("core.cluster.nonzero_pair_frac", "fraction"),
        ("core.schedule.self_s", "s"),
        ("core.codegen.self_s", "s"),
        ("core.codegen.ops", "count"),
        ("core.baseline.self_s", "s"),
        ("storage.sim.self_s", "s"),
        ("storage.sim.accesses_per_s", "1/s"),
        ("storage.sim.l1_miss_frac", "fraction"),
        ("storage.sim.l2_miss_frac", "fraction"),
        ("storage.sim.l3_miss_frac", "fraction"),
        ("storage.sim.disk_reads", "count"),
        ("map.unattributed_frac", "fraction"),
        ("client.lag_p99_ms", "ms"),
        ("service.parse_us", "us"),
        ("service.submit_us", "us"),
        ("service.serialize_us", "us"),
        ("service.dispatch_us", "us"),
        ("service.fingerprint_us", "us"),
        ("service.l1_us", "us"),
        ("service.l2_us", "us"),
        ("service.l2_parse_us", "us"),
        ("service.queue_wait_us", "us"),
        ("service.compute_us", "us"),
        ("service.l1_hit_frac", "fraction"),
        ("service.l2_hit_frac", "fraction"),
        ("service.computed_frac", "fraction"),
        ("service.coalesced_frac", "fraction"),
        ("aio.frames_per_batch", "frames/batch"),
        ("aio.backpressure", "count"),
        ("frontend.unattributed_us", "us"),
        ("frontend.unattributed_frac", "fraction"),
        ("serve.knee_rps", "1/s"),
        ("obs.trace_overhead_frac", "fraction"),
    ] {
        v.push((name.into(), unit));
    }
    v
}
