//! The three workloads, untraced and traced.

use crate::client::{Done, Outcome};
use crate::mappaper::{self, AppRun, LayerTimes};
use crate::report::Report;
use crate::serve::{self, KeySpace, ServeSpec, Server};
use crate::spec;
use crate::stats::{self, Latency};
use cachemap_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per serving run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seconds of `map-paper` input builds run untimed first, so the CPU
/// and the allocator are warm when sampling starts.
pub const MAP_SETUP_WARMUP_S: f64 = 0.25;

/// Seconds of timed `map-paper` input builds before each app of each
/// pass. One build takes about 15 µs and the host's speed drifts by up
/// to 1.5× over seconds, so `setup_s`, their median, is sampled across
/// the whole run.
pub const MAP_SETUP_SLICE_S: f64 = 0.05;

/// Command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, s.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Rewrite the `map-paper` golden file instead of checking it.
    pub bless: bool,
}

/// Runs the workload the options name.
pub fn run(o: &Options) -> Result<Report, String> {
    match o.workload.as_str() {
        "map-paper" => map_paper(o),
        "serve-hits" => serve_workload(&serve::HITS, o),
        "serve-churn" => serve_workload(&serve::CHURN, o),
        w => Err(format!(
            "unknown workload {w:?} (expected one of {:?})",
            spec::WORKLOADS
        )),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- map-paper

fn golden_path() -> std::path::PathBuf {
    crate::bench_dir().join("golden").join("map-paper.json")
}

fn digests_json(runs: &[AppRun]) -> Json {
    Json::Object(
        runs.iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Json::object(vec![
                        ("original", r.sims[0].to_json()),
                        ("inter-processor+sched", r.sims[1].to_json()),
                    ]),
                )
            })
            .collect(),
    )
}

/// Compares the simulated figures with the golden file (or rewrites it).
fn check_golden(rep: &mut Report, runs: &[AppRun], bless: bool) {
    let now = digests_json(runs).to_string_pretty();
    if bless {
        let path = golden_path();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, format!("{now}\n")));
        if let Err(e) = written {
            rep.problem(format!("writing {}: {e}", path.display()));
        }
        return;
    }
    match std::fs::read_to_string(golden_path()) {
        Ok(golden) if golden.trim_end() == now => {}
        Ok(_) => rep.problem("simulated figures differ from golden/map-paper.json"),
        Err(e) => rep.problem(format!("golden/map-paper.json: {e}")),
    }
}

/// Builds the `map-paper` inputs over and over for `secs` seconds,
/// pushing the seconds of each build onto `samples`. Returns the last
/// inputs built.
fn sample_setups(samples: &mut Vec<f64>, secs: f64) -> mappaper::Inputs {
    let start = Instant::now();
    loop {
        let (inp, s) = timed(mappaper::setup);
        samples.push(s);
        if start.elapsed().as_secs_f64() >= secs {
            return inp;
        }
    }
}

fn map_paper(o: &Options) -> Result<Report, String> {
    let mut rep = Report::new("map-paper", o.seed, o.seconds, o.trace);
    rep.note("map-paper: the paper suite ignores --seed; inputs are fixed");
    if o.trace {
        map_paper_traced(&mappaper::setup(), o, &mut rep);
        return Ok(rep);
    }
    let inp = sample_setups(&mut Vec::new(), MAP_SETUP_WARMUP_S);
    let mut setups = Vec::new();

    // Passes repeat while another one is expected to end within
    // --seconds; there is always at least one.
    let start = Instant::now();
    let mut passes: Vec<Vec<AppRun>> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while passes.is_empty()
        || start.elapsed().as_secs_f64() * (passes.len() + 1) as f64 / passes.len() as f64
            <= o.seconds as f64
    {
        let mut pass = Vec::new();
        for app in &inp.apps {
            sample_setups(&mut setups, MAP_SETUP_SLICE_S);
            let (run, programs) = mappaper::run_app(&inp, app);
            rep.attempted += 2;
            if passes.is_empty()
                && mappaper::access_multiset(&programs[0])
                    != mappaper::access_multiset(&programs[1])
            {
                rep.failed += 1;
                rep.problem(format!(
                    "{}: versions execute different access multisets",
                    app.name
                ));
            }
            if let Some(first) = passes.first() {
                if first[pass.len()].sims != run.sims {
                    rep.failed += 1;
                    rep.problem(format!(
                        "{}: simulated figures changed between passes",
                        app.name
                    ));
                }
            }
            pass.push(run);
        }
        if passes.is_empty() {
            // The first pass's peak: later passes reuse freed memory
            // unevenly, and how many run depends on the host's speed.
            peak_rss_mb = crate::peak_rss_mb();
        }
        passes.push(pass);
    }
    check_golden(&mut rep, &passes[0], o.bless);

    let first = &passes[0];
    let wall: f64 = (0..first.len())
        .map(|a| stats::median(&passes.iter().map(|p| p[a].secs).collect::<Vec<_>>()))
        .sum();
    // The one caller's request is the whole suite: one pass.
    let jobs: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|r| r.secs * 1e3).sum())
        .collect();
    let lat = Latency::of(&jobs);
    let exec: f64 = first.iter().map(|r| r.sims[1].exec_ns as f64 / 1e6).sum();
    let io: f64 = first.iter().map(|r| r.sims[1].io_ns as f64 / 1e6).sum();
    let ratios: Vec<f64> = first
        .iter()
        .map(|r| r.sims[0].exec_ns as f64 / r.sims[1].exec_ns as f64)
        .collect();
    rep.set("wall_s", wall);
    rep.set("sim_exec_ms", exec);
    rep.set("sim_io_ms", io);
    rep.set("speedup_vs_original", stats::geomean(&ratios));
    rep.set("p50_ms", stats::median(&jobs));
    rep.set("p99_ms", lat.p99);
    rep.set("max_rps_at_slo", (2 * first.len()) as f64 / wall);
    rep.set("ok_frac", ok_frac(&rep));
    rep.set("setup_s", stats::median(&setups));
    rep.set("peak_rss_mb", peak_rss_mb);
    rep.note(format!(
        "{} pass(es); per-app medians: {}",
        passes.len(),
        (0..first.len())
            .map(|a| format!(
                "{} {:.3} s",
                first[a].name,
                stats::median(&passes.iter().map(|p| p[a].secs).collect::<Vec<_>>())
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    rep.note(format!(
        "suite request latency (one pass each): {}; p50_ms is the median, {:.3} ms",
        lat.render("ms"),
        stats::median(&jobs)
    ));
    rep.note(format!("setup_s: median of {} input builds", setups.len()));
    rep.note("max_rps_at_slo here: maps completed per second by the one closed-loop caller");
    rep.detail.push(("sim".into(), digests_json(first)));
    Ok(rep)
}

fn map_paper_traced(inp: &mappaper::Inputs, o: &Options, rep: &mut Report) {
    let epoch = Instant::now();
    let mut lt = LayerTimes::default();
    let mut facade_s = 0.0;
    let mut runs = Vec::new();
    for app in &inp.apps {
        let (run, facade) = mappaper::run_app(inp, app);
        facade_s += run.secs;
        let layered = mappaper::run_app_traced(inp, app, &mut lt, epoch);
        rep.attempted += 2;
        for (k, label) in ["original", "inter-processor+sched"].iter().enumerate() {
            if layered[k] != facade[k] {
                rep.failed += 1;
                rep.problem(format!(
                    "{}: layer-assembled {label} program differs from Mapper::map",
                    app.name
                ));
            }
        }
        runs.push(run);
    }
    check_golden(rep, &runs, o.bless);

    let layer = |name: &str| lt.self_s.get(name).copied().unwrap_or(0.0);
    let attributed: f64 = lt.self_s.values().sum();
    rep.set("core.tags.self_s", layer("core.tags"));
    rep.set("core.tags.chunks", lt.chunks as f64);
    rep.set("core.cluster.self_s", layer("core.cluster"));
    for app in spec::APPS {
        let v = lt.cluster_by_app.get(app).copied().unwrap_or(0.0);
        rep.set(&format!("core.cluster.self_s.{app}"), v);
    }
    rep.set("core.cluster.pairs", lt.pairs as f64);
    rep.set(
        "core.cluster.nonzero_pair_frac",
        lt.nonzero_pairs as f64 / lt.pairs.max(1) as f64,
    );
    rep.set("core.schedule.self_s", layer("core.schedule"));
    rep.set("core.codegen.self_s", layer("core.codegen"));
    rep.set("core.codegen.ops", lt.ops as f64);
    rep.set("core.baseline.self_s", layer("core.baseline"));
    let sim_s = layer("storage.sim");
    rep.set("storage.sim.self_s", sim_s);
    rep.set(
        "storage.sim.accesses_per_s",
        lt.accesses as f64 / sim_s.max(1e-9),
    );
    for (k, name) in ["l1", "l2", "l3"].iter().enumerate() {
        rep.set(
            &format!("storage.sim.{name}_miss_frac"),
            lt.misses[k] as f64 / lt.lookups[k].max(1) as f64,
        );
    }
    rep.set("storage.sim.disk_reads", lt.disk_reads as f64);
    let unattributed = (lt.wall_s - attributed) / lt.wall_s;
    rep.set("map.unattributed_frac", unattributed);
    let overhead = lt.wall_s / facade_s - 1.0;
    rep.set("obs.trace_overhead_frac", overhead);
    rep.zero_unset();

    rep.note(format!(
        "headline wall_s (untraced facade, one pass) {facade_s:.3} s; traced layer sequence {:.3} s",
        lt.wall_s
    ));
    for (name, s) in &lt.self_s {
        rep.note(format!(
            "  {name:<14} {s:>9.4} s  {:>6.2}%",
            100.0 * s / lt.wall_s
        ));
    }
    rep.note(format!(
        "  {:<14} {:>9.4} s  {:>6.2}%   (map.unattributed_frac)",
        "unattributed",
        lt.wall_s - attributed,
        100.0 * unattributed
    ));
    rep.note(format!("obs.trace_overhead_frac {overhead:.4}"));
    rep.detail.push((
        "spans".into(),
        Json::Array(
            lt.spans
                .iter()
                .map(|&(layer, app, start, dur)| {
                    Json::object(vec![
                        ("name", Json::Str(layer.into())),
                        ("app", Json::Str(app.into())),
                        ("start_ns", Json::UInt(start)),
                        ("dur_ns", Json::UInt(dur)),
                    ])
                })
                .collect(),
        ),
    ));
}

fn ok_frac(rep: &Report) -> f64 {
    rep.attempted.saturating_sub(rep.failed) as f64 / rep.attempted.max(1) as f64
}

// ------------------------------------------------------------------ serving

/// Tallies replies: failed or refused requests, and the correctness
/// problems among them (untyped errors).
fn tally(rep: &mut Report, what: &str, dones: &[Done], count: bool) {
    let mut refused: BTreeMap<String, u64> = BTreeMap::new();
    let mut untyped = 0;
    for d in dones {
        match &d.outcome {
            Outcome::Ok { .. } => {}
            Outcome::Rejected(code) => *refused.entry(code.clone()).or_insert(0) += 1,
            Outcome::Untyped => untyped += 1,
        }
    }
    if count {
        rep.attempted += dones.len() as u64;
        rep.failed += untyped + refused.values().sum::<u64>();
    }
    if untyped > 0 {
        rep.problem(format!("{what}: {untyped} untyped error replies"));
    }
    if !refused.is_empty() {
        rep.note(format!("{what}: refused {refused:?}"));
    }
}

fn served(dones: &[Done]) -> impl Iterator<Item = (usize, u64)> + '_ {
    dones
        .iter()
        .filter(|d| matches!(d.outcome, Outcome::Ok { .. }))
        .map(|d| (d.send.key, d.mapping_hash))
}

/// `(key, mapping hash)` of correct replies, for the oracle check.
type Served = Vec<(usize, u64)>;

/// Starts a server and prewarms its population; returns it with the
/// prewarm replies and the set-up time.
fn set_up(spec: &ServeSpec, ks: &KeySpace, tracing: bool) -> Result<(Server, Served, f64), String> {
    let t0 = Instant::now();
    let mut srv = Server::start(spec.churn.is_some(), tracing)?;
    let warm = srv.prewarm(ks.frames(), ks.population() as usize, spec.prewarm_window)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut ok = Vec::with_capacity(warm.len());
    for (key, outcome, hash) in warm {
        match outcome {
            Outcome::Ok { .. } => ok.push((key, hash)),
            other => return Err(format!("prewarm of key {key} failed: {other:?}")),
        }
    }
    Ok((srv, ok, secs))
}

fn serve_workload(spec: &ServeSpec, o: &Options) -> Result<Report, String> {
    let mut rep = Report::new(spec.name, o.seed, o.seconds, o.trace);
    let fixed_secs = o.seconds as f64 * 0.6;
    rep.note(format!(
        "{}: {} client connection(s), open loop, fixed phase {} req/s for {fixed_secs} s, latency limit p99 <= {} ms",
        spec.name,
        serve::client_conns(),
        spec.rate,
        spec.slo_ms
    ));
    if o.trace {
        serve_traced(spec, fixed_secs, o, &mut rep)?;
        return Ok(rep);
    }
    // Each of the set-ups is followed by one slice of the fixed-rate
    // phase on new connections, so the phase spans three server
    // instances and most of the run; the ladder runs on the last one.
    let mut ks = KeySpace::new(spec, o.seed);
    let mut setups = Vec::new();
    let mut check: Served = Vec::new();
    let mut fixed_dones = Vec::new();
    let mut fixed_wall_s = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut last = None;
    for round in 0..SETUPS {
        ks.restart(round as u64);
        let (mut srv, warm, secs) = set_up(spec, &ks, false)?;
        setups.push(secs);
        check.extend(warm);
        srv.reconnect()?;
        let slice_secs = fixed_secs / SETUPS as f64;
        let (v, dones) = serve::run_phase(
            &mut srv,
            &mut ks,
            spec,
            spec.rate,
            slice_secs,
            1 + round as u64,
            false,
        )?;
        fixed_wall_s += v.wall_s;
        fixed_dones.extend(dones);
        if round == 0 {
            // One server instance's peak: later instances reuse freed
            // memory unevenly.
            peak_rss_mb = crate::peak_rss_mb();
        }
        if let Some(prev) = last.replace(srv) {
            prev.stop();
        }
    }
    let mut srv = last.expect("at least one set-up");
    let mut fixed = serve::judge(spec.rate, &fixed_dones, spec.slo_ms);
    fixed.wall_s = fixed_wall_s;
    // The rate verified to meet the limit. Climbing above the fixed rate
    // finds a knee that moved by ±30% between runs with the host's CPU
    // speed, beyond any bound; traced runs report it as serve.knee_rps.
    let (max_rps, probes, probe_dones) =
        serve::search_ladder(&mut srv, &mut ks, spec, fixed.meets_slo, false)?;
    srv.stop();
    tally(&mut rep, "fixed phase", &fixed_dones, true);
    tally(&mut rep, "ladder", &probe_dones, false);
    if fixed.lag_p99_ms > serve::LAG_BOUND_MS {
        rep.problem(format!(
            "invalid run: generator lag p99 {:.2} ms exceeds {} ms",
            fixed.lag_p99_ms,
            serve::LAG_BOUND_MS
        ));
    }

    check.extend(served(&fixed_dones));
    check.extend(served(&probe_dones));
    let (mismatches, cold) = serve::verify(&ks, &check);
    if mismatches > 0 {
        rep.failed += mismatches;
        rep.problem(format!(
            "{mismatches} served mappings differ from the cold Mapper::map bytes"
        ));
    }
    let (exec, io, speedup) = serve::template_quality(ks.templates(), &cold);

    rep.set("wall_s", fixed.wall_s);
    rep.set("sim_exec_ms", exec);
    rep.set("sim_io_ms", io);
    rep.set("speedup_vs_original", speedup);
    rep.set("p50_ms", fixed.p50_ms);
    rep.set("p99_ms", fixed.p99_ms);
    rep.set("max_rps_at_slo", max_rps);
    rep.set("ok_frac", ok_frac(&rep));
    rep.set("setup_s", stats::median(&setups));
    rep.set("peak_rss_mb", peak_rss_mb);
    rep.note(format!(
        "fixed phase sub-window p50/p99 ms: {}",
        fixed
            .subs
            .iter()
            .map(|(p50, p99)| format!("{p50:.2}/{p99:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.note(format!(
        "fixed phase {} req/s pooled: {}; generator lag p99 {:.3} ms",
        spec.rate,
        fixed.pooled.render("ms"),
        fixed.lag_p99_ms
    ));
    rep.note(format!(
        "p50_ms {:.3} and p99_ms {:.3} are medians over {} sub-windows of {} requests",
        fixed.p50_ms,
        fixed.p99_ms,
        fixed.subs.len(),
        serve::SUB_WINDOW
    ));
    for v in &probes {
        rep.note(format!(
            "ladder {:>8.1} req/s: n={} p50 {:.2} ms p99 {:.2} ms lag p99 {:.2} ms -> {}",
            v.rate,
            v.sent,
            v.p50_ms,
            v.p99_ms,
            v.lag_p99_ms,
            if v.meets_slo { "meets" } else { v.why.as_str() }
        ));
    }
    rep.note(format!(
        "max_rps_at_slo {:.1} req/s; {} replies checked against the cold oracle",
        max_rps,
        check.len()
    ));
    Ok(rep)
}

fn serve_traced(
    spec: &ServeSpec,
    fixed_secs: f64,
    o: &Options,
    rep: &mut Report,
) -> Result<(), String> {
    // Untraced phase: client latency, loop and cache counters.
    let mut ks = KeySpace::new(spec, o.seed);
    let (mut srv, warm_u, _) = set_up(spec, &ks, false)?;
    srv.reconnect()?;
    let s0 = srv.service.stats();
    let l0 = srv.loop_counters();
    let (untraced, dones_u) =
        serve::run_phase(&mut srv, &mut ks, spec, spec.rate, fixed_secs, 1, false)?;
    let s1 = srv.service.stats();
    let l1 = srv.loop_counters();
    let (knee_rps, knee_probes, knee_dones) =
        serve::search_ladder(&mut srv, &mut ks, spec, untraced.meets_slo, true)?;
    srv.stop();
    tally(rep, "ladder", &knee_dones, false);
    tally(rep, "untraced phase", &dones_u, true);
    let plan: Vec<_> = dones_u.iter().map(|d| d.send).collect();

    // Traced phase: the same requests against a tracing service.
    let mut ks_t = KeySpace::new(spec, o.seed);
    let (mut srv_t, warm_t, _) = set_up(spec, &ks_t, true)?;
    srv_t.reconnect()?;
    let (traced, dones_t) =
        serve::run_phase(&mut srv_t, &mut ks_t, spec, spec.rate, fixed_secs, 1, true)?;
    srv_t.stop();
    tally(rep, "traced phase", &dones_t, true);

    // In-process replays of the same sequence.
    let split = serve::replay(&ks, &plan, true)?;
    let whole = serve::replay(&ks, &plan, false)?;

    let mut check = warm_u;
    check.extend(warm_t);
    check.extend(served(&dones_u));
    check.extend(served(&dones_t));
    check.extend(served(&knee_dones));
    let (mismatches, _) = serve::verify(&ks, &check);
    if mismatches > 0 {
        rep.failed += mismatches;
        rep.problem(format!(
            "{mismatches} served mappings differ from the cold Mapper::map bytes"
        ));
    }

    let (stages, profile) = serve::trace_stages(&dones_t);
    let stage = |n: &str| stages.get(n).copied().unwrap_or(0.0);
    let sent = dones_u.len().max(1) as f64;
    let client_p50_us = untraced.p50_ms * 1e3;
    let dispatch_us = whole.get("dispatch").copied().unwrap_or(0.0);
    rep.set("client.lag_p99_ms", untraced.lag_p99_ms);
    rep.set(
        "service.parse_us",
        split.get("parse").copied().unwrap_or(0.0),
    );
    rep.set(
        "service.submit_us",
        split.get("submit").copied().unwrap_or(0.0),
    );
    rep.set(
        "service.serialize_us",
        split.get("serialize").copied().unwrap_or(0.0),
    );
    rep.set("service.dispatch_us", dispatch_us);
    for s in [
        "fingerprint",
        "l1",
        "l2",
        "l2_parse",
        "queue_wait",
        "compute",
    ] {
        rep.set(&format!("service.{s}_us"), stage(s));
    }
    rep.set("service.l1_hit_frac", (s1.hits - s0.hits) as f64 / sent);
    rep.set(
        "service.l2_hit_frac",
        (s1.l2_hits - s0.l2_hits) as f64 / sent,
    );
    rep.set(
        "service.computed_frac",
        (s1.misses - s0.misses) as f64 / sent,
    );
    rep.set(
        "service.coalesced_frac",
        (s1.coalesced - s0.coalesced) as f64 / sent,
    );
    rep.set(
        "aio.frames_per_batch",
        (l1.0 - l0.0) as f64 / (l1.1 - l0.1).max(1) as f64,
    );
    rep.set("aio.backpressure", (l1.2 - l0.2) as f64);
    let unattributed_us = client_p50_us - dispatch_us;
    rep.set("frontend.unattributed_us", unattributed_us);
    rep.set(
        "frontend.unattributed_frac",
        unattributed_us / client_p50_us,
    );
    let overhead = traced.p50_ms / untraced.p50_ms - 1.0;
    rep.set("obs.trace_overhead_frac", overhead);
    rep.set("serve.knee_rps", knee_rps);
    // The mapper's own profile of the computes inside the traced phase.
    for (span, metric) in [
        ("tagging", "core.tags.self_s"),
        ("cluster", "core.cluster.self_s"),
        ("schedule", "core.schedule.self_s"),
        ("lower", "core.codegen.self_s"),
    ] {
        rep.set(metric, profile.get(span).copied().unwrap_or(0.0));
    }
    rep.zero_unset();

    rep.note(format!(
        "headline p50_ms (untraced) {:.3} ms; traced {:.3} ms; obs.trace_overhead_frac {overhead:.4}",
        untraced.p50_ms, traced.p50_ms
    ));
    rep.note(format!("untraced pooled: {}", untraced.pooled.render("ms")));
    for v in &knee_probes {
        rep.note(format!(
            "ladder {:>8.1} req/s: p50 {:.2} ms p99 {:.2} ms lag p99 {:.2} ms -> {}",
            v.rate,
            v.p50_ms,
            v.p99_ms,
            v.lag_p99_ms,
            if v.meets_slo { "meets" } else { v.why.as_str() }
        ));
    }
    rep.note(format!("serve.knee_rps {knee_rps:.1} req/s"));
    rep.note(format!(
        "client p50 {client_p50_us:.1} us = dispatch_line p50 {dispatch_us:.1} us + unattributed {unattributed_us:.1} us ({:.1}%, frontend.unattributed_frac)",
        100.0 * unattributed_us / client_p50_us
    ));
    rep.note(format!(
        "replay p50: parse {:.1} us, submit {:.1} us, serialize {:.1} us",
        split.get("parse").copied().unwrap_or(0.0),
        split.get("submit").copied().unwrap_or(0.0),
        split.get("serialize").copied().unwrap_or(0.0)
    ));
    rep.note(format!(
        "trace stage p50 (us): {}",
        stages
            .iter()
            .map(|(k, v)| format!("{k} {v:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(())
}
