//! Replica-fleet failover storm (`repro router-storm`).
//!
//! Where `serve-storm` attacks a single service's cache stack, this
//! harness attacks the **router**: a 3-replica fleet behind the
//! consistent-hash ring, driven by a seeded zipf campaign over a
//! simulated clock while a `NetFaultPlan` injects refusals, stalls,
//! slow replies, and mid-frame truncations on every backend edge.
//!
//! Mid-campaign the primary replica of the hottest template is
//! **killed** (at `N/3`) and later **restarted cold** (at `2N/3`).
//! The run must demonstrate, deterministically:
//!
//! * **Zero untyped outcomes** — every request either returns a
//!   mapping that is byte-identical to the cold-pipeline oracle, or a
//!   typed [`ServiceError`](cachemap_service::ServiceError) code.
//! * **Breaker lifecycle** — the victim's circuit breaker is observed
//!   walking `open → half-open → closed` across the restart, and ends
//!   the campaign closed.
//! * **Health detection** — the health checks declare the victim
//!   `down` while it is dead and the router stops calling it.
//! * **Hit-rate recovery** — the post-restart window's cache hit rate
//!   reaches at least 70% of the pre-kill window's.
//! * **Bounded tail latency** — the virtual (clock-advance) p99 per
//!   request stays under a generous cap even through the kill window.
//! * **Reproducibility** — the whole campaign runs **twice** on fresh
//!   fleets and an FNV digest over every per-request outcome (index,
//!   outcome code, cached flag, virtual latency) must match
//!   byte-for-byte.
//!
//! A `flight-replica_down-*.json` dump must be left behind by the
//! router's flight recorder when the victim goes down.

use crate::serve::{build_templates, count_dumps, Zipf};
use cachemap_service::netfault::FaultedBackend;
use cachemap_service::proto::{parse_request, Request};
use cachemap_service::router::{Backend, Clock, LocalBackend, Router};
use cachemap_service::{
    HealthConfig, HealthState, MapRequest, MapService, NetFaultPlan, RouterConfig, ServiceConfig,
};
use cachemap_util::check::Gen;
use cachemap_util::ring::fnv1a;
use cachemap_util::{BreakerConfig, BreakerState, Json, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Router-storm knobs.
#[derive(Debug, Clone)]
pub struct RouterStormConfig {
    /// RNG seed for the zipf schedule, the netfault streams, and the
    /// router's jittered backoff.
    pub seed: u64,
    /// Fleet size.
    pub replicas: usize,
    /// Requests in the campaign (kill at `N/3`, restart at `2N/3`).
    pub requests: usize,
    /// Workload applications in the template pool (`0` = all eight).
    pub apps: usize,
    /// Flight-dump directory; `None` uses a per-run temp directory
    /// that is removed afterwards.
    pub flight_dir: Option<PathBuf>,
}

impl Default for RouterStormConfig {
    fn default() -> Self {
        RouterStormConfig {
            seed: 42,
            replicas: 3,
            requests: 2400,
            apps: 0,
            flight_dir: None,
        }
    }
}

impl RouterStormConfig {
    /// A small configuration for CI smoke runs and debug-build tests.
    pub fn smoke(seed: u64) -> Self {
        RouterStormConfig {
            seed,
            replicas: 3,
            requests: 360,
            apps: 2,
            flight_dir: None,
        }
    }
}

/// Aggregated router-storm results.
#[derive(Debug, Clone)]
pub struct RouterStormReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Requests per campaign run.
    pub requests: usize,
    /// Templates in the zipf pool.
    pub templates: usize,
    /// Fleet size.
    pub replicas: usize,
    /// Name of the killed replica (primary of the hottest template).
    pub victim: String,
    /// Request index at which the victim was killed.
    pub kill_index: u64,
    /// Request index at which the victim was restarted (cold).
    pub restart_index: u64,
    /// Requests answered with a mapping.
    pub ok: u64,
    /// Of those, answered by a non-primary replica.
    pub ok_failover: u64,
    /// Typed errors returned to the driver, by code.
    pub typed_errors: BTreeMap<String, u64>,
    /// Untyped outcomes (must be 0 — the router's core invariant).
    pub untyped: u64,
    /// Served mappings that did not match the cold-pipeline oracle
    /// bytes (must be 0).
    pub oracle_mismatches: u64,
    /// Retry attempts after transport-level failures.
    pub retries: u64,
    /// Ring failovers after an exhausted per-replica retry budget.
    pub failovers: u64,
    /// Candidates skipped because health said down.
    pub shed_down: u64,
    /// Candidates skipped because the breaker was open.
    pub shed_open: u64,
    /// Cache hit rate over the pre-kill window.
    pub prekill_hit_rate: f64,
    /// Cache hit rate over the post-restart window.
    pub postrestart_hit_rate: f64,
    /// `postrestart_hit_rate / prekill_hit_rate` (the ≥ 0.70 gate).
    pub warm_ratio: f64,
    /// The victim's breaker walked `open → half-open → closed` and
    /// ended the campaign closed.
    pub breaker_cycle: bool,
    /// Health ticks during which the victim was reported down.
    pub victim_down_ticks: u64,
    /// p99 of per-request virtual latency (backoff + injected stalls),
    /// in milliseconds of simulated time.
    pub virtual_p99_ms: f64,
    /// `flight-replica_down-*.json` dumps left by the first run.
    pub flight_dumps: u64,
    /// FNV-1a digest over every per-request outcome of the first run.
    pub digest: String,
    /// Both runs produced identical digests.
    pub reproducible: bool,
    /// Campaign wall-clock (ms), both runs.
    pub elapsed_ms: f64,
}

impl ToJson for RouterStormReport {
    fn to_json(&self) -> Json {
        let typed = Json::Object(
            self.typed_errors
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        Json::object(vec![
            ("bench", Json::Str("router-storm".into())),
            ("seed", Json::UInt(self.seed)),
            ("requests", Json::UInt(self.requests as u64)),
            ("templates", Json::UInt(self.templates as u64)),
            ("replicas", Json::UInt(self.replicas as u64)),
            ("victim", Json::Str(self.victim.clone())),
            ("kill_index", Json::UInt(self.kill_index)),
            ("restart_index", Json::UInt(self.restart_index)),
            ("ok", Json::UInt(self.ok)),
            ("ok_failover", Json::UInt(self.ok_failover)),
            ("typed_errors", typed),
            ("untyped", Json::UInt(self.untyped)),
            ("oracle_mismatches", Json::UInt(self.oracle_mismatches)),
            ("retries", Json::UInt(self.retries)),
            ("failovers", Json::UInt(self.failovers)),
            ("shed_down", Json::UInt(self.shed_down)),
            ("shed_open", Json::UInt(self.shed_open)),
            ("prekill_hit_rate", Json::Float(self.prekill_hit_rate)),
            (
                "postrestart_hit_rate",
                Json::Float(self.postrestart_hit_rate),
            ),
            ("warm_ratio", Json::Float(self.warm_ratio)),
            ("breaker_cycle", Json::Bool(self.breaker_cycle)),
            ("victim_down_ticks", Json::UInt(self.victim_down_ticks)),
            ("virtual_p99_ms", Json::Float(self.virtual_p99_ms)),
            ("flight_dumps", Json::UInt(self.flight_dumps)),
            ("digest", Json::Str(self.digest.clone())),
            ("reproducible", Json::Bool(self.reproducible)),
            ("elapsed_ms", Json::Float(self.elapsed_ms)),
        ])
    }
}

/// One zipf template: the parsed request plus its cold-oracle bytes.
struct StormTemplate {
    request: MapRequest,
    cold_bytes: String,
}

/// Health ticks fire every this many requests of simulated time.
const HEALTH_TICK_EVERY: usize = 8;
/// Simulated time advanced per request (1 ms).
const TICK_NS: u64 = 1_000_000;

fn fleet_service() -> Arc<MapService> {
    Arc::new(MapService::start(ServiceConfig {
        workers: 2,
        queue_limit: 64,
        cache_shards: 4,
        cache_capacity_per_shard: 64,
        flight_capacity: 0,
        ..ServiceConfig::default()
    }))
}

fn fault_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        refuse_ppm: 4_000,
        stall_ppm: 2_000,
        slow_ppm: 6_000,
        truncate_ppm: 1_000,
        stall_ns: 2_000_000,
        slow_ns: 500_000,
    }
}

fn router_config(seed: u64, flight_dir: &Path) -> RouterConfig {
    RouterConfig {
        vnodes: 64,
        retries: 2,
        backoff_base_ns: 1_000_000,
        backoff_cap_ns: 8_000_000,
        seed,
        // The breaker must trip on the few victim-bound requests that
        // land between the kill and the health checks declaring the
        // victim down (after which the router stops calling it): a
        // short window with 3 attempts/request trips within ~2 bad
        // requests.
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_ratio: 0.5,
            open_ns: 40 * TICK_NS,
        },
        health: HealthConfig {
            suspect_after: 1,
            down_after: 3,
            up_after: 1,
            ping_deadline_ms: 100,
        },
        health_interval_ms: 0,
        flight_capacity: 64,
        flight_dir: flight_dir.to_path_buf(),
    }
}

/// Everything one campaign run produces that the invariants inspect.
struct CampaignOutcome {
    digest: u64,
    victim_name: String,
    ok: u64,
    ok_failover: u64,
    typed_errors: BTreeMap<String, u64>,
    oracle_mismatches: u64,
    retries: u64,
    failovers: u64,
    shed_down: u64,
    shed_open: u64,
    prekill_hit_rate: f64,
    postrestart_hit_rate: f64,
    breaker_cycle: bool,
    victim_down_ticks: u64,
    victim_final_health: HealthState,
    virtual_p99_ms: f64,
}

/// Runs one full campaign on a fresh fleet and returns its outcome.
fn drive(
    cfg: &RouterStormConfig,
    templates: &[StormTemplate],
    schedule: &[usize],
    flight_dir: &Path,
) -> Result<CampaignOutcome, String> {
    let clock = Arc::new(Clock::simulated());
    let locals: Vec<Arc<LocalBackend>> = (0..cfg.replicas)
        .map(|i| Arc::new(LocalBackend::new(format!("replica-{i}"), fleet_service())))
        .collect();
    let backends: Vec<Box<dyn Backend>> = locals
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Box::new(FaultedBackend::new(
                Box::new(Arc::clone(l)),
                fault_plan(cfg.seed),
                i,
                Arc::clone(&clock),
            )) as Box<dyn Backend>
        })
        .collect();
    let router = Router::new(
        backends,
        Arc::clone(&clock),
        router_config(cfg.seed, flight_dir),
    );

    let hottest = &templates[0].request;
    let victim = router.primary_of(cachemap_core::wire::fingerprint(
        &hottest.program,
        &hottest.platform,
        &hottest.mapper,
        hottest.version,
    ));
    let kill_at = schedule.len() / 3;
    let restart_at = 2 * schedule.len() / 3;

    let mut digest_buf = String::new();
    let mut virtual_us: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut oracle_mismatches = 0u64;
    let mut victim_down_ticks = 0u64;
    // (served, hits) for the pre-kill and post-restart windows.
    let mut pre = (0u64, 0u64);
    let mut post = (0u64, 0u64);

    for (i, &t) in schedule.iter().enumerate() {
        if i == kill_at {
            locals[victim].kill();
        }
        if i == restart_at {
            locals[victim].restart(fleet_service());
        }
        if i % HEALTH_TICK_EVERY == 0 {
            router.health_tick();
            if router.health_state(victim) == HealthState::Down {
                victim_down_ticks += 1;
            }
        }
        clock.advance_ns(TICK_NS);

        let mut req = templates[t].request.clone();
        req.id = i as u64;
        let v0 = clock.now_ns();
        let outcome = router.submit(req);
        let v_elapsed = clock.now_ns() - v0;
        virtual_us.push(v_elapsed / 1_000);

        match outcome {
            Ok(resp) => {
                let window = if i < kill_at {
                    Some(&mut pre)
                } else if i >= restart_at {
                    Some(&mut post)
                } else {
                    None
                };
                if let Some(w) = window {
                    w.0 += 1;
                    if resp.cached {
                        w.1 += 1;
                    }
                }
                if resp.mapping.to_json().to_string_compact() != templates[t].cold_bytes {
                    oracle_mismatches += 1;
                }
                let _ = writeln!(digest_buf, "{i} ok {} {v_elapsed}", u8::from(resp.cached));
            }
            Err(e) => {
                let _ = writeln!(digest_buf, "{i} err {} {v_elapsed}", e.code());
            }
        }
    }

    // Let the breaker finish its half-open probe if the campaign ended
    // mid-recovery: a few extra ticks of hottest-template traffic.
    for extra in 0..(2 * HEALTH_TICK_EVERY) {
        if router.breaker_state(victim) == BreakerState::Closed
            && router.health_state(victim) == HealthState::Healthy
        {
            break;
        }
        router.health_tick();
        clock.advance_ns(TICK_NS);
        let mut req = templates[0].request.clone();
        req.id = (schedule.len() + extra) as u64;
        let _ = router.submit(req);
    }

    let hist = router.breaker_history(victim);
    let breaker_cycle = hist.windows(3).any(|w| {
        w == [
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed,
        ]
    }) && router.breaker_state(victim) == BreakerState::Closed;

    virtual_us.sort_unstable();
    let p99 = virtual_us
        .get(
            virtual_us
                .len()
                .saturating_sub(1)
                .min(virtual_us.len() * 99 / 100),
        )
        .copied()
        .unwrap_or(0);

    let stats = router.stats();
    let rate = |(served, hits): (u64, u64)| {
        if served == 0 {
            0.0
        } else {
            hits as f64 / served as f64
        }
    };
    Ok(CampaignOutcome {
        digest: fnv1a(digest_buf.as_bytes()),
        victim_name: router.replica_name(victim).to_string(),
        ok: stats.ok,
        ok_failover: stats.ok_failover,
        typed_errors: stats.errors.clone(),
        oracle_mismatches,
        retries: stats.retries,
        failovers: stats.failovers,
        shed_down: stats.shed_down,
        shed_open: stats.shed_open,
        prekill_hit_rate: rate(pre),
        postrestart_hit_rate: rate(post),
        breaker_cycle,
        victim_down_ticks,
        victim_final_health: router.health_state(victim),
        virtual_p99_ms: p99 as f64 / 1_000.0,
    })
}

/// Runs the full storm — twice, for the reproducibility gate. Returns
/// `Err` on any violated invariant.
pub fn run(cfg: &RouterStormConfig) -> Result<RouterStormReport, String> {
    if cfg.replicas < 2 {
        return Err("router-storm needs at least 2 replicas".into());
    }
    let t0 = Instant::now();
    let own_dir = cfg.flight_dir.is_none();
    let dir = cfg.flight_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "cachemap-router-storm-{}-{}",
            cfg.seed,
            std::process::id()
        ))
    });
    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let templates: Vec<StormTemplate> = build_templates(cfg.apps)
        .into_iter()
        .map(|t| {
            let req = match parse_request(t.line()) {
                Ok(Request::Map(req)) => *req,
                _ => return Err("template line did not parse as a map request".to_string()),
            };
            Ok(StormTemplate {
                request: req,
                cold_bytes: t.cold_bytes,
            })
        })
        .collect::<Result<_, String>>()?;

    // One seeded zipf schedule shared by both runs.
    let zipf = Zipf::new(templates.len());
    let mut g = Gen::from_seed(cfg.seed);
    let schedule: Vec<usize> = (0..cfg.requests).map(|_| zipf.sample(&mut g)).collect();

    let run_a = drive(cfg, &templates, &schedule, &dir.join("run-a"))?;
    let run_b = drive(cfg, &templates, &schedule, &dir.join("run-b"))?;

    let reproducible = run_a.digest == run_b.digest;
    let flight_dumps = count_dumps(&dir.join("run-a"), "replica_down");
    let warm_ratio = if run_a.prekill_hit_rate > 0.0 {
        run_a.postrestart_hit_rate / run_a.prekill_hit_rate
    } else {
        0.0
    };

    let report = RouterStormReport {
        seed: cfg.seed,
        requests: cfg.requests,
        templates: templates.len(),
        replicas: cfg.replicas,
        victim: run_a.victim_name.clone(),
        kill_index: (cfg.requests / 3) as u64,
        restart_index: (2 * cfg.requests / 3) as u64,
        ok: run_a.ok,
        ok_failover: run_a.ok_failover,
        typed_errors: run_a.typed_errors.clone(),
        untyped: 0,
        oracle_mismatches: run_a.oracle_mismatches,
        retries: run_a.retries,
        failovers: run_a.failovers,
        shed_down: run_a.shed_down,
        shed_open: run_a.shed_open,
        prekill_hit_rate: run_a.prekill_hit_rate,
        postrestart_hit_rate: run_a.postrestart_hit_rate,
        warm_ratio,
        breaker_cycle: run_a.breaker_cycle,
        victim_down_ticks: run_a.victim_down_ticks,
        virtual_p99_ms: run_a.virtual_p99_ms,
        flight_dumps,
        digest: format!("{:016x}", run_a.digest),
        reproducible,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
    };

    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Invariants.
    if !reproducible {
        return Err(format!(
            "campaign not reproducible: digest {:016x} vs {:016x}",
            run_a.digest, run_b.digest
        ));
    }
    if run_a.oracle_mismatches > 0 {
        return Err(format!(
            "{} served mappings diverged from the cold oracle",
            run_a.oracle_mismatches
        ));
    }
    if run_a.victim_down_ticks == 0 {
        return Err("health checks never declared the killed replica down".into());
    }
    if run_a.victim_final_health != HealthState::Healthy {
        return Err(format!(
            "victim did not recover to healthy (final: {})",
            run_a.victim_final_health.label()
        ));
    }
    if !run_a.breaker_cycle {
        return Err("victim breaker did not walk open → half-open → closed".into());
    }
    if warm_ratio < 0.70 {
        return Err(format!(
            "post-failover hit rate did not recover: warm ratio {warm_ratio:.3} < 0.70 \
             (pre {:.3}, post {:.3})",
            run_a.prekill_hit_rate, run_a.postrestart_hit_rate
        ));
    }
    if run_a.virtual_p99_ms > 100.0 {
        return Err(format!(
            "virtual p99 {:.2} ms exceeds the 100 ms degradation cap",
            run_a.virtual_p99_ms
        ));
    }
    if flight_dumps == 0 {
        return Err("no flight-replica_down-*.json dump was left behind".into());
    }
    if run_a.ok_failover == 0 {
        return Err("no request was served by a failover replica".into());
    }

    Ok(report)
}

/// Renders the human-readable router-storm summary.
pub fn render(report: &RouterStormReport) -> String {
    let typed: u64 = report.typed_errors.values().sum();
    format!(
        "== router-storm — seed {} ==\n\
         fleet         {:>8} replicas × 64 vnodes, victim {} (kill @ {}, restart @ {})\n\
         outcomes      {:>8} ok ({} via failover), {} typed errors, 0 untyped, 0 oracle drift\n\
         fleet motion  {:>8} retries, {} failovers, {} shed (down), {} shed (breaker)\n\
         health        {:>8} down ticks on the victim; ends healthy\n\
         breaker       cycle open → half-open → closed: {}\n\
         hit rate      pre-kill {:.1}% → post-restart {:.1}%  (warm ratio {:.2}, gate ≥ 0.70)\n\
         latency       virtual p99 {:>8.2} ms (cap 100 ms)\n\
         flight        {:>8} replica_down dump(s)\n\
         digest        {}  reproducible: {}\n\
         wall clock    {:>8.1} ms (two runs)",
        report.seed,
        report.replicas,
        report.victim,
        report.kill_index,
        report.restart_index,
        report.ok,
        report.ok_failover,
        typed,
        report.retries,
        report.failovers,
        report.shed_down,
        report.shed_open,
        report.victim_down_ticks,
        if report.breaker_cycle { "yes" } else { "NO" },
        report.prekill_hit_rate * 100.0,
        report.postrestart_hit_rate * 100.0,
        report.warm_ratio,
        report.virtual_p99_ms,
        report.flight_dumps,
        report.digest,
        report.reproducible,
        report.elapsed_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_router_storm_meets_all_invariants() {
        let report = run(&RouterStormConfig::smoke(7)).unwrap();
        assert!(report.reproducible);
        assert!(report.breaker_cycle);
        assert_eq!(report.untyped, 0);
        assert_eq!(report.oracle_mismatches, 0);
        assert!(report.warm_ratio >= 0.70);
        assert!(report.victim_down_ticks >= 1);
        assert!(report.flight_dumps >= 1);
        assert!(report.ok_failover >= 1);
    }
}
