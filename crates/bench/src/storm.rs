//! Robustness storm for the mapping service (`repro serve-storm`).
//!
//! This harness attacks the failure paths of the two-tier cache stack,
//! in four phases over one live [`AsyncServer`] + crash-durable L2
//! directory:
//!
//! 1. **Hot-fingerprint barrage** — many connections fire the *same*
//!    request simultaneously at a cold service. The pipeline runs
//!    exactly **once**: the service's miss counter must read 1, and
//!    every `cached: false` reply must carry the same trace id. (The
//!    front end answers byte-identical lines of one batch once and
//!    fans the reply out verbatim, so several connections may receive
//!    that one compute's reply.) Every reply must be byte-identical to
//!    the cold oracle.
//! 2. **Pre-kill zipf campaign** — closed-loop clients replay a seeded
//!    zipf mix; once the clients have seen half their replies the
//!    service is **killed** (crash simulation: workers stop, nothing
//!    is flushed) and every still-queued request must come back with a
//!    typed error.
//! 3. **Torn-tail restart** — the tail of the active L2 segment is
//!    truncated (a partial final write), the service is restarted on
//!    the same directory, and the zipf campaign re-runs. Recovery must
//!    succeed and the warm hit rate must reach at least 80% of the
//!    pre-kill rate.
//! 4. **Drain under load** — with clients still hammering, a graceful
//!    shutdown runs; every in-flight and queued request is answered
//!    (mapping or typed error — zero untyped drops), and the drain
//!    duration lands in the stats.
//!
//! Phase triggers count replies on the client side: deduped lines
//! never reach the service's own admission counters.

use crate::serve::{
    build_templates, count_dumps, scrape_metrics, validate_prometheus, Template, Zipf,
};
use cachemap_service::aserver::AsyncServer;
use cachemap_service::{MapService, ServiceConfig};
use cachemap_util::check::Gen;
use cachemap_util::{json, Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Storm-campaign knobs.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// RNG seed for the zipf phases.
    pub seed: u64,
    /// Simultaneous connections in the hot-fingerprint barrage.
    pub storm_connections: usize,
    /// Requests per zipf phase (pre-kill and post-restart).
    pub zipf_requests: usize,
    /// Closed-loop client threads per zipf phase.
    pub clients: usize,
    /// Workload applications in the template pool (`0` = all eight).
    pub apps: usize,
    /// L2 cache directory; `None` uses a per-run temp directory that is
    /// removed afterwards.
    pub l2_dir: Option<PathBuf>,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 42,
            storm_connections: 64,
            zipf_requests: 800,
            clients: 8,
            apps: 0,
            l2_dir: None,
        }
    }
}

impl StormConfig {
    /// A small configuration for CI smoke runs and debug-build tests.
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            seed,
            storm_connections: 16,
            zipf_requests: 120,
            clients: 4,
            apps: 2,
            l2_dir: None,
        }
    }
}

/// Aggregated storm results.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Connections in the hot-fingerprint barrage.
    pub storm_connections: usize,
    /// Distinct trace ids among the barrage's `cached: false` replies
    /// (must be 1: one pipeline run, possibly fanned out to several
    /// connections).
    pub storm_computes: u64,
    /// Requests that attached to the in-flight computation.
    pub storm_coalesced: u64,
    /// Distinct trace ids among barrage replies carrying a `follower`
    /// coalesce span — must equal `storm_coalesced`: every waiter can
    /// point at the in-flight computation it waited on.
    pub storm_follower_spans: u64,
    /// `flight-slow_request-*.json` dumps left behind by the campaign.
    pub slow_dumps: u64,
    /// `flight-recovery-*.json` dumps from the torn-tail restart.
    pub recovery_dumps: u64,
    /// `flight-drain-*.json` dumps from the graceful shutdown.
    pub drain_dumps: u64,
    /// Successful zipf replies before the kill.
    pub prekill_served: u64,
    /// Typed rejections during the kill window.
    pub prekill_rejected: u64,
    /// Cache hit rate over the pre-kill zipf phase.
    pub prekill_hit_rate: f64,
    /// Bytes torn off the active L2 segment before restart.
    pub torn_bytes: u64,
    /// L2 index entries recovered at restart.
    pub recovered_entries: u64,
    /// Cache hit rate over the post-restart zipf phase.
    pub postrestart_hit_rate: f64,
    /// `postrestart_hit_rate / prekill_hit_rate` (the ≥ 0.8 gate).
    pub warm_ratio: f64,
    /// Requests issued during the drain-under-load phase.
    pub drain_requests: u64,
    /// Of those, served with a mapping.
    pub drain_served: u64,
    /// Of those, rejected with a typed error code.
    pub drain_rejected_typed: u64,
    /// Duration of the graceful drain in seconds.
    pub drain_seconds: f64,
    /// Campaign wall-clock (ms).
    pub elapsed_ms: f64,
    /// Scraped `/metrics` passed the Prometheus schema check.
    pub metrics_schema_ok: bool,
}

impl ToJson for StormReport {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("bench", Json::Str("serve-storm".into())),
            ("seed", Json::UInt(self.seed)),
            (
                "storm_connections",
                Json::UInt(self.storm_connections as u64),
            ),
            ("storm_computes", Json::UInt(self.storm_computes)),
            ("storm_coalesced", Json::UInt(self.storm_coalesced)),
            (
                "storm_follower_spans",
                Json::UInt(self.storm_follower_spans),
            ),
            ("slow_dumps", Json::UInt(self.slow_dumps)),
            ("recovery_dumps", Json::UInt(self.recovery_dumps)),
            ("drain_dumps", Json::UInt(self.drain_dumps)),
            ("prekill_served", Json::UInt(self.prekill_served)),
            ("prekill_rejected", Json::UInt(self.prekill_rejected)),
            ("prekill_hit_rate", Json::Float(self.prekill_hit_rate)),
            ("torn_bytes", Json::UInt(self.torn_bytes)),
            ("recovered_entries", Json::UInt(self.recovered_entries)),
            (
                "postrestart_hit_rate",
                Json::Float(self.postrestart_hit_rate),
            ),
            ("warm_ratio", Json::Float(self.warm_ratio)),
            ("drain_requests", Json::UInt(self.drain_requests)),
            ("drain_served", Json::UInt(self.drain_served)),
            (
                "drain_rejected_typed",
                Json::UInt(self.drain_rejected_typed),
            ),
            ("drain_seconds", Json::Float(self.drain_seconds)),
            ("elapsed_ms", Json::Float(self.elapsed_ms)),
            ("metrics_schema_ok", Json::Bool(self.metrics_schema_ok)),
        ])
    }
}

fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        l2_dir: Some(dir.to_path_buf()),
        drain_limit_ms: 10_000,
        // Tracing on with a 1 ms slow-request threshold: the storm is
        // built out of anomalies, so it must leave flight dumps behind
        // (slow coalesce waits, the torn-tail recovery, the drain).
        tracing: true,
        slow_trace_ms: 1,
        flight_dir: dir.join("flight"),
        ..ServiceConfig::default()
    }
}

/// One barrage reply: whether it came from cache, its trace id, and
/// whether its trace carries a coalesce span tagged `follower` (the
/// request waited on the leader's compute).
struct HotReply {
    cached: bool,
    trace_id: String,
    follower: bool,
}

/// One barrage shooter: connect, wait for the barrier, fire the hot
/// line once, parse the reply.
fn fire_hot(addr: SocketAddr, barrier: &Barrier, hot: &Template) -> Result<HotReply, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    barrier.wait();
    writer
        .write_all(hot.frame.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let v = json::parse(&reply).map_err(|e| format!("bad reply json: {e}"))?;
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("storm reply was not ok: {}", reply.trim()));
    }
    let got = v
        .get("mapping")
        .ok_or("ok reply without a mapping")?
        .to_string_compact();
    if got != hot.cold_bytes {
        return Err("storm mapping diverged from the cold oracle".into());
    }
    let trace = v.get("trace").ok_or("storm reply without a trace")?;
    let trace_id = trace
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or("storm trace without an id")?
        .to_string();
    let follower = trace
        .get("stages")
        .and_then(Json::as_array)
        .is_some_and(|stages| {
            stages.iter().any(|s| {
                s.get("name").and_then(Json::as_str) == Some("coalesce")
                    && s.get("role").and_then(Json::as_str) == Some("follower")
            })
        });
    Ok(HotReply {
        cached: v.get("cached") == Some(&Json::Bool(true)),
        trace_id,
        follower,
    })
}

/// The newest `seg-*.log` file in the L2 directory.
fn last_segment(dir: &Path) -> Option<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop()
}

#[derive(Default)]
struct ZipfOutcome {
    served: u64,
    hits: u64,
    rejections: BTreeMap<String, u64>,
}

impl ZipfOutcome {
    fn rejected(&self) -> u64 {
        self.rejections.values().sum()
    }

    fn hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.hits as f64 / self.served as f64
        }
    }

    fn absorb(&mut self, other: ZipfOutcome) {
        self.served += other.served;
        self.hits += other.hits;
        for (code, n) in other.rejections {
            *self.rejections.entry(code).or_insert(0) += n;
        }
    }
}

/// One closed-loop client: sends `requests` zipf-chosen templates one
/// at a time over one connection, checks every mapping against the
/// cold oracle, and tallies hits and typed rejections. Bumps `replies`
/// once per answered request.
fn drive_client(
    addr: SocketAddr,
    templates: &[Template],
    zipf: &Zipf,
    seed: u64,
    requests: usize,
    replies: &AtomicU64,
) -> Result<ZipfOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut g = Gen::from_seed(seed);
    let mut tally = ZipfOutcome::default();
    let mut reply = String::new();
    for k in 0..requests {
        let t = &templates[zipf.sample(&mut g)];
        writer
            .write_all(t.frame.as_bytes())
            .map_err(|e| format!("request {k}: write: {e}"))?;
        reply.clear();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("request {k}: read: {e}"))?;
        if reply.is_empty() {
            return Err(format!("request {k}: connection closed without a reply"));
        }
        replies.fetch_add(1, Ordering::Relaxed);
        let v = json::parse(&reply).map_err(|e| format!("request {k}: bad reply json: {e}"))?;
        match v.get("status").and_then(Json::as_str) {
            Some("ok") => {
                // Hit or miss, the bytes match the cold run.
                let mapping = v
                    .get("mapping")
                    .ok_or_else(|| format!("request {k}: ok reply without a mapping"))?;
                if mapping.to_string_compact() != t.cold_bytes {
                    return Err(format!(
                        "request {k}: mapping diverged from the cold pipeline"
                    ));
                }
                tally.served += 1;
                tally.hits += u64::from(v.get("cached") == Some(&Json::Bool(true)));
            }
            Some("error") => {
                // Rejections carry a typed code.
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .filter(|c| !c.is_empty())
                    .ok_or_else(|| format!("request {k}: error reply without a code"))?;
                *tally.rejections.entry(code.to_string()).or_insert(0) += 1;
            }
            other => return Err(format!("request {k}: unrecognized status {other:?}")),
        }
    }
    Ok(tally)
}

/// Runs one closed-loop zipf campaign of `requests` over `cfg.clients`
/// connections. With a `trigger`, `action` runs once the clients have
/// seen `at` replies (or after a hard 10 s backstop, so a stall cannot
/// hang the harness) — while clients are still mid-flight.
fn zipf_phase(
    addr: SocketAddr,
    templates: &[Template],
    cfg: &StormConfig,
    requests: usize,
    phase_seed: u64,
    trigger: Option<(u64, &(dyn Fn() + Sync))>,
) -> Result<ZipfOutcome, String> {
    let zipf = Zipf::new(templates.len());
    let clients = cfg.clients.max(1);
    let replies = AtomicU64::new(0);
    // Scoped threads (not the shared pool): the trigger must be able
    // to land while clients are mid-flight.
    let tallies: Vec<Result<ZipfOutcome, String>> = std::thread::scope(|s| {
        if let Some((at, action)) = trigger {
            let replies = &replies;
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while replies.load(Ordering::Relaxed) < at && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                action();
            });
        }
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let share = requests / clients + usize::from(c < requests % clients);
                let seed = phase_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (c as u64 + 1);
                let (zipf, replies) = (&zipf, &replies);
                s.spawn(move || drive_client(addr, templates, zipf, seed, share, replies))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("zipf client panicked".into()))
            })
            .collect()
    });

    let mut total = ZipfOutcome::default();
    for tally in tallies {
        total.absorb(tally?);
    }
    // Zero untyped drops: every request in the phase is accounted for.
    if (total.served + total.rejected()) as usize != requests {
        return Err(format!(
            "phase dropped requests silently: {} served + {} rejected != {requests}",
            total.served,
            total.rejected()
        ));
    }
    Ok(total)
}

/// Runs the full storm. Panics (via `Err`) on any violated invariant.
pub fn run(cfg: &StormConfig) -> Result<StormReport, String> {
    let t0 = Instant::now();
    let own_dir = cfg.l2_dir.is_none();
    let dir = cfg.l2_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "cachemap-storm-{}-{}",
            cfg.seed,
            std::process::id()
        ))
    });
    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let templates = build_templates(cfg.apps);

    // ---- Phase 1 + 2: cold service, hot barrage, then zipf + kill.
    let service = Arc::new(MapService::start(service_config(&dir)));
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    let shooters = cfg.storm_connections.max(2);
    let barrier = Barrier::new(shooters);
    let hot = &templates[0];
    let hot_replies: Vec<Result<HotReply, String>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..shooters)
            .map(|_| s.spawn(|| fire_hot(addr, &barrier, hot)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("storm shooter panicked".into()))
            })
            .collect()
    });
    let mut compute_ids = BTreeSet::new();
    let mut follower_ids = BTreeSet::new();
    for reply in hot_replies {
        let reply = reply?;
        if !reply.cached {
            compute_ids.insert(reply.trace_id.clone());
        }
        if reply.follower {
            follower_ids.insert(reply.trace_id);
        }
    }
    let storm_stats = service.stats();
    if compute_ids.len() != 1 {
        return Err(format!(
            "hot barrage: expected one computing request, saw {} trace ids on \
             cached:false replies",
            compute_ids.len()
        ));
    }
    if storm_stats.misses != 1 {
        return Err(format!(
            "hot barrage: {} pipeline runs for one fingerprint",
            storm_stats.misses
        ));
    }
    // Attribution invariant: every coalesced waiter's trace points at
    // the computation it waited on — a `follower` span per attach.
    if follower_ids.len() as u64 != storm_stats.coalesced {
        return Err(format!(
            "hot barrage: {} follower trace ids but {} coalesce attaches",
            follower_ids.len(),
            storm_stats.coalesced
        ));
    }

    let kill = || service.kill();
    let half = (cfg.zipf_requests / 2) as u64;
    let prekill = zipf_phase(
        addr,
        &templates,
        cfg,
        cfg.zipf_requests,
        cfg.seed,
        Some((half, &kill)),
    )?;
    // The kill must not leave untyped wreckage: everything rejected
    // during the window carried a code (zipf_phase already checked).
    drop(server);
    drop(service);

    // ---- Phase 3: tear the tail of the last segment, restart, re-run.
    let torn_bytes = match last_segment(&dir) {
        Some(seg) => {
            let len = std::fs::metadata(&seg)
                .map_err(|e| format!("stat: {e}"))?
                .len();
            let cut = len.min(23); // mid-record: forces tail truncation
            std::fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .and_then(|f| f.set_len(len - cut))
                .map_err(|e| format!("tear: {e}"))?;
            cut
        }
        None => 0,
    };
    let service2 = Arc::new(MapService::start(service_config(&dir)));
    let recovered_entries = service2.l2_entries().unwrap_or(0) as u64;
    let server2 = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service2))
        .map_err(|e| format!("re-bind: {e}"))?;
    let addr2 = server2.addr();

    let post = zipf_phase(
        addr2,
        &templates,
        cfg,
        cfg.zipf_requests,
        cfg.seed ^ 0x5a5a,
        None,
    )?;
    let warm_ratio = if prekill.hit_rate() > 0.0 {
        post.hit_rate() / prekill.hit_rate()
    } else {
        1.0
    };
    if prekill.hit_rate() > 0.0 && warm_ratio < 0.8 {
        return Err(format!(
            "warm restart regressed: post-restart hit rate {:.3} < 80% of pre-kill {:.3}",
            post.hit_rate(),
            prekill.hit_rate()
        ));
    }

    // ---- Phase 4: graceful drain under live load.
    let drain_requests = (cfg.zipf_requests / 2).max(cfg.clients.max(1)) as u64;
    let drain_now = || service2.shutdown();
    let drain = zipf_phase(
        addr2,
        &templates,
        cfg,
        drain_requests as usize,
        cfg.seed ^ 0xd3a1,
        Some((drain_requests / 4, &drain_now)),
    )?;
    let drain_seconds = service2.stats().drain_seconds;
    if drain_seconds <= 0.0 {
        return Err("graceful drain did not record its duration".into());
    }

    let metrics = scrape_metrics(addr2)?;
    validate_prometheus(&metrics)?;
    for required in [
        "cachemap_service_coalesced_total",
        "cachemap_service_l2_hits_total",
        "cachemap_service_l2_promotions_total",
        "cachemap_service_drain_seconds",
    ] {
        if !metrics.contains(required) {
            return Err(format!("metrics scrape is missing {required}"));
        }
    }

    drop(server2);
    drop(service2);

    // Anomaly forensics: the campaign must leave flight dumps behind —
    // slow coalesce waits during the phases, the torn-tail recovery at
    // restart, and the graceful drain.
    let flight = dir.join("flight");
    let slow_dumps = count_dumps(&flight, "slow_request");
    let recovery_dumps = count_dumps(&flight, "recovery");
    let drain_dumps = count_dumps(&flight, "drain");
    if slow_dumps == 0 {
        return Err("no slow_request flight dump despite the 1 ms slow threshold".into());
    }
    if torn_bytes > 0 && recovery_dumps == 0 {
        return Err("torn-tail restart left no recovery flight dump".into());
    }
    if drain_dumps == 0 {
        return Err("graceful drain left no drain flight dump".into());
    }
    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    Ok(StormReport {
        seed: cfg.seed,
        storm_connections: shooters,
        storm_computes: compute_ids.len() as u64,
        storm_coalesced: storm_stats.coalesced,
        storm_follower_spans: follower_ids.len() as u64,
        slow_dumps,
        recovery_dumps,
        drain_dumps,
        prekill_served: prekill.served,
        prekill_rejected: prekill.rejected(),
        prekill_hit_rate: prekill.hit_rate(),
        torn_bytes,
        recovered_entries,
        postrestart_hit_rate: post.hit_rate(),
        warm_ratio,
        drain_requests,
        drain_served: drain.served,
        drain_rejected_typed: drain.rejected(),
        drain_seconds,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        metrics_schema_ok: true,
    })
}

/// Renders the human-readable storm summary.
pub fn render(report: &StormReport) -> String {
    format!(
        "== serve-storm — seed {} ==\n\
         barrage       {:>8} connections, {} compute, {} coalesced\n\
         attribution   {:>8} follower trace ids (one per coalesce attach)\n\
         pre-kill      {:>8} served + {} typed rejections (hit rate {:.1}%)\n\
         torn tail     {:>8} bytes cut; {} L2 entries recovered\n\
         post-restart  hit rate {:.1}%  (warm ratio {:.2}, gate ≥ 0.80)\n\
         drain         {:>8} requests: {} served, {} typed, 0 untyped drops\n\
         drain time    {:>8.3} s\n\
         flight dumps  {:>8} slow_request, {} recovery, {} drain\n\
         wall clock    {:>8.1} ms\n\
         metrics       Prometheus schema OK",
        report.seed,
        report.storm_connections,
        report.storm_computes,
        report.storm_coalesced,
        report.storm_follower_spans,
        report.prekill_served,
        report.prekill_rejected,
        report.prekill_hit_rate * 100.0,
        report.torn_bytes,
        report.recovered_entries,
        report.postrestart_hit_rate * 100.0,
        report.warm_ratio,
        report.drain_requests,
        report.drain_served,
        report.drain_rejected_typed,
        report.drain_seconds,
        report.slow_dumps,
        report.recovery_dumps,
        report.drain_dumps,
        report.elapsed_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_storm_meets_all_invariants() {
        let report = run(&StormConfig::smoke(7)).unwrap();
        assert_eq!(report.storm_computes, 1);
        assert_eq!(report.storm_follower_spans, report.storm_coalesced);
        assert!(report.warm_ratio >= 0.8);
        assert!(report.drain_seconds > 0.0);
        assert!(report.slow_dumps >= 1);
        assert!(report.drain_dumps >= 1);
        assert!(report.torn_bytes == 0 || report.recovery_dumps >= 1);
        assert!(report.metrics_schema_ok);
    }
}
