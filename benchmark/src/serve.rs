//! The serving workloads: an in-process `AsyncServer` + `MapService`
//! driven over loopback TCP by the open-loop client.

use crate::client::{self, Done, Outcome, Send};
use crate::sched::{self, ChurnMix, ChurnStream, Rng, Zipf};
use crate::stats::{self, Latency};
use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_service::aserver::{AsyncServer, AsyncServerConfig};
use cachemap_service::proto::{self, Request};
use cachemap_service::{dispatch, MapRequest, MapService, ServiceConfig};
use cachemap_storage::{HierarchyTree, MappedProgram, PlatformConfig, Simulator};
use cachemap_util::{Json, ToJson};
use cachemap_workloads::{suite, Scale};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What distinguishes the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// p99 limit a ladder step must meet, ms.
    pub slo_ms: f64,
    /// The churn mix, or `None` for Zipf hits over the templates.
    pub churn: Option<ChurnMix>,
    /// Keys inserted before measuring (for hits, every template).
    pub population: u64,
    /// Prewarm requests in flight at once.
    pub prewarm_window: usize,
}

/// `serve-hits`: every request an L1 hit.
pub const HITS: ServeSpec = ServeSpec {
    name: "serve-hits",
    // At 500 req/s p99 swung between 14 and 25 ms from run to run with
    // the host's load; at 300 req/s it stayed between 20 and 23 ms.
    rate: 300.0,
    slo_ms: 50.0,
    churn: None,
    population: 32,
    // One compute at a time: four `e_elem` maps at once would make the
    // set-up's peak memory depend on how they happen to overlap.
    prewarm_window: 1,
};

/// `serve-churn`: fresh computes, recent L1 repeats and old L2 repeats.
pub const CHURN: ServeSpec = ServeSpec {
    name: "serve-churn",
    rate: 300.0,
    slo_ms: 50.0,
    churn: Some(ChurnMix::DEFAULT),
    population: 1536,
    prewarm_window: 8,
};

/// Generator lag (p99, ms) beyond which a phase is invalid: the client,
/// not the server, would be setting the pace.
pub const LAG_BOUND_MS: f64 = 50.0;

/// Rate ladder: the fixed rate times `LADDER_RATIO^i` for `i` in
/// `LADDER_LOW..=LADDER_HIGH`.
pub const LADDER_RATIO: f64 = 1.05;
const LADDER_LOW: i32 = -20;
const LADDER_HIGH: i32 = 80;
/// Length of one ladder step.
pub const LADDER_STEP_SECS: f64 = 2.0;
/// Ladder indices the search climbs (or descends) per probe before it
/// bisects.
const GALLOP: i32 = 12;

/// Client connections (and client threads): at most the core count,
/// and at most two.
pub fn client_conns() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The 32 `serve-hits` templates: the test-scale suite on the tiny
/// platform, both inter-processor versions, with and without one
/// refinement pass.
pub fn hits_templates() -> Vec<MapRequest> {
    templates(PlatformConfig::tiny(), |_| true)
}

/// The `serve-churn` templates: the test-scale suite on the paper
/// platform, without `astro` and `e_elem`, whose 8-12 ms computes would
/// dominate the set-up and oracle time of a 1536-key population.
pub fn churn_templates() -> Vec<MapRequest> {
    templates(PlatformConfig::paper_default(), |name| {
        name != "astro" && name != "e_elem"
    })
}

fn templates(platform: PlatformConfig, keep: impl Fn(&str) -> bool) -> Vec<MapRequest> {
    let mappers = [
        MapperConfig::default(),
        MapperConfig {
            refine_passes: 1,
            ..MapperConfig::default()
        },
    ];
    let mut out = Vec::new();
    for app in suite(Scale::Test).into_iter().filter(|a| keep(a.name)) {
        for version in [Version::InterProcessor, Version::InterProcessorScheduled] {
            for mapper in mappers {
                out.push(MapRequest {
                    id: out.len() as u64,
                    program: app.program.clone(),
                    platform: platform.clone(),
                    mapper,
                    version,
                    deadline_ms: None,
                    tenant: None,
                });
            }
        }
    }
    out
}

/// The keys a workload requests: their requests, frames and the seeded
/// order in which they are asked for.
pub struct KeySpace {
    templates: Vec<MapRequest>,
    seed: u64,
    frames: Vec<Vec<u8>>,
    zipf: Zipf,
    churn: Option<ChurnStream>,
    population: u64,
}

impl KeySpace {
    /// The key space of `spec` for `seed`.
    pub fn new(spec: &ServeSpec, seed: u64) -> KeySpace {
        let templates = if spec.churn.is_some() {
            churn_templates()
        } else {
            hits_templates()
        };
        let zipf = Zipf::new(templates.len(), 1.2);
        let population = match spec.churn {
            Some(_) => spec.population,
            None => templates.len() as u64,
        };
        let mut ks = KeySpace {
            zipf,
            population,
            churn: spec
                .churn
                .map(|mix| ChurnStream::new(seed, mix, spec.population)),
            templates,
            seed,
            frames: Vec::new(),
        };
        ks.ensure(population as usize);
        ks
    }

    /// Keys inserted before measuring: `0..population()`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Whether keys are churned (each fresh key a new fingerprint).
    pub fn is_churn(&self) -> bool {
        self.churn.is_some()
    }

    /// Starts the churn mix again from the freshly prewarmed population,
    /// for a new server; `round` varies the draw.
    pub fn restart(&mut self, round: u64) {
        if let Some(s) = &mut self.churn {
            *s = ChurnStream::new(
                self.seed ^ round.wrapping_mul(0x9E37_79B9),
                s.mix(),
                self.population,
            );
        }
    }

    /// Whether `key` requests template `key` unchanged.
    pub fn is_template(&self, key: usize) -> bool {
        self.churn.is_none() && key < self.templates.len()
    }

    /// The request for `key`.
    pub fn request(&self, key: usize) -> MapRequest {
        if self.churn.is_none() {
            return self.templates[key].clone();
        }
        let t = sched::churn_template(self.seed, key as u64, self.templates.len());
        let mut req = self.templates[t].clone();
        req.id = key as u64;
        // One more nanosecond of compute per iteration of the first nest
        // per key: a distinct fingerprint and distinct mapping bytes, at
        // the template's mapping cost.
        req.program.nests[0].compute_us += (key as f64 + 1.0) * 1e-3;
        req
    }

    fn ensure(&mut self, upto: usize) {
        while self.frames.len() < upto {
            let mut f = self
                .request(self.frames.len())
                .to_json()
                .to_string_compact()
                .into_bytes();
            f.push(b'\n');
            self.frames.push(f);
        }
    }

    /// Frames by key.
    pub fn frames(&self) -> &[Vec<u8>] {
        &self.frames
    }

    /// The template requests (unperturbed).
    pub fn templates(&self) -> &[MapRequest] {
        &self.templates
    }

    /// A Poisson schedule at `rate` for `secs`, with the next keys of
    /// the mix; `stream` decorrelates phases.
    pub fn plan(&mut self, rate: f64, secs: f64, stream: u64) -> Vec<Send> {
        let mut rng = Rng::new(self.seed, stream);
        let dues = sched::poisson_dues(&mut rng, rate, secs);
        let keys: Vec<usize> = match &mut self.churn {
            None => dues.iter().map(|_| self.zipf.sample(&mut rng)).collect(),
            Some(s) => dues.iter().map(|_| s.next_key().0 as usize).collect(),
        };
        if let Some(max) = keys.iter().max() {
            self.ensure(max + 1);
        }
        dues.into_iter()
            .zip(keys)
            .map(|(due_ns, key)| Send { due_ns, key })
            .collect()
    }
}

/// A running server with the client's connections.
pub struct Server {
    /// The fronted service.
    pub service: Arc<MapService>,
    /// The event-loop front end.
    pub server: AsyncServer,
    conns: Vec<TcpStream>,
    l2_dir: Option<PathBuf>,
    tracing: bool,
}

/// A service configuration as the workloads run it: defaults, with the
/// flight recorder writing under the benchmark's work directory.
pub fn service_config(tracing: bool, l2_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        tracing,
        l2_dir,
        flight_dir: crate::work_dir().join("flight"),
        ..ServiceConfig::default()
    }
}

impl Server {
    /// Starts service and front end (with an L2 store for churn) and
    /// connects the client.
    pub fn start(churn: bool, tracing: bool) -> Result<Server, String> {
        let l2_dir = churn.then(crate::fresh_work_dir);
        let service = Arc::new(MapService::start(service_config(tracing, l2_dir.clone())));
        let server = AsyncServer::spawn_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            AsyncServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let mut srv = Server {
            service,
            server,
            conns: Vec::new(),
            l2_dir,
            tracing,
        };
        srv.reconnect()?;
        Ok(srv)
    }

    /// Replaces the client's connections with new ones.
    pub fn reconnect(&mut self) -> Result<(), String> {
        self.conns.clear();
        for _ in 0..client_conns() {
            let c = TcpStream::connect(self.server.addr()).map_err(|e| format!("connect: {e}"))?;
            c.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            self.conns.push(c);
        }
        Ok(())
    }

    /// Closes the connections, stops front end and service, and removes
    /// the L2 directory.
    pub fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
        self.server.join();
        self.service.shutdown();
        drop(self.server);
        drop(self.service);
        if let Some(dir) = self.l2_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Inserts keys `0..n` in key order on the first connection, with
    /// up to `window` requests in flight, and returns
    /// `(key, outcome, mapping hash)` per reply.
    pub fn prewarm(
        &mut self,
        frames: &[Vec<u8>],
        n: usize,
        window: usize,
    ) -> Result<Vec<(usize, Outcome, u64)>, String> {
        let conn = self.conns.first_mut().ok_or("no client connection")?;
        let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut out = Vec::with_capacity(n);
        let mut sent = 0;
        let mut line = Vec::new();
        while out.len() < n {
            while sent < n && sent - out.len() < window.max(1) {
                conn.write_all(&frames[sent])
                    .map_err(|e| format!("prewarm send: {e}"))?;
                sent += 1;
            }
            line.clear();
            let got = reader
                .read_until(b'\n', &mut line)
                .map_err(|e| format!("prewarm receive: {e}"))?;
            if got == 0 || line.last() != Some(&b'\n') {
                return Err("server closed the connection during prewarm".into());
            }
            let reply = &line[..line.len() - 1];
            let hash = client::mapping_bytes(reply, self.tracing).map_or(0, client::hash_bytes);
            out.push((out.len(), client::classify(reply), hash));
        }
        Ok(out)
    }

    /// Runs one open-loop phase over all connections (sends dealt
    /// round-robin) and returns the replies in due order.
    pub fn phase(
        &mut self,
        frames: &[Vec<u8>],
        plan: &[Send],
        keep_trace: bool,
    ) -> Result<Vec<Done>, String> {
        let conns = self.conns.len();
        let t0 = Instant::now() + Duration::from_millis(2);
        let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let sends: Vec<Send> = plan.iter().skip(c).step_by(conns).copied().collect();
                    s.spawn(move || {
                        client::drive(
                            conn,
                            frames,
                            &sends,
                            t0,
                            keep_trace,
                            Duration::from_secs(20),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut out = Vec::with_capacity(plan.len());
        for r in results {
            out.extend(r?);
        }
        out.sort_by_key(|d| d.send.due_ns);
        // Back to blocking mode for the next prewarm.
        for c in &self.conns {
            c.set_nonblocking(false)
                .map_err(|e| format!("blocking: {e}"))?;
        }
        Ok(out)
    }

    /// Loop counters `(frames, batches, backpressure)`.
    pub fn loop_counters(&self) -> (u64, u64, u64) {
        let s = self.server.loop_stats();
        (
            s.frames_total.load(Ordering::Relaxed),
            s.batches_total.load(Ordering::Relaxed),
            s.backpressure_total.load(Ordering::Relaxed),
        )
    }
}

/// The cold oracle: `Mapper::map` on the request.
fn cold_mapping(req: &MapRequest) -> MappedProgram {
    let tree = HierarchyTree::from_config(&req.platform).expect("template platforms are valid");
    let data = DataSpace::new(&req.program.arrays, req.platform.chunk_bytes);
    Mapper::new(req.mapper).map(&req.program, &data, &req.platform, &tree, req.version)
}

/// Checks served mapping hashes against the cold oracle. `served` holds
/// `(key, hash)` per ok reply. Returns the number of mismatches and the
/// cold mappings of the served keys that are unperturbed templates.
pub fn verify(ks: &KeySpace, served: &[(usize, u64)]) -> (u64, HashMap<usize, MappedProgram>) {
    let mut keys: Vec<usize> = served.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    let workers = client_conns();
    let per = keys.len().div_ceil(workers).max(1);
    let cold: Vec<(usize, u64, Option<MappedProgram>)> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(per)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| {
                            let mapped = cold_mapping(&ks.request(k));
                            let hash =
                                client::hash_bytes(mapped.to_json().to_string_compact().as_bytes());
                            (k, hash, ks.is_template(k).then_some(mapped))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut hashes = HashMap::new();
    let mut templates = HashMap::new();
    for (k, hash, mapped) in cold {
        hashes.insert(k, hash);
        if let Some(m) = mapped {
            templates.insert(k, m);
        }
    }
    let mismatches = served
        .iter()
        .filter(|&&(k, h)| hashes.get(&k) != Some(&h))
        .count() as u64;
    (mismatches, templates)
}

/// Simulated quality of the template mappings: summed makespan and I/O
/// latency (ms) and the geometric-mean speed-up over `original`.
/// `known` holds cold mappings by template index already computed.
pub fn template_quality(
    templates: &[MapRequest],
    known: &HashMap<usize, MappedProgram>,
) -> (f64, f64, f64) {
    let mut exec = 0.0;
    let mut io = 0.0;
    let mut ratios = Vec::new();
    for (t, req) in templates.iter().enumerate() {
        let sim = Simulator::new(req.platform.clone()).expect("template platforms are valid");
        let mapped = match known.get(&t) {
            Some(m) => sim.run(m),
            None => sim.run(&cold_mapping(req)),
        }
        .expect("mapped programs simulate");
        let original = sim
            .run(&cold_mapping(&MapRequest {
                version: Version::Original,
                ..req.clone()
            }))
            .expect("original programs simulate");
        exec += mapped.exec_time_ms();
        io += mapped.io_latency_ms();
        ratios.push(original.exec_time_ms() / mapped.exec_time_ms());
    }
    (exec, io, stats::geomean(&ratios))
}

/// Requests per sub-window: enough that each sub-window's p99 has ten
/// samples beyond it.
pub const SUB_WINDOW: usize = 1000;

/// Verdict on one phase at one rate.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// All samples pooled, ms.
    pub pooled: Latency,
    /// `(p50, p99)` of each sub-window, ms.
    pub subs: Vec<(f64, f64)>,
    /// Median over sub-windows of the sub-window p50, ms.
    pub p50_ms: f64,
    /// Median over sub-windows of the sub-window p99, ms.
    pub p99_ms: f64,
    /// Generator lag p99, ms.
    pub lag_p99_ms: f64,
    /// Host seconds from the phase start to the last reply.
    pub wall_s: f64,
    /// Met the latency limit, with no failures, no growing backlog and
    /// a generator that kept up.
    pub meets_slo: bool,
    /// Why not, when it did not.
    pub why: String,
}

/// Judges a phase (replies in due order) against the latency limit.
///
/// The phase is cut into sub-windows of [`SUB_WINDOW`] consecutive
/// requests; `p50_ms` and `p99_ms` are medians over them, so one
/// scheduler stall of the host does not decide the phase. A failed or
/// refused request misses the limit. A growing backlog shows as the
/// median wait of the last fifth of the phase exceeding that of the
/// first fifth by more than half the limit.
pub fn judge(rate: f64, dones: &[Done], slo_ms: f64) -> Verdict {
    let lat: Vec<f64> = dones.iter().map(|d| d.latency_ns as f64 / 1e6).collect();
    let windows = (lat.len() / SUB_WINDOW).max(1);
    let per = lat.len().div_ceil(windows).max(1);
    let subs: Vec<(f64, f64)> = lat
        .chunks(per)
        .map(|c| {
            let l = Latency::of(c);
            (l.p50, l.p99)
        })
        .collect();
    let p50_ms = stats::median(&subs.iter().map(|s| s.0).collect::<Vec<_>>());
    let p99_ms = stats::median(&subs.iter().map(|s| s.1).collect::<Vec<_>>());
    let mut lags: Vec<f64> = dones.iter().map(|d| d.lag_ns as f64 / 1e6).collect();
    lags.sort_by(f64::total_cmp);
    let lag_p99_ms = stats::percentile(&lags, 99.0);
    let failed = dones
        .iter()
        .filter(|d| !matches!(d.outcome, Outcome::Ok { .. }))
        .count();
    let fifth = (lat.len() / 5).max(1).min(lat.len());
    let head = stats::median(&lat[..fifth]);
    let tail = stats::median(&lat[lat.len() - fifth..]);
    let why = if failed > 0 {
        format!("{failed} failed or refused")
    } else if p99_ms > slo_ms {
        format!("p99 {p99_ms:.1} ms over the {slo_ms} ms limit")
    } else if lag_p99_ms > LAG_BOUND_MS {
        format!("generator lag p99 {lag_p99_ms:.2} ms over {LAG_BOUND_MS} ms")
    } else if tail - head > slo_ms / 2.0 {
        format!("backlog grew: median {head:.2} ms at the start, {tail:.2} ms at the end")
    } else {
        String::new()
    };
    Verdict {
        rate,
        sent: dones.len(),
        pooled: Latency::of(&lat),
        subs,
        p50_ms,
        p99_ms,
        lag_p99_ms,
        wall_s: dones.iter().map(|d| d.recv_ns).max().unwrap_or(0) as f64 / 1e9,
        meets_slo: why.is_empty(),
        why,
    }
}

/// Runs one phase of `secs` at `rate` and judges it.
pub fn run_phase(
    srv: &mut Server,
    ks: &mut KeySpace,
    spec: &ServeSpec,
    rate: f64,
    secs: f64,
    stream: u64,
    keep_trace: bool,
) -> Result<(Verdict, Vec<Done>), String> {
    let plan = ks.plan(rate, secs, stream);
    let dones = srv.phase(ks.frames(), &plan, keep_trace)?;
    Ok((judge(rate, &dones, spec.slo_ms), dones))
}

/// Ladder rate at index `i`.
pub fn ladder_rate(base: f64, i: i32) -> f64 {
    base * LADDER_RATIO.powi(i)
}

/// Searches the rate ladder for its highest step that meets the
/// latency limit, starting from index 0 (the fixed rate, which
/// `start_meets` tells). When index 0 fails, it descends by [`GALLOP`]
/// indices until a probe meets the limit, then bisects. When index 0
/// meets it, it climbs the same way only if `climb` is set, and
/// otherwise answers the fixed rate. Returns that step's rate (0 when
/// no step meets the limit), every probe, and the probes' replies.
pub fn search_ladder(
    srv: &mut Server,
    ks: &mut KeySpace,
    spec: &ServeSpec,
    start_meets: bool,
    climb: bool,
) -> Result<(f64, Vec<Verdict>, Vec<Done>), String> {
    let mut probes = Vec::new();
    let mut probe_dones = Vec::new();
    let mut probe = |i: i32| -> Result<bool, String> {
        let rate = ladder_rate(spec.rate, i);
        let stream = 1000 + (i - LADDER_LOW) as u64;
        let (v, dones) = run_phase(srv, ks, spec, rate, LADDER_STEP_SECS, stream, false)?;
        let ok = v.meets_slo;
        probes.push(v);
        probe_dones.extend(dones);
        Ok(ok)
    };

    if start_meets && !climb {
        return Ok((spec.rate, probes, probe_dones));
    }
    // lo passes, hi fails (None: not found yet).
    let (mut lo, mut hi): (Option<i32>, Option<i32>) = if start_meets {
        (Some(0), None)
    } else {
        (None, Some(0))
    };
    // Climb in steps of ×1.8 rather than doubling: a probe far past
    // the knee builds a backlog of seconds that the next probe waits on.
    while hi.is_none() {
        let i = (lo.expect("lo is set while hi is unset") + GALLOP).min(LADDER_HIGH);
        if probe(i)? {
            lo = Some(i);
            if i == LADDER_HIGH {
                break;
            }
        } else {
            hi = Some(i);
        }
    }
    while lo.is_none() {
        let i = (hi.expect("hi is set while lo is unset") - GALLOP).max(LADDER_LOW);
        if probe(i)? {
            lo = Some(i);
        } else {
            hi = Some(i);
            if i == LADDER_LOW {
                break;
            }
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        while h - l > 1 {
            let mid = l + (h - l) / 2;
            if probe(mid)? {
                l = mid;
            } else {
                h = mid;
            }
        }
        lo = Some(l);
    }
    let max_rps = lo.map_or(0.0, |l| ladder_rate(spec.rate, l));
    Ok((max_rps, probes, probe_dones))
}

/// Median duration (µs) per stage name over the traced replies, plus
/// the summed mapper-profile wall time (s) per pipeline span name.
pub fn trace_stages(dones: &[Done]) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut profile: BTreeMap<String, f64> = BTreeMap::new();
    for d in dones {
        let Some(t) = d.trace.as_deref() else {
            continue;
        };
        let Ok(json) = cachemap_util::json::parse(t) else {
            continue;
        };
        for stage in json.get("stages").and_then(Json::as_array).unwrap_or(&[]) {
            let name = stage.get("name").and_then(Json::as_str).unwrap_or("?");
            let dur = stage.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
            per.entry(name.to_string()).or_default().push(dur as f64);
            if let Some(spans) = stage
                .get("profile")
                .and_then(|p| p.get("spans"))
                .and_then(Json::as_array)
            {
                for s in spans {
                    sum_profile(s, &mut profile);
                }
            }
        }
    }
    let p50 = per
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect();
    (p50, profile)
}

fn sum_profile(span: &Json, out: &mut BTreeMap<String, f64>) {
    let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
    let wall = span.get("wall_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e9;
    *out.entry(name.to_string()).or_insert(0.0) += wall;
    for c in span.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        sum_profile(c, out);
    }
}

/// Per-call medians (µs) of an in-process replay of `plan` on a fresh
/// service prewarmed like the server: `split` times parse, submit and
/// serialization separately; otherwise the whole `dispatch_line`.
pub fn replay(
    ks: &KeySpace,
    plan: &[Send],
    split: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let l2_dir = ks.is_churn().then(crate::fresh_work_dir);
    let service = MapService::start(service_config(false, l2_dir.clone()));
    let line = |key: usize| -> Result<&str, String> {
        let f = &ks.frames()[key];
        std::str::from_utf8(&f[..f.len() - 1]).map_err(|e| format!("frame {key}: {e}"))
    };
    for key in 0..ks.population() as usize {
        service
            .submit(ks.request(key))
            .map_err(|e| format!("replay prewarm {key}: {e}"))?;
    }
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, t0: Instant| {
        times
            .entry(name)
            .or_default()
            .push(t0.elapsed().as_nanos() as f64 / 1e3);
    };
    for s in plan {
        let line = line(s.key)?;
        if split {
            let t0 = Instant::now();
            let parsed = proto::parse_request(line);
            push("parse", t0);
            let Ok(Request::Map(req)) = parsed else {
                return Err(format!(
                    "replay: key {} does not parse as a map request",
                    s.key
                ));
            };
            let t0 = Instant::now();
            let resp = service.submit(*req);
            push("submit", t0);
            let resp = resp.map_err(|e| format!("replay submit {}: {e}", s.key))?;
            let t0 = Instant::now();
            let bytes = std::hint::black_box(resp.to_json().to_string_compact());
            push("serialize", t0);
            drop(bytes);
        } else {
            let t0 = Instant::now();
            let out = std::hint::black_box(dispatch::dispatch_line(&service, line));
            push("dispatch", t0);
            drop(out);
        }
    }
    service.shutdown();
    drop(service);
    if let Some(dir) = l2_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(times
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect())
}
