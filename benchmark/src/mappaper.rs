//! The `map-paper` workload: one caller maps the eight Table-2 apps at
//! paper scale as `original` and `inter-processor+sched` and simulates
//! both, on the paper platform.

use cachemap_core::{baseline, cluster, codegen, schedule, tags, Mapper, MapperConfig, Version};
use cachemap_polyhedral::{DataSpace, Program};
use cachemap_storage::{
    ClientOp, HierarchyTree, MappedProgram, PlatformConfig, SimReport, Simulator,
};
use cachemap_util::Json;
use cachemap_workloads::{suite, Scale};
use std::collections::BTreeMap;
use std::time::Instant;

/// One app, ready to map.
pub struct App {
    /// Table-2 name.
    pub name: &'static str,
    /// Its loop nests.
    pub program: Program,
    /// Its data space at the platform's chunk size.
    pub data: DataSpace,
}

/// The workload's inputs: the paper suite on the paper platform.
pub struct Inputs {
    /// The platform.
    pub platform: PlatformConfig,
    /// Its hierarchy tree.
    pub tree: HierarchyTree,
    /// A simulator for it.
    pub sim: Simulator,
    /// The eight apps.
    pub apps: Vec<App>,
}

/// Builds the inputs (the workload's set-up).
pub fn setup() -> Inputs {
    let platform = PlatformConfig::paper_default();
    let tree = HierarchyTree::from_config(&platform).expect("the paper platform is valid");
    let sim = Simulator::new(platform.clone()).expect("the paper platform is valid");
    let apps = suite(Scale::Paper)
        .into_iter()
        .map(|a| App {
            name: a.name,
            data: DataSpace::new(&a.program.arrays, platform.chunk_bytes),
            program: a.program,
        })
        .collect();
    Inputs {
        platform,
        tree,
        sim,
        apps,
    }
}

/// The deterministic simulated figures of one run of one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDigest {
    /// Makespan, ns.
    pub exec_ns: u64,
    /// Application I/O latency, ns.
    pub io_ns: u64,
    /// Misses at L1, L2, L3.
    pub misses: [u64; 3],
    /// Disk reads.
    pub disk_reads: u64,
}

impl SimDigest {
    fn of(r: &SimReport) -> SimDigest {
        SimDigest {
            exec_ns: r.exec_time_ns,
            io_ns: r.io_latency_ns,
            misses: [r.l1.misses, r.l2.misses, r.l3.misses],
            disk_reads: r.disk_reads,
        }
    }

    /// JSON form, as stored in the golden file.
    pub fn to_json(self) -> Json {
        Json::object(vec![
            ("exec_ns", Json::UInt(self.exec_ns)),
            ("io_ns", Json::UInt(self.io_ns)),
            ("l1_misses", Json::UInt(self.misses[0])),
            ("l2_misses", Json::UInt(self.misses[1])),
            ("l3_misses", Json::UInt(self.misses[2])),
            ("disk_reads", Json::UInt(self.disk_reads)),
        ])
    }
}

/// One app's untraced result.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// App name.
    pub name: &'static str,
    /// Host seconds for both maps and both simulations.
    pub secs: f64,
    /// Simulated figures (original, inter+sched).
    pub sims: [SimDigest; 2],
}

/// Maps and simulates one app through the public facade. Returns the
/// run and the two mapped programs.
pub fn run_app(inp: &Inputs, app: &App) -> (AppRun, [MappedProgram; 2]) {
    let mapper = Mapper::new(MapperConfig::default());
    let map = |v| mapper.map(&app.program, &app.data, &inp.platform, &inp.tree, v);
    let t0 = Instant::now();
    let original = map(Version::Original);
    let inter = map(Version::InterProcessorScheduled);
    let ro = inp.sim.run(&original).expect("mapped programs simulate");
    let ri = inp.sim.run(&inter).expect("mapped programs simulate");
    let run = AppRun {
        name: app.name,
        secs: t0.elapsed().as_secs_f64(),
        sims: [SimDigest::of(&ro), SimDigest::of(&ri)],
    };
    (run, [original, inter])
}

/// The sorted `(chunk, write)` multiset of every access a program makes.
pub fn access_multiset(mp: &MappedProgram) -> Vec<(u64, bool)> {
    let mut v: Vec<(u64, bool)> = mp
        .per_client
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            ClientOp::Access { chunk, write } => Some((chunk as u64, write)),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v
}

/// Per-layer accounting of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Seconds per layer name (`core.tags`, `core.cluster`, ...).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Cluster seconds per app.
    pub cluster_by_app: BTreeMap<&'static str, f64>,
    /// Host seconds of the whole traced sequence.
    pub wall_s: f64,
    /// Iteration chunks tagged.
    pub chunks: u64,
    /// Chunk pairs a dense similarity scan scores.
    pub pairs: u64,
    /// Of those, pairs sharing at least one data chunk.
    pub nonzero_pairs: u64,
    /// Ops in the lowered inter+sched programs.
    pub ops: u64,
    /// Accesses simulated (both versions).
    pub accesses: u64,
    /// Misses at L1, L2, L3 of the inter+sched runs.
    pub misses: [u64; 3],
    /// Lookups at L1, L2, L3 of the inter+sched runs.
    pub lookups: [u64; 3],
    /// Disk reads of the inter+sched runs.
    pub disk_reads: u64,
    /// Timed spans `(layer, app, start ns, duration ns)`, in order.
    pub spans: Vec<(&'static str, &'static str, u64, u64)>,
}

/// Pairs `(i < j)` of chunks whose tags share a data chunk, counted
/// through an inverted index from data chunk to the chunks touching it.
pub fn nonzero_pairs(chunks: &[tags::IterationChunk]) -> u64 {
    let mut by_data: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, c) in chunks.iter().enumerate() {
        for d in c.tag.iter_ones() {
            by_data.entry(d).or_default().push(i);
        }
    }
    let mut seen = vec![usize::MAX; chunks.len()];
    let mut count = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        for d in c.tag.iter_ones() {
            for &j in &by_data[&d] {
                if j > i && seen[j] != i {
                    seen[j] = i;
                    count += 1;
                }
            }
        }
    }
    count
}

/// Runs one app layer by layer, calling each layer's public function
/// the way `Mapper::map` does, and times every call. Returns the
/// original and the assembled inter+sched programs.
pub fn run_app_traced(
    inp: &Inputs,
    app: &App,
    lt: &mut LayerTimes,
    epoch: Instant,
) -> [MappedProgram; 2] {
    let cfg = MapperConfig::default();
    let span = |lt: &mut LayerTimes, layer: &'static str, t0: Instant| {
        let dur = t0.elapsed();
        *lt.self_s.entry(layer).or_insert(0.0) += dur.as_secs_f64();
        lt.spans.push((
            layer,
            app.name,
            (t0 - epoch).as_nanos() as u64,
            dur.as_nanos() as u64,
        ));
        dur.as_secs_f64()
    };
    let start = Instant::now();
    let mut inter = MappedProgram::new(inp.tree.num_clients());
    let mut tagged = Vec::new();
    for ni in 0..app.program.nests.len() {
        let t0 = Instant::now();
        let (chunks, _) = tags::tag_nests(&app.program, &[ni], &app.data);
        span(lt, "core.tags", t0);
        let t0 = Instant::now();
        let dist = cluster::distribute(&chunks, &inp.tree, &cfg.cluster);
        let c = span(lt, "core.cluster", t0);
        *lt.cluster_by_app.entry(app.name).or_insert(0.0) += c;
        let t0 = Instant::now();
        let dist = schedule::schedule(&dist, &chunks, &inp.tree, &cfg.schedule);
        span(lt, "core.schedule", t0);
        let t0 = Instant::now();
        let part = codegen::lower_distribution(&dist, &chunks, &app.program, &app.data);
        codegen::append_program(&mut inter, part);
        span(lt, "core.codegen", t0);
        tagged.push(chunks);
    }
    let t0 = Instant::now();
    let original = baseline::original(&app.program, &app.data, inp.platform.num_clients);
    span(lt, "core.baseline", t0);
    let t0 = Instant::now();
    // The original's report is not needed here: the untraced facade
    // pass checks both versions' figures.
    inp.sim.run(&original).expect("mapped programs simulate");
    let ri = inp.sim.run(&inter).expect("mapped programs simulate");
    span(lt, "storage.sim", t0);
    lt.wall_s += start.elapsed().as_secs_f64();

    // Counts, outside the timed sequence.
    for chunks in &tagged {
        let n = chunks.len() as u64;
        lt.chunks += n;
        lt.pairs += n * n.saturating_sub(1) / 2;
        lt.nonzero_pairs += nonzero_pairs(chunks);
    }
    lt.ops += inter.per_client.iter().map(|c| c.len() as u64).sum::<u64>();
    lt.accesses += original.total_accesses() + inter.total_accesses();
    for (k, hm) in [ri.l1, ri.l2, ri.l3].iter().enumerate() {
        lt.misses[k] += hm.misses;
        lt.lookups[k] += hm.hits + hm.misses;
    }
    lt.disk_reads += ri.disk_reads;
    [original, inter]
}
