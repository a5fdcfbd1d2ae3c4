//! Experiment harness for the HPDC'10 reproduction.
//!
//! This crate contains the shared machinery behind the `repro` binary
//! (one subcommand per table/figure of the paper's Section 5) and the
//! criterion benchmarks. The central entry point is [`run_cell`]: map one
//! application with one version on one platform, simulate it, and return
//! the [`SimReport`]. Everything above that is sweep + formatting logic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::{HierarchyTree, PlatformConfig, SimReport, Simulator};
use cachemap_util::{Json, ToJson};
use cachemap_workloads::{Application, Scale};
use std::path::Path;

pub mod advisor;
pub mod chaos;
pub mod experiments;
pub mod obs;
pub mod report;
pub mod router_storm;
pub mod serve;
pub mod storm;
pub mod timing;
pub mod tracefmt;

pub use obs::{render_artifact, run_cell_observed, write_obs_artifact};

/// Runs one (application, version, platform) cell end to end.
pub fn run_cell(
    app: &Application,
    platform: &PlatformConfig,
    mapper_cfg: &MapperConfig,
    version: Version,
) -> SimReport {
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let mapper = Mapper::new(*mapper_cfg);
    let mapped = mapper.map(&app.program, &data, platform, &tree, version);
    Simulator::new(platform.clone())
        .expect("valid platform config")
        .run(&mapped)
        .expect("well-formed mapped program")
}

/// The reports of all requested versions for one application.
#[derive(Debug, Clone)]
pub struct AppResults {
    /// Application name.
    pub app: String,
    /// `(version label, report)` in request order.
    pub versions: Vec<(String, SimReport)>,
}

impl AppResults {
    /// The report for a version label.
    pub fn get(&self, label: &str) -> &SimReport {
        &self
            .versions
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no version {label}"))
            .1
    }
}

/// Runs the given versions for every app of the suite on one platform,
/// fanning the independent (app, version) cells out over worker threads.
pub fn run_suite(
    scale: Scale,
    platform: &PlatformConfig,
    mapper_cfg: &MapperConfig,
    versions: &[Version],
) -> Vec<AppResults> {
    let apps = cachemap_workloads::suite(scale);
    let mut cells: Vec<(usize, Version)> = Vec::new();
    for ai in 0..apps.len() {
        for &v in versions {
            cells.push((ai, v));
        }
    }

    // One pool task per (app, version) cell; `CACHEMAP_THREADS`
    // overrides the machine's available parallelism. Results come back
    // in cell order, so the per-app tables below are deterministic.
    let results: Vec<(usize, Version, SimReport)> = cachemap_par::Pool::from_env()
        .map(&cells, |_, &(ai, v)| {
            (ai, v, run_cell(&apps[ai], platform, mapper_cfg, v))
        });

    let mut per_app: Vec<AppResults> = apps
        .iter()
        .map(|a| AppResults {
            app: a.name.to_string(),
            versions: Vec::new(),
        })
        .collect();
    // Preserve the requested version order per app.
    for &v in versions {
        for r in &results {
            if r.1 == v {
                per_app[r.0]
                    .versions
                    .push((v.label().to_string(), r.2.clone()));
            }
        }
    }
    per_app
}

/// Writes a serializable result as pretty JSON under `reports/`.
pub fn write_report<T: ToJson>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("reports");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().to_string_pretty())?;
    Ok(path)
}

/// A committed repo-root benchmark record a campaign owns: a whole
/// `BENCH_*.json` file, or one section of `BENCH_service.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchFile {
    /// `BENCH_policies.json`, from `repro advisor`.
    Policies,
    /// `BENCH_service.json` §router, from `repro router-storm`.
    ServiceRouter,
    /// `BENCH_service.json` §storm, from `repro serve-storm`.
    ServiceStorm,
}

/// The sections `BENCH_service.json` may hold.
const SERVICE_SECTIONS: [&str; 2] = ["router", "storm"];

impl BenchFile {
    fn stem(self) -> &'static str {
        match self {
            BenchFile::Policies => "BENCH_policies",
            BenchFile::ServiceRouter | BenchFile::ServiceStorm => "BENCH_service",
        }
    }

    fn section(self) -> Option<&'static str> {
        match self {
            BenchFile::ServiceRouter => Some(SERVICE_SECTIONS[0]),
            BenchFile::ServiceStorm => Some(SERVICE_SECTIONS[1]),
            BenchFile::Policies => None,
        }
    }

    /// The committed file plus, for a sectioned record, its section.
    fn describe(self) -> String {
        match self.section() {
            None => format!("{}.json", self.stem()),
            Some(sec) => format!("{}.json, section \"{sec}\"", self.stem()),
        }
    }
}

/// Records one campaign report under `root` (the working directory
/// for `repro`). The `reports/<stem>[-<section>]-<seed>.json` scratch
/// copy is always written. The committed repo-root file, or its
/// section, is written only at [`Scale::Paper`], so a `--test-scale`
/// smoke can never overwrite a deliberate paper-scale run. Prints one
/// note per file; a failed write is a warning, not an abort.
pub fn record<T: ToJson>(root: &Path, scale: Scale, target: BenchFile, seed: u64, report: &T) {
    let json = report.to_json();
    if scale == Scale::Paper {
        let path = root.join(format!("{}.json", target.stem()));
        let written = match target.section() {
            None => std::fs::write(&path, json.to_string_pretty()),
            Some(section) => merge_section(&path, section, json.clone()),
        };
        match written {
            Ok(()) => println!("   [raw numbers: {}]", target.describe()),
            Err(e) => eprintln!("   [warning: could not write {}: {e}]", target.describe()),
        }
    } else {
        println!("   [test scale: {} left as committed]", target.describe());
    }
    let scratch = match target.section() {
        None => format!("{}-{seed}.json", target.stem()),
        Some(section) => format!("{}-{section}-{seed}.json", target.stem()),
    };
    let dir = root.join("reports");
    let path = dir.join(scratch);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json.to_string_pretty()))
    {
        Ok(()) => println!("   [scratch copy: {}]", path.display()),
        Err(e) => eprintln!("   [warning: could not write scratch copy: {e}]"),
    }
}

/// Replaces one section of a sectioned record. A missing file, or one
/// holding any key outside [`SERVICE_SECTIONS`], starts a fresh
/// object; sections are kept in key order.
fn merge_section(path: &Path, section: &str, value: Json) -> std::io::Result<()> {
    let mut pairs: Vec<(String, Json)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|text| cachemap_util::json::parse(&text).ok())
    {
        Some(Json::Object(pairs))
            if pairs
                .iter()
                .all(|(k, _)| SERVICE_SECTIONS.contains(&k.as_str())) =>
        {
            pairs
        }
        _ => Vec::new(),
    };
    match pairs.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = value,
        None => pairs.push((section.to_string(), value)),
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Object(pairs).to_string_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_TARGETS: [BenchFile; 3] = [
        BenchFile::Policies,
        BenchFile::ServiceRouter,
        BenchFile::ServiceStorm,
    ];

    fn committed_files(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn test_scale_records_write_only_scratch_copies() {
        let root = std::env::temp_dir().join(format!("cachemap-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let report = Json::object(vec![("seed", 7u64.to_json())]);

        for target in ALL_TARGETS {
            record(&root, Scale::Test, target, 7, &report);
        }
        assert!(
            committed_files(&root).is_empty(),
            "test scale wrote {:?}",
            committed_files(&root)
        );
        for scratch in [
            "BENCH_policies-7.json",
            "BENCH_service-router-7.json",
            "BENCH_service-storm-7.json",
        ] {
            assert!(root.join("reports").join(scratch).is_file(), "{scratch}");
        }

        // Paper scale writes the committed files; the two service
        // campaigns share one file, a section each, and a stale
        // unknown section does not survive.
        std::fs::write(root.join("BENCH_service.json"), "{\"open\": {}}").unwrap();
        for target in ALL_TARGETS {
            record(&root, Scale::Paper, target, 42, &report);
        }
        assert_eq!(
            committed_files(&root),
            ["BENCH_policies.json", "BENCH_service.json"]
        );
        let service = std::fs::read_to_string(root.join("BENCH_service.json")).unwrap();
        match cachemap_util::json::parse(&service).unwrap() {
            Json::Object(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, SERVICE_SECTIONS);
            }
            other => panic!("not an object: {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn run_cell_produces_consistent_reports() {
        let app = cachemap_workloads::by_name("contour", Scale::Test).unwrap();
        let platform = PlatformConfig::paper_default().with_cache_chunks(8, 8, 8);
        let cfg = MapperConfig::default();
        let a = run_cell(&app, &platform, &cfg, Version::Original);
        let b = run_cell(&app, &platform, &cfg, Version::Original);
        assert_eq!(a.io_latency_ns, b.io_latency_ns, "must be deterministic");
        assert!(a.l1.accesses() > 0);
    }

    #[test]
    fn run_suite_returns_all_apps_and_versions() {
        let platform = PlatformConfig::paper_default().with_cache_chunks(8, 8, 8);
        let cfg = MapperConfig::default();
        let res = run_suite(
            Scale::Test,
            &platform,
            &cfg,
            &[Version::Original, Version::InterProcessor],
        );
        assert_eq!(res.len(), 8);
        for r in &res {
            assert_eq!(r.versions.len(), 2);
            assert_eq!(r.versions[0].0, "original");
            let orig = r.get("original");
            let inter = r.get("inter-processor");
            assert_eq!(
                orig.l1.accesses(),
                inter.l1.accesses(),
                "{}: same access totals across versions",
                r.app
            );
        }
    }
}
