//! A run's result: metrics, checks, provenance and the output forms.

use crate::spec;
use cachemap_util::Json;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// What one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time, s.
    pub seconds: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks; any one makes the run incorrect.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Extra result-file fields.
    pub detail: Vec<(String, Json)>,
    metrics: Vec<(String, &'static str, Option<f64>)>,
}

impl Report {
    /// An empty report expecting the metrics of its mode.
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Report {
        let metrics = if traced {
            spec::per_layer()
                .into_iter()
                .map(|(n, u)| (n, u, None))
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u, None))
                .collect()
        };
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            detail: Vec::new(),
            metrics,
        }
    }

    /// Sets a metric of this mode; naming any other metric is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not one this run prints"));
        slot.2 = Some(value);
    }

    /// Sets every metric of this mode not set yet to 0: layers the
    /// workload does not run.
    pub fn zero_unset(&mut self) {
        for m in &mut self.metrics {
            m.2.get_or_insert(0.0);
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// All checks passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics as `(name, value, unit)`; errors if one is unset or
    /// not a finite number.
    pub fn metrics(&self) -> Result<Vec<(&str, f64, &str)>, String> {
        self.metrics
            .iter()
            .map(|(n, u, v)| match v {
                Some(v) if v.is_finite() => Ok((n.as_str(), *v, *u)),
                Some(v) => Err(format!("metric {n} is {v}")),
                None => Err(format!("metric {n} was not measured")),
            })
            .collect()
    }

    fn metrics_json(&self) -> Result<Json, String> {
        Ok(Json::Object(
            self.metrics()?
                .into_iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Json::object(vec![
                            ("value", Json::Float(v)),
                            ("unit", Json::Str(u.into())),
                        ]),
                    )
                })
                .collect(),
        ))
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> Result<String, String> {
        Ok(Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json()?),
        ])
        .to_string_compact())
    }

    /// Writes the stamped result file under `dir` and returns its path.
    pub fn write_file(&self, dir: &Path) -> Result<PathBuf, String> {
        let stamp = provenance(self);
        let path = dir.join(format!(
            "{}-seed{}-{}-{}.json",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            unix_secs()
        ));
        let mut pairs = vec![
            ("provenance".to_string(), stamp),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failed)),
            (
                "problems".to_string(),
                Json::Array(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("metrics".to_string(), self.metrics_json()?),
            (
                "notes".to_string(),
                Json::Array(self.notes.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
        ];
        pairs.extend(self.detail.iter().cloned());
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, Json::Object(pairs).to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Where a result came from: git revision (when the tree is a git
/// checkout), a digest of the program and benchmark sources, seed,
/// scale, host parallelism, build profile, time and mode.
pub fn provenance(r: &Report) -> Json {
    let root = crate::bench_dir().join("..");
    // Only the tree's own repository counts, not one it happens to sit in.
    let git_rev = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(&root)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    let scale = match r.workload.as_str() {
        "map-paper" => "paper suite on the paper platform",
        "serve-hits" => "test suite on the tiny platform",
        _ => "test suite on the paper platform",
    };
    Json::object(vec![
        ("git_rev", Json::Str(git_rev)),
        ("source_digest", Json::Str(source_digest(&root))),
        ("workload", Json::Str(r.workload.clone())),
        ("seed", Json::UInt(r.seed)),
        ("seconds", Json::UInt(r.seconds)),
        ("scale", Json::Str(scale.into())),
        (
            "available_parallelism",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("unix_time", Json::UInt(unix_secs())),
        ("traced", Json::Bool(r.traced)),
    ])
}

/// Hash of every file under `crates/` and `benchmark/src/`, in path
/// order: identifies the measured code where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "benchmark/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = 0u64;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        h = crate::client::hash_bytes(&[&h.to_le_bytes()[..], rel.as_bytes(), &body].concat());
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}
