//! # mitos-bench
//!
//! Shared harness for the figure-reproduction benchmarks. Each `benches/`
//! target regenerates one figure of the paper's evaluation (Sec. 6),
//! printing the same series the paper plots, measured in **virtual
//! milliseconds** on the simulated cluster.
//!
//! Scaled-down workloads run by default so `cargo bench` finishes in
//! minutes; set `MITOS_BENCH_FULL=1` for paper-scale sweeps. Results for
//! both scales are recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]

use mitos::{Engine, EngineConfig, Run};
use mitos_core::obs::expo::{object, Json};
use mitos_core::CostModel;
use mitos_fs::InMemoryFs;
use mitos_ir::FuncIr;

/// Whether paper-scale workloads were requested.
pub fn full_scale() -> bool {
    std::env::var_os("MITOS_BENCH_FULL").is_some()
}

/// The commit the bench binary measures: `MITOS_GIT_SHA` when set (CI
/// exports it so builds from detached checkouts still stamp correctly),
/// else `git rev-parse --short HEAD`, else `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("MITOS_GIT_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs a compiled program through [`Run`] on a simulated cluster of
/// `machines`, returning the virtual makespan in milliseconds. `config`
/// carries the cost model, which every engine honours, and the Mitos
/// ablations.
pub fn virtual_ms(
    func: &FuncIr,
    fs: &InMemoryFs,
    engine: Engine,
    config: EngineConfig,
    machines: u16,
) -> f64 {
    Run::new(func)
        .engine(engine)
        .machines(machines)
        .config(config)
        .execute(fs)
        .unwrap_or_else(|e| panic!("{engine}: {e}"))
        .millis()
}

/// The cost model used by the Visit Count figures: each simulated element
/// stands for ~500 log records, so 5 000 elements/day models the paper's
/// ~21 MB of visits per day.
pub fn visit_cost() -> CostModel {
    CostModel {
        record_weight: 500,
        // Hash-table builds over string-keyed rows (the pageTypes join)
        // cost more than integer inserts.
        per_insert_ns: 300,
        per_probe_ns: 120,
        // A log record is ~64 B (URL, timestamp), not the bare 8-byte page
        // id the simulation materializes.
        bytes_per_record_scale: 8,
        // Effective HDFS read throughput per machine (incl. seeks and the
        // NameNode round trip) is far below raw disk bandwidth; the
        // paper's pipelining gains come from hiding exactly this.
        io: mitos_fs::IoCostModel {
            open_latency_ns: 4_000_000,
            bytes_per_us: 50,
        },
        ..CostModel::default()
    }
}

/// The cost model for the loop-invariant sweep (Fig. 8): pageTypes rows
/// are compact `(id, type)` pairs, so the byte inflation of log records
/// does not apply; this keeps the one-time dataset read from masking the
/// per-step hash-table rebuild that the figure isolates.
pub fn invariant_cost() -> CostModel {
    CostModel {
        bytes_per_record_scale: 2,
        ..visit_cost()
    }
}

/// A simple aligned table printer for the figure series.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    out.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            println!("{out}");
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// One cell value in a [`BenchReport`] row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A floating-point measurement (virtual ms, a speedup factor, ...).
    /// Non-finite values serialize as JSON `null`.
    Num(f64),
    /// An integer parameter (machine count, input size, ...).
    Int(u64),
    /// A label (system name, ablation section, ...).
    Str(String),
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<u16> for Cell {
    fn from(v: u16) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Str(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Str(v)
    }
}

impl Cell {
    /// Writes the cell as one JSON value; non-finite numbers become `null`.
    fn write(&self, j: &mut Json) {
        match self {
            Cell::Num(v) => j.raw(finite_or_null(*v)),
            Cell::Int(v) => j.raw(v),
            Cell::Str(s) => j.str(s),
        };
    }
}

/// `v` as a JSON number, or `null` when it is not finite.
fn finite_or_null(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A machine-readable summary of one figure's bench run — the measured
/// series plus the headline factors the paper reports, written as
/// `BENCH_<fig>.json` so the bench trajectory can be tracked across
/// commits without scraping stdout. The output directory is
/// `MITOS_BENCH_DIR` (default: the current directory); see
/// `scripts/bench.sh`.
pub struct BenchReport {
    fig: String,
    title: String,
    rows: Vec<Vec<(String, Cell)>>,
    factors: Vec<(String, f64)>,
    provenance: Option<(String, u64, u64)>,
}

impl BenchReport {
    /// Starts a report for figure `fig` (e.g. `"fig7"`; names the output
    /// file `BENCH_<fig>.json`).
    pub fn new(fig: &str, title: &str) -> BenchReport {
        BenchReport {
            fig: fig.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
            factors: Vec::new(),
            provenance: None,
        }
    }

    /// Stamps the report with its provenance: the git commit it measured
    /// (from `MITOS_GIT_SHA`, falling back to `git rev-parse`), the bench
    /// seed, and the engine-config digest
    /// ([`EngineConfig::digest`]) — so `scripts/bench_compare.sh` can warn
    /// when two reports measured different configurations.
    pub fn provenance(&mut self, seed: u64, config_digest: u64) {
        self.provenance = Some((git_sha(), seed, config_digest));
    }

    /// Records one row of the measured series as named cells; keys are
    /// preserved in order. Rows need not share a schema (the ablation
    /// report mixes sections).
    pub fn row(&mut self, cells: Vec<(&str, Cell)>) {
        self.rows
            .push(cells.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    }

    /// Records a derived headline factor (e.g. the max Spark/Mitos
    /// slowdown across the sweep).
    pub fn factor(&mut self, name: &str, value: f64) {
        self.factors.push((name.to_string(), value));
    }

    /// Serializes the report as deterministic JSON (insertion order kept).
    pub fn to_json(&self) -> String {
        let mut out = object(|j| {
            j.field_str("figure", &self.fig)
                .field_str("title", &self.title)
                .field("full_scale", full_scale());
            j.key("rows").arr(|j| {
                for row in &self.rows {
                    j.obj(|j| {
                        for (k, v) in row {
                            v.write(j.key(k));
                        }
                    });
                }
            });
            j.key("factors").obj(|j| {
                for (k, v) in &self.factors {
                    j.field(k, finite_or_null(*v));
                }
            });
            if let Some((sha, seed, digest)) = &self.provenance {
                j.field_str("git_sha", sha)
                    .field("seed", seed)
                    .field("config_digest", digest);
            }
        });
        out.push('\n');
        out
    }

    /// Writes `BENCH_<fig>.json` into `MITOS_BENCH_DIR` (default `.`) and
    /// prints the path. Panics on I/O errors — a bench run that cannot
    /// record its trajectory should fail loudly.
    pub fn write(&self) {
        let dir = std::env::var("MITOS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.fig));
        std::fs::write(&path, self.to_json()).expect("write bench report");
        println!("wrote {}", path.display());
    }
}

/// Formats a virtual-millisecond value compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.1}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

/// Formats a ratio as `N.Nx`.
pub fn fmt_factor(x: f64) -> String {
    format!("{x:.1}x")
}

/// The per-step-overhead microbenchmark program of Fig. 7: a loop with
/// minimal actual data processing per step.
pub fn trivial_loop_program(steps: u32) -> String {
    format!(
        r#"s = 0;
for i = 1 to {steps} {{
    b = bag((1, i));
    s = s + b.count();
}}
output(s, "s");
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_workloads::{generate_visit_logs, visit_count_program, VisitCountSpec};

    #[test]
    fn all_systems_run_visit_count() {
        let spec = VisitCountSpec {
            days: 3,
            visits_per_day: 30,
            pages: 10,
            seed: 1,
        };
        let func = mitos_ir::compile_str(&visit_count_program(3, false)).unwrap();
        let config = EngineConfig::new().with_cost(visit_cost());
        for (engine, config) in [
            (Engine::Mitos, config.clone()),
            (Engine::Mitos, config.clone().with_pipelining(false)),
            (Engine::Mitos, config.clone().with_hoisting(false)),
            (Engine::FlinkNative, config.clone()),
            (Engine::FlinkSeparateJobs, config.clone()),
            (Engine::Spark, config),
        ] {
            let fs = InMemoryFs::new();
            generate_visit_logs(&fs, &spec);
            let ms = virtual_ms(&func, &fs, engine, config, 2);
            assert!(ms > 0.0, "{engine}");
        }
    }

    #[test]
    fn trivial_loop_compiles_and_runs() {
        let func = mitos_ir::compile_str(&trivial_loop_program(5)).unwrap();
        let fs = InMemoryFs::new();
        let ms = virtual_ms(&func, &fs, Engine::Mitos, EngineConfig::new(), 2);
        assert!(ms > 0.0);
    }

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["x", "a", "b"]);
        t.row(vec!["1".into(), "10.0ms".into(), "2.0x".into()]);
        t.print();
    }

    #[test]
    fn bench_report_serializes_rows_and_factors() {
        let mut r = BenchReport::new("figX", "example sweep");
        r.row(vec![
            ("machines", 4u16.into()),
            ("mitos_ms", 12.5f64.into()),
            ("system", "Mitos".into()),
        ]);
        r.factor("spark_vs_mitos_max", 10.0);
        let json = r.to_json();
        assert!(json.starts_with("{\"figure\":\"figX\""), "{json}");
        assert!(json.contains("\"title\":\"example sweep\""), "{json}");
        assert!(
            json.contains("{\"machines\":4,\"mitos_ms\":12.5,\"system\":\"Mitos\"}"),
            "{json}"
        );
        assert!(
            json.contains("\"factors\":{\"spark_vs_mitos_max\":10}"),
            "{json}"
        );
    }

    #[test]
    fn bench_report_stamps_provenance_after_factors() {
        let mut r = BenchReport::new("figP", "provenance");
        r.factor("f", 1.0);
        r.provenance(42, 0xdead_beef);
        let json = r.to_json();
        let digest = 0xdead_beefu64;
        assert!(
            json.contains(&format!("\"seed\":42,\"config_digest\":{digest}")),
            "{json}"
        );
        let sha_at = json.find("\"git_sha\":").expect("git_sha stamped");
        let factors_at = json.find("\"factors\":").unwrap();
        assert!(
            factors_at < sha_at,
            "provenance must follow the factors object: {json}"
        );
        // Without the stamp the report keeps its original schema.
        assert!(!BenchReport::new("figQ", "bare")
            .to_json()
            .contains("git_sha"));
    }

    #[test]
    fn bench_report_nulls_non_finite() {
        let mut r = BenchReport::new("figY", "nan handling");
        r.row(vec![("bad", Cell::Num(f64::NAN))]);
        r.factor("inf", f64::INFINITY);
        let json = r.to_json();
        assert!(json.contains("{\"bad\":null}"), "{json}");
        assert!(json.contains("\"inf\":null"), "{json}");
    }

    #[test]
    fn bench_report_escapes_strings() {
        let mut r = BenchReport::new("figZ", "a \"quoted\"\ntitle");
        r.row(vec![("label", "back\\slash".into())]);
        let json = r.to_json();
        assert!(json.contains("\"a \\\"quoted\\\"\\ntitle\""), "{json}");
        assert!(json.contains("\"back\\\\slash\""), "{json}");
    }

    #[test]
    fn bench_report_writes_to_dir() {
        let dir = std::env::temp_dir().join("mitos_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Env vars are process-global; this is the only test touching
        // MITOS_BENCH_DIR, and it restores the prior state.
        let prev = std::env::var_os("MITOS_BENCH_DIR");
        std::env::set_var("MITOS_BENCH_DIR", &dir);
        let mut r = BenchReport::new("figtest", "write test");
        r.row(vec![("x", 1u64.into())]);
        r.write();
        match prev {
            Some(v) => std::env::set_var("MITOS_BENCH_DIR", v),
            None => std::env::remove_var("MITOS_BENCH_DIR"),
        }
        let path = dir.join("BENCH_figtest.json");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"figure\":\"figtest\""), "{written}");
        std::fs::remove_file(&path).unwrap();
    }
}
