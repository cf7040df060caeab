//! # Mitos — imperative control flow compiled to a single cyclic dataflow
//!
//! A Rust reproduction of *"Efficient Control Flow in Dataflow Systems:
//! When Ease-of-Use Meets High Performance"* (ICDE 2021). Programs written
//! with ordinary imperative control flow (`while`, `do-while`, `if`, nested
//! loops) over distributed bags are compiled — via simplification and an
//! SSA-based intermediate representation — into a **single cyclic dataflow
//! job**, whose distributed execution is coordinated with path-carrying bag
//! identifiers, enabling **loop pipelining** and **loop-invariant
//! hoisting**.
//!
//! ```
//! use mitos::{run, Engine};
//! use mitos::fs::InMemoryFs;
//! use mitos::lang::Value;
//!
//! let fs = InMemoryFs::new();
//! fs.put("numbers", (1..=10).map(Value::I64).collect::<Vec<_>>());
//! let outcome = run(
//!     r#"
//!     total = 0;
//!     for round = 1 to 3 {
//!         scaled = readFile("numbers").map(x => x * round);
//!         total = total + scaled.sum();
//!     }
//!     output(total, "total");
//!     "#,
//!     &fs,
//!     Engine::Mitos,
//!     4,
//! ).unwrap();
//! assert_eq!(outcome.outputs["total"], vec![Value::I64(330)]);
//! ```
//!
//! Fine-grained control goes through the [`Run`] builder, one axis per
//! dimension: the system ([`Engine`]), where Mitos runs ([`Driver`]), the
//! cluster shape, and every Mitos knob — observability, live telemetry,
//! faults, and ablations such as disabling operator chain fusion — in one
//! [`EngineConfig`]:
//!
//! ```
//! # use mitos::fs::InMemoryFs;
//! use mitos::{compile, Driver, Engine, EngineConfig, ObsLevel, Run};
//! # let fs = InMemoryFs::new();
//! let func = compile(r#"output(bag(1, 2).map(x => x + 1).sum(), "s");"#).unwrap();
//! let outcome = Run::new(&func)
//!     .engine(Engine::Mitos)
//!     .driver(Driver::Threads)
//!     .machines(2)
//!     .config(EngineConfig::new().with_obs(ObsLevel::Metrics).with_fusion(false))
//!     .execute(&fs)
//!     .unwrap();
//! ```
//!
//! The crates behind this facade:
//!
//! * [`lang`] — values, expressions, the surface language parser;
//! * [`ir`] — simplification, SSA, validation, reference interpreter;
//! * [`core`] — the Mitos dataflow builder and runtime (the paper's
//!   contribution);
//! * [`baselines`] — Spark-like driver loops, Flink-like supersteps,
//!   Naiad- and TensorFlow-like loop executors;
//! * [`sim`] — the deterministic cluster simulator all engines run on;
//! * [`fs`] — the in-memory distributed file system;
//! * [`workloads`] — seeded generators for the paper's evaluation tasks.

#![warn(missing_docs)]

pub use mitos_baselines as baselines;
pub use mitos_core as core;
pub use mitos_fs as fs;
pub use mitos_ir as ir;
pub use mitos_lang as lang;
pub use mitos_sim as sim;
pub use mitos_workloads as workloads;

use mitos_baselines::DriverConfig;
pub use mitos_core::rt::{EngineConfig, FaultPlan};
pub use mitos_core::{FlowReport, MemReport, ObsLevel, ObsReport, Snapshot, StallReport};
use mitos_fs::InMemoryFs;
use mitos_ir::{BlockId, FuncIr};
use mitos_lang::Value;
use mitos_sim::SimConfig;
use std::collections::BTreeMap;
use std::fmt;

/// Which system executes the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Mitos: single cyclic dataflow, loop pipelining, hoisting. Its
    /// ablations (Fig. 8, Fig. 9) are [`EngineConfig::with_hoisting`] and
    /// [`EngineConfig::with_pipelining`]; where it runs is the [`Driver`].
    Mitos,
    /// Flink-style native iterations (supersteps + hoisting).
    FlinkNative,
    /// Flink submitting one job per iteration step.
    FlinkSeparateJobs,
    /// Spark-style driver loop (one job per action).
    Spark,
    /// The sequential reference interpreter (no cluster, no timing).
    Reference,
}

impl Engine {
    /// `Ok` on [`Engine::Mitos`]; otherwise the one error every Mitos-only
    /// feature reports: "`what` requires a Mitos engine, not `self`".
    pub fn require_mitos(self, what: &str) -> Result<(), Error> {
        if self == Engine::Mitos {
            return Ok(());
        }
        Err(Error {
            message: format!("{what} requires a Mitos engine, not `{self}`"),
            stall: None,
        })
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::Mitos => "Mitos",
            Engine::FlinkNative => "Flink (native iterations)",
            Engine::FlinkSeparateJobs => "Flink (separate jobs)",
            Engine::Spark => "Spark",
            Engine::Reference => "Reference interpreter",
        };
        write!(f, "{name}")
    }
}

/// Where [`Engine::Mitos`] runs. Every other engine runs on the simulator
/// only.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Driver {
    /// The deterministic cluster simulator: virtual time.
    #[default]
    Sim,
    /// Real OS threads, one worker thread per machine: wall-clock time,
    /// genuine concurrency.
    Threads,
}

/// The unified result of running a program on any engine.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `output(value, tag)` collections, canonically sorted.
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// The execution path (sequence of basic blocks).
    pub path: Vec<BlockId>,
    /// Execution time in nanoseconds: virtual time under [`Driver::Sim`],
    /// measured wall-clock time under [`Driver::Threads`], and 0 for the
    /// reference interpreter (see [`mitos_core::NS_PER_MS`]).
    pub elapsed_ns: u64,
    /// Per-operator statistics (Mitos and Flink native only; empty
    /// otherwise).
    pub op_stats: Vec<mitos_core::engine::OpStats>,
    /// Control-flow decisions broadcast by condition nodes (Mitos engines
    /// only; 0 otherwise).
    pub decisions: u64,
    /// Structured observability report — populated by the Mitos engines
    /// when the run's [`EngineConfig::obs`] is [`ObsLevel::Metrics`] or
    /// [`ObsLevel::Trace`]; `None` otherwise.
    pub obs: Option<ObsReport>,
    /// Periodic live-telemetry snapshots — populated by the Mitos engines
    /// when the run's [`EngineConfig::sample_interval_ns`] is non-zero;
    /// empty otherwise. Deterministic (virtual-time sampled) under
    /// [`Driver::Sim`], wall-clock sampled under [`Driver::Threads`].
    pub snapshots: Vec<Snapshot>,
    /// Always-on per-edge data-plane flow accounting (Mitos engines only;
    /// `None` for the baselines and the reference interpreter, which have
    /// no Mitos data plane to account). See [`Outcome::flow`].
    pub flow: Option<FlowReport>,
    /// Data-plane messages delivered post-dedup (Mitos engines only;
    /// 0 otherwise). The flow report's per-edge message totals reconcile
    /// exactly with this counter.
    pub data_messages: u64,
    /// Always-on per-machine, per-retention-class memory/state residency
    /// accounting (Mitos engines only; `None` for the baselines and the
    /// reference interpreter, which have no Mitos state to account). See
    /// [`Outcome::mem`].
    pub mem: Option<MemReport>,
    /// Control-plane template-cache lookups that replayed a recorded
    /// decision sequence (Mitos engines only; 0 otherwise, and 0 when
    /// templates are disabled). See [`Outcome::template_hit_rate`].
    pub template_hits: u64,
    /// Template-cache lookups that found no matching path suffix and fell
    /// through to the slow path (recording a fresh template).
    pub template_misses: u64,
    /// Recorded template entries discarded mid-replay because the live
    /// run diverged from the recording (conditional-send slice mismatch,
    /// hoist disagreement).
    pub template_invalidations: u64,
}

impl Outcome {
    /// The outcome of an engine without a Mitos data plane: results, path
    /// and time, with every Mitos-only counter and report empty.
    fn baseline(
        outputs: BTreeMap<String, Vec<Value>>,
        path: Vec<BlockId>,
        elapsed_ns: u64,
        op_stats: Vec<mitos_core::engine::OpStats>,
    ) -> Outcome {
        Outcome {
            outputs,
            path,
            elapsed_ns,
            op_stats,
            decisions: 0,
            obs: None,
            snapshots: Vec::new(),
            flow: None,
            data_messages: 0,
            mem: None,
            template_hits: 0,
            template_misses: 0,
            template_invalidations: 0,
        }
    }

    /// Execution time in milliseconds (virtual or wall-clock, matching
    /// [`Outcome::elapsed_ns`]).
    pub fn millis(&self) -> f64 {
        self.elapsed_ns as f64 / mitos_core::NS_PER_MS as f64
    }

    /// Renders the `EXPLAIN`-style per-operator report (see
    /// [`mitos_core::obs::explain_report`]): the full counter table when
    /// the run collected observability data, a basic
    /// [`mitos_core::engine::OpStats`] table otherwise.
    pub fn explain(&self) -> String {
        mitos_core::obs::explain_parts(
            &self.op_stats,
            self.obs.as_ref(),
            self.path.len(),
            self.op_stats.iter().map(|s| s.hoist_hits).sum(),
            self.decisions,
            (
                self.template_hits,
                self.template_misses,
                self.template_invalidations,
            ),
            self.millis(),
        )
    }

    /// Fraction of template-cache lookups that hit:
    /// `hits / (hits + misses)`, or 0.0 when the cache saw no lookups
    /// (templates disabled, a non-Mitos engine, or a run that never
    /// started a bag). Deterministic under [`Driver::Sim`] — bag
    /// starts follow the execution path, not data timing.
    pub fn template_hit_rate(&self) -> f64 {
        let lookups = self.template_hits + self.template_misses;
        if lookups == 0 {
            0.0
        } else {
            self.template_hits as f64 / lookups as f64
        }
    }

    /// Renders the run's event stream as Chrome trace-event JSON (load in
    /// `chrome://tracing` or Perfetto). Meaningful only when the run used
    /// [`ObsLevel::Trace`]; returns `None` otherwise.
    pub fn chrome_trace(&self) -> Option<String> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace).then(|| mitos_core::obs::chrome_trace(obs, &self.op_stats))
    }

    /// Builds the iteration profile of the run: per-iteration
    /// latency/element/decision attribution (decoded from bag identifiers
    /// via the program's loop nest), warmup-vs-steady split, per-machine
    /// straggler report, and the critical path through the bag-dependency
    /// DAG (see [`mitos_core::obs::profile`] and
    /// [`mitos_core::obs::critical`]). Requires a run at
    /// [`ObsLevel::Trace`]; returns `None` otherwise. Render with
    /// [`mitos_core::Profile::render`] or serialize with
    /// [`mitos_core::Profile::to_json`], passing [`Outcome::op_stats`].
    pub fn profile(&self) -> Option<mitos_core::Profile> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace)
            .then(|| mitos_core::build_profile(obs, &self.path, self.elapsed_ns))
    }

    /// Reconstructs the per-step causal span trees (decision broadcast →
    /// receipt → input-bag assembly → operator execute → send-resolve)
    /// from the run's event stream (see [`mitos_core::obs::span`]).
    /// Requires a run at [`ObsLevel::Trace`]; returns `None` otherwise.
    /// Render one tree with [`mitos_core::render_tree`].
    pub fn trace_trees(&self) -> Option<Vec<mitos_core::StepTree>> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace).then(|| mitos_core::build_step_trees(obs))
    }

    /// Derives the per-phase control-plane latency histograms (broadcast,
    /// assembly, execute, send-resolve; log₂ buckets) from the causal span
    /// trees (see [`mitos_core::obs::histo`]). Requires a run at
    /// [`ObsLevel::Trace`]; returns `None` otherwise. Export with
    /// [`mitos_core::PhaseHistograms::prometheus`].
    pub fn phase_histograms(&self) -> Option<mitos_core::PhaseHistograms> {
        self.trace_trees()
            .map(|t| mitos_core::PhaseHistograms::from_trees(&t))
    }

    /// The run's live-telemetry snapshots (see [`Outcome::snapshots`]).
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The run's per-edge data-plane flow report (elements, messages,
    /// serialized/wire/retransmitted bytes, relay-window watermarks,
    /// queue-depth and backpressure samples) — always populated by the
    /// Mitos engines, `None` for the baselines and the reference
    /// interpreter. Render with [`FlowReport::render`], export with
    /// [`FlowReport::prometheus`].
    pub fn flow(&self) -> Option<&FlowReport> {
        self.flow.as_ref()
    }

    /// The run's memory/state residency report (per-machine,
    /// per-retention-class live bags / elements / approximate bytes, with
    /// high-water marks and leak attribution) — always populated by the
    /// Mitos engines, `None` for the baselines and the reference
    /// interpreter. Render with [`MemReport::render`], export with
    /// [`MemReport::prometheus`]; a fault-free run that retains nothing
    /// outside deliberate caches reports [`MemReport::leak_free`].
    pub fn mem(&self) -> Option<&MemReport> {
        self.mem.as_ref()
    }
}

/// An error from compilation or execution.
#[derive(Clone, Debug)]
pub struct Error {
    /// Description.
    pub message: String,
    /// Structured stall diagnosis, present when the run was aborted by the
    /// stall watchdog or diagnosed as deadlocked (see
    /// [`mitos_core::obs::watchdog`]). Boxed to keep the `Err` variant
    /// small on every `Result<_, Error>` in the API.
    pub stall: Option<Box<StallReport>>,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<mitos_lang::Diagnostic> for Error {
    fn from(e: mitos_lang::Diagnostic) -> Self {
        Error {
            message: e.message,
            stall: None,
        }
    }
}

impl From<mitos_core::RuntimeError> for Error {
    fn from(e: mitos_core::RuntimeError) -> Self {
        Error {
            message: e.message,
            stall: e.stall,
        }
    }
}

/// Compiles source text to validated SSA (parse → simplify → SSA →
/// validate).
pub fn compile(src: &str) -> Result<FuncIr, Error> {
    Ok(mitos_ir::compile_str(src)?)
}

/// A single execution of a compiled program, configured fluently: the
/// [`Engine`], the [`Driver`] it runs on, the cluster size, and every Mitos
/// knob — pipelining, hoisting, operator chain fusion, templates, cost
/// model, observability, live telemetry, fault injection — in one
/// [`EngineConfig`]. [`Run::execute`] produces the unified [`Outcome`].
///
/// ```
/// use mitos::{compile, Engine, EngineConfig, Run};
/// use mitos::fs::InMemoryFs;
/// use mitos::lang::Value;
///
/// let func = compile(r#"s = bag(1, 2, 3).map(x => x * 2); output(s.sum(), "s");"#).unwrap();
/// let fs = InMemoryFs::new();
/// let outcome = Run::new(&func)
///     .engine(Engine::Mitos)
///     .machines(2)
///     .config(EngineConfig::new().with_pipelining(false)) // e.g. Fig. 9's ablation
///     .execute(&fs)
///     .unwrap();
/// assert_eq!(outcome.outputs["s"], vec![Value::I64(12)]);
/// ```
///
/// Defaults: [`Engine::Mitos`] on [`Driver::Sim`], 4 machines,
/// [`EngineConfig::default`] (pipelining, hoisting, fusion and templates
/// on; observability, live telemetry and faults off).
pub struct Run<'a> {
    func: &'a FuncIr,
    engine: Engine,
    driver: Driver,
    cluster: SimConfig,
    config: EngineConfig,
    on_snapshot: Option<&'a mut dyn FnMut(&Snapshot)>,
}

impl<'a> Run<'a> {
    /// Starts a run of `func` with the default configuration.
    pub fn new(func: &'a FuncIr) -> Self {
        Run {
            func,
            engine: Engine::Mitos,
            driver: Driver::Sim,
            cluster: SimConfig::with_machines(4),
            config: EngineConfig::default(),
            on_snapshot: None,
        }
    }

    /// Selects the executing engine (default [`Engine::Mitos`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the driver (default [`Driver::Sim`]). [`Driver::Threads`]
    /// exists for [`Engine::Mitos`] only; [`Run::execute`] fails on any
    /// other engine.
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Sets the simulated cluster size (default 4 machines).
    pub fn machines(mut self, machines: u16) -> Self {
        self.cluster = SimConfig::with_machines(machines);
        self
    }

    /// Full control over the cluster parameters (overrides
    /// [`Run::machines`]).
    pub fn cluster(mut self, cluster: SimConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Invokes `f` on each periodic [`Snapshot`] while the job runs
    /// (requires [`EngineConfig::with_sample_interval_ns`]).
    pub fn on_snapshot(mut self, f: &'a mut dyn FnMut(&Snapshot)) -> Self {
        self.on_snapshot = Some(f);
        self
    }

    /// Supplies the [`EngineConfig`]. The cost model applies to every
    /// engine; observability is recorded by Mitos only (the others return
    /// `Outcome::obs = None`). Live telemetry and fault injection exist on
    /// Mitos only: [`Run::execute`] fails if either is set for another
    /// engine.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the program. File effects land in `fs`.
    pub fn execute(self, fs: &InMemoryFs) -> Result<Outcome, Error> {
        let Run {
            func,
            engine,
            driver,
            cluster,
            config,
            on_snapshot,
        } = self;
        let mitos_only = if driver != Driver::Sim {
            Some("the thread driver")
        } else if config.sample_interval_ns != 0 || config.stall_deadline_ns != 0 {
            Some("live telemetry (sampling / stall watchdog)")
        } else if config.faults.is_active() {
            Some("fault injection")
        } else {
            None
        };
        if let Some(what) = mitos_only {
            engine.require_mitos(what)?;
        }
        let outcome = match engine {
            Engine::Mitos => {
                let mut noop = |_: &Snapshot| {};
                let on_snapshot = on_snapshot.unwrap_or(&mut noop);
                let r = match driver {
                    Driver::Sim => {
                        mitos_core::run_sim_live(func, fs, config, cluster, on_snapshot)?
                    }
                    Driver::Threads => mitos_core::run_threads_live(
                        func,
                        fs,
                        config,
                        cluster.machines,
                        on_snapshot,
                    )?,
                };
                Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    elapsed_ns: r.sim.end_time,
                    op_stats: r.op_stats,
                    decisions: r.decisions,
                    obs: r.obs,
                    snapshots: r.snapshots,
                    flow: Some(r.flow),
                    data_messages: r.data_messages,
                    mem: Some(r.mem),
                    template_hits: r.template_hits,
                    template_misses: r.template_misses,
                    template_invalidations: r.template_invalidations,
                }
            }
            Engine::FlinkNative => {
                let r = mitos_baselines::run_flink_native_with(func, fs, cluster, config.cost)?;
                Outcome::baseline(r.outputs, r.path, r.sim.end_time, r.op_stats)
            }
            Engine::FlinkSeparateJobs | Engine::Spark => {
                let base = if engine == Engine::Spark {
                    DriverConfig::default()
                } else {
                    mitos_baselines::flink_driver_config()
                };
                let driver_config = DriverConfig {
                    cost: config.cost,
                    ..base
                };
                let r = mitos_baselines::run_driver_loop(func, fs, driver_config, cluster)?;
                Outcome::baseline(r.outputs, r.path, r.sim.end_time, Vec::new())
            }
            Engine::Reference => {
                let r = mitos_ir::interpret(func, fs, mitos_ir::InterpConfig::default()).map_err(
                    |e| Error {
                        message: e.message,
                        stall: None,
                    },
                )?;
                Outcome::baseline(r.canonical_outputs(), r.path, 0, Vec::new())
            }
        };
        Ok(outcome)
    }
}

/// Compiles and runs source text (the one-call entry point).
pub fn run(src: &str, fs: &InMemoryFs, engine: Engine, machines: u16) -> Result<Outcome, Error> {
    let func = compile(src)?;
    Run::new(&func)
        .engine(engine)
        .machines(machines)
        .execute(fs)
}
