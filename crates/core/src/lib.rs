//! # mitos-core
//!
//! The paper's primary contribution: building a **single cyclic dataflow
//! job** from a program with arbitrary imperative control flow (Sec. 4.3)
//! and coordinating its distributed execution with path-carrying bag
//! identifiers (Sec. 5), including the **loop pipelining** and
//! **loop-invariant hoisting** optimizations.
//!
//! Main entry points:
//!
//! * [`graph::LogicalGraph::build`] — SSA → dataflow job + physical plan.
//! * [`engine::run_sim`] — execute on the simulated cluster;
//!   [`thread_driver::run_threads`] runs the same worker state machines on
//!   real threads.
//! * [`engine::Job`] — the job lifecycle both drivers share: build the
//!   shared state and the workers, then check how the run ended and build
//!   the result. A driver is only its loop.
//!
//! A structured tracing + metrics layer (Chrome trace export,
//! `EXPLAIN`-style reports) lives in [`obs`].

#![warn(missing_docs)]

pub mod cost;
pub mod dot;
pub mod engine;
pub mod fuse;
pub mod graph;
pub mod host;
pub mod obs;
pub mod path;
pub mod relay;
pub mod rt;
pub mod template;
pub mod thread_driver;
pub mod worker;

pub use cost::CostModel;
pub use dot::{to_dot, DotOverlay};
pub use engine::{extract_outputs, run_sim, run_sim_live, EngineResult, Job};
pub use fuse::{fuse_graph, planned_graph};
pub use graph::{LogicalGraph, NodeKind, OpId, Parallelism, Partitioning};
pub use obs::{
    build_profile, build_step_trees, critical_path, progress_line, render_tree, watch_table,
    BagNode, ClassMem, CriticalPath, EdgeFlow, Event, EventKind, FlightRecorder, FlowRegistry,
    FlowReport, Histogram, MachineMem, MemClass, MemRegistry, MemReport, ObsLevel, ObsReport,
    PhaseHistograms, Profile, Snapshot, SpanCtx, StallReport, StepTree, TelemetryHub,
};
pub use path::{BagId, ExecutionPath, LoopInfo, LoopNest, PathRules, SendDecision};
pub use relay::{Relay, ReliableNet};
pub use rt::{EngineConfig, FaultPlan, Msg, RuntimeError, NS_PER_MS};
pub use template::{Template, TemplateCache};
pub use thread_driver::{run_threads, run_threads_live};
pub use worker::Worker;
