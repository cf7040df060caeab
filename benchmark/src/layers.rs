//! Per-layer replays: each layer's public calls are timed in isolation on
//! the workload's own artifacts — its program text, its largest bag, the
//! execution path its job actually took — so the numbers carry the
//! workload's data shape. Everything here calls `pub` items only.

use crate::report::Report;
use crate::trace::Tracer;
use crate::workloads::KernelPlan;
use mitos::core::graph::stable_hash;
use mitos::core::obs::{FlowRegistry, MemRegistry};
use mitos::core::rt::Net;
use mitos::core::template::{SelSlot, SelectionRecord};
use mitos::core::{
    ExecutionPath, LogicalGraph, Msg, NodeKind, Partitioning, PathRules, Relay, TemplateCache,
};
use mitos::ir::{kernel, BlockId, FuncIr};
use mitos::lang::{Batch, Expr, Value};
use mitos::sim::{ActorId, Sim, SimConfig, SimCtx, World};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a replay runs on.
pub struct Artifacts<'a> {
    pub func: &'a FuncIr,
    /// The planned (fused) graph the drivers execute.
    pub graph: &'a LogicalGraph,
    pub rules: &'a PathRules,
    /// The execution path of the workload's job.
    pub path: &'a [BlockId],
    pub plan: &'a KernelPlan,
    pub sim_machines: u16,
    /// Elements the largest bag must have for a kernel, batch or route
    /// throughput to mean anything (1 024; 1 under `--tiny`).
    pub min_bag: usize,
}

/// Times one replay after another, each for `budget` under a span of its
/// own, and records the median of its passes.
struct Probe<'a> {
    tr: &'a mut Tracer,
    out: &'a mut Report,
    budget: Duration,
}

impl Probe<'_> {
    /// Seconds per pass of `run`, sampled until the budget is spent (three
    /// passes at least); the span's count is `work` per pass.
    fn passes(&mut self, span: &'static str, work: usize, mut run: impl FnMut()) -> Vec<f64> {
        let open = self.tr.begin(span);
        let deadline = Instant::now() + self.budget;
        let mut samples = Vec::new();
        while samples.len() < 3 || Instant::now() < deadline {
            let start = Instant::now();
            run();
            samples.push(start.elapsed().as_secs_f64());
        }
        self.tr.end(open, (work * samples.len()) as u64);
        samples
    }

    /// `run` processes `work` elements or bytes; records millions per
    /// second.
    fn throughput(
        &mut self,
        span: &'static str,
        metric: &'static str,
        unit: &'static str,
        work: usize,
        run: impl FnMut(),
    ) {
        let samples = self.passes(span, work, run);
        let rates: Vec<f64> = samples.iter().map(|s| work as f64 / s / 1e6).collect();
        self.out.put_median(metric, &rates, unit);
    }

    /// `run` makes `calls` calls; records nanoseconds per call.
    fn latency(
        &mut self,
        span: &'static str,
        metric: &'static str,
        calls: usize,
        run: impl FnMut(),
    ) {
        let samples = self.passes(span, calls, run);
        let ns: Vec<f64> = samples
            .iter()
            .map(|s| s * 1e9 / calls.max(1) as f64)
            .collect();
        self.out.put_median(metric, &ns, "ns");
    }
}

/// Replays in one `replay` root span; the budget is split evenly.
const REPLAYS: u32 = 20;

/// Runs every replay and records the per-layer timing metrics.
pub fn replay(a: &Artifacts, budget: Duration, tr: &mut Tracer, out: &mut Report) {
    let root = tr.begin("replay");
    let mut p = Probe {
        tr,
        out,
        budget: budget / REPLAYS,
    };
    path_queries(a, &mut p);
    template_cache(a, &mut p);
    if a.plan.largest.len() >= a.min_bag {
        graph_route(a, &mut p);
        kernels(a, &mut p);
        batch_codec(a, &mut p);
    } else {
        // No bag of this workload is large enough for a throughput.
        for (metric, unit) in BAG_THROUGHPUTS {
            p.out.put_not_applicable(metric, unit);
        }
    }
    relay(a, &mut p);
    sim_scheduler(a, &mut p);
    tr.end(root, 0);
}

/// The metrics measured over the workload's largest bag.
const BAG_THROUGHPUTS: [(&str, &str); 13] = [
    ("graph.route_melems_s", "Melem/s"),
    ("kernel.map_melems_s", "Melem/s"),
    ("kernel.filter_melems_s", "Melem/s"),
    ("kernel.flat_map_melems_s", "Melem/s"),
    ("kernel.reduce_by_key_melems_s", "Melem/s"),
    ("kernel.join_melems_s", "Melem/s"),
    ("kernel.distinct_melems_s", "Melem/s"),
    ("batch.from_slice_melems_s", "Melem/s"),
    ("batch.into_values_melems_s", "Melem/s"),
    ("batch.encoded_len_melems_s", "Melem/s"),
    ("batch.encode_mb_s", "MB/s"),
    ("batch.decode_mb_s", "MB/s"),
    ("batch.bytes_per_elem", "B/elem"),
];

// ---- graph -------------------------------------------------------------------

fn graph_route(a: &Artifacts, p: &mut Probe) {
    let bag = &a.plan.largest;
    let edge = a
        .graph
        .edges
        .iter()
        .position(|e| e.partitioning == Partitioning::Hash)
        .unwrap_or(0) as u32;
    p.throughput(
        "graph.route",
        "graph.route_melems_s",
        "Melem/s",
        bag.len(),
        || {
            for v in bag {
                black_box(stable_hash(v.key()));
                black_box(a.graph.route(edge, 0, Some(v.key()), a.sim_machines));
            }
        },
    );
}

// ---- path ----------------------------------------------------------------------

fn path_queries(a: &Artifacts, p: &mut Probe) {
    let mut path = ExecutionPath::new();
    for &b in a.path {
        path.append(b);
    }
    path.mark_exited();
    // Scans reach back to the producer's last occurrence, which for
    // pre-loop producers is the whole prefix; an evenly spaced sample of
    // at most ~2 000 positions keeps one pass in the milliseconds.
    let stride = a.path.len().div_ceil(2048).max(1);
    let positions: Vec<u32> = (0..a.path.len() as u32).step_by(stride).collect();

    // What a host asks at each position: an input selection per edge into
    // the block, a send decision per conditional edge out of it.
    let mut selects = Vec::new();
    let mut sends = Vec::new();
    for &pos in &positions {
        let block = path.get(pos);
        for (e, r) in a.rules.edges.iter().enumerate() {
            if r.dst_block == block {
                selects.push((e as u32, pos));
            }
            if r.src_block == block && !r.immediate {
                sends.push((e as u32, pos + 1));
            }
        }
    }
    p.latency(
        "path.select_input",
        "path.select_input_ns",
        selects.len(),
        || {
            for &(e, pos) in &selects {
                black_box(a.rules.select_input_len(e, &path, pos));
            }
        },
    );
    p.latency(
        "path.decide_send",
        "path.decide_send_ns",
        sends.len(),
        || {
            for &(e, len) in &sends {
                black_box(a.rules.decide_send(e, &path, len, len));
            }
        },
    );
    let blocks = a.func.blocks.len() as BlockId;
    let calls = positions.len() * blocks as usize;
    p.latency(
        "path.last_occurrence",
        "path.last_occurrence_ns",
        calls,
        || {
            for &pos in &positions {
                for b in 0..blocks {
                    black_box(path.last_occurrence_before(b, pos));
                }
            }
        },
    );
}

// ---- template --------------------------------------------------------------------

/// Replays the bag starts of the path's most frequent block through one
/// cache, as that block's host does: look up the suffix, record on a miss.
/// That leaves the cache as the job leaves it; against that fixed cache
/// (lookups only reorder it) every start is a hit or a miss for good, so
/// the two kinds are timed in passes of their own. Record is timed on a
/// fresh cache, at every start.
fn template_cache(a: &Artifacts, p: &mut Probe) {
    let blocks = a.func.blocks.len();
    let mut occurrences = vec![0usize; blocks];
    for &b in a.path {
        occurrences[b as usize] += 1;
    }
    let hot = (0..blocks)
        .max_by_key(|&b| (occurrences[b], blocks - b))
        .unwrap_or(0) as BlockId;
    let (starts, foreign): (Vec<u32>, Vec<u32>) =
        (1..=a.path.len() as u32).partition(|&len| a.path[len as usize - 1] == hot);
    let selection = || SelectionRecord {
        phi_winner: None,
        inputs: vec![SelSlot::Delta(1)],
        hoist_hit: false,
    };

    let mut cache = TemplateCache::new();
    for &len in &starts {
        if cache.lookup(a.path, len).is_none() {
            cache.record(a.path, len, selection(), 1);
        }
    }
    let (hits, mut misses): (Vec<u32>, Vec<u32>) = starts
        .iter()
        .partition(|&&len| cache.lookup(a.path, len).is_some());
    // A loop that always replays has no misses of its own; bag starts of
    // other blocks never match this block's keys.
    if misses.len() < 16 {
        misses.extend(foreign.iter().take(1024));
    }

    p.latency(
        "template.lookup_hit",
        "template.lookup_hit_ns",
        hits.len(),
        || {
            for &len in &hits {
                black_box(cache.lookup(a.path, len).is_some());
            }
        },
    );
    p.latency(
        "template.lookup_miss",
        "template.lookup_miss_ns",
        misses.len(),
        || {
            for &len in &misses {
                black_box(cache.lookup(a.path, len).is_some());
            }
        },
    );
    p.latency(
        "template.record",
        "template.record_ns",
        starts.len(),
        || {
            let mut fresh = TemplateCache::new();
            for &len in &starts {
                black_box(fresh.record(a.path, len, selection(), 1));
            }
        },
    );
}

// ---- kernel ----------------------------------------------------------------------

/// The compiled body of `lambda`, obtained the way any program's lambda
/// is: by compiling a one-operator program around it. It must be one of the
/// workload's own.
fn lambda_expr(a: &Artifacts, method: &str, lambda: &str) -> Expr {
    let probe = format!("x = readFile(\"in\").{method}({lambda}); output(x, \"x\");");
    let func = mitos::ir::compile_str(&probe)
        .unwrap_or_else(|e| panic!("replay lambda `{lambda}` does not compile: {e}"));
    let graph = LogicalGraph::build(&func).expect("probe program builds");
    let expr = exprs_of(&graph)
        .into_iter()
        .next()
        .expect("probe program has one lambda");
    let unfused = LogicalGraph::build(a.func).expect("workload program builds");
    assert!(
        exprs_of(&unfused).contains(&expr),
        "`{lambda}` is not in the workload's graph"
    );
    expr
}

fn exprs_of(graph: &LogicalGraph) -> Vec<Expr> {
    graph
        .nodes
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::Map { expr }
            | NodeKind::FlatMap { expr }
            | NodeKind::Filter { expr }
            | NodeKind::ReduceByKey { expr }
            | NodeKind::ReduceByKeyLocal { expr } => Some(expr.clone()),
            _ => None,
        })
        .collect()
}

type PerElement = fn(&Expr, &[Value], &Batch) -> Result<Batch, kernel::KernelError>;

/// One of the batch-in, batch-out kernels, if the program uses it.
fn per_element_kernel(
    a: &Artifacts,
    p: &mut Probe,
    (method, span, metric): (&str, &'static str, &'static str),
    input: &Option<(&'static str, Vec<Value>)>,
    run: PerElement,
) {
    let Some((lambda, input)) = input else {
        p.out.put_not_applicable(metric, "Melem/s");
        return;
    };
    let (expr, batch) = (lambda_expr(a, method, lambda), Batch::from_slice(input));
    p.throughput(span, metric, "Melem/s", batch.len(), || {
        black_box(run(&expr, &[], &batch).expect("replay lambda evaluates"));
    });
}

/// Each kernel the workload's program uses, with the program's own lambda,
/// over the bag its largest input becomes on the way there.
fn kernels(a: &Artifacts, p: &mut Probe) {
    let plan = a.plan;
    let map = ("map", "kernel.map", "kernel.map_melems_s");
    per_element_kernel(a, p, map, &plan.map, kernel::map);
    let filter = ("filter", "kernel.filter", "kernel.filter_melems_s");
    per_element_kernel(a, p, filter, &plan.filter, kernel::filter);
    let flat_map = ("flatMap", "kernel.flat_map", "kernel.flat_map_melems_s");
    per_element_kernel(a, p, flat_map, &plan.flat_map, kernel::flat_map);

    if let Some((lambda, input)) = &plan.reduce_by_key {
        let expr = lambda_expr(a, "reduceByKey", lambda);
        p.throughput(
            "kernel.reduce_by_key",
            "kernel.reduce_by_key_melems_s",
            "Melem/s",
            input.len(),
            || {
                black_box(
                    kernel::reduce_by_key(&expr, &[], input).expect("replay lambda evaluates"),
                );
            },
        );
    } else {
        p.out
            .put_not_applicable("kernel.reduce_by_key_melems_s", "Melem/s");
    }
    if let Some((build, probe)) = &plan.join {
        p.throughput(
            "kernel.join",
            "kernel.join_melems_s",
            "Melem/s",
            build.len() + probe.len(),
            || {
                black_box(kernel::join(build, probe));
            },
        );
    } else {
        p.out.put_not_applicable("kernel.join_melems_s", "Melem/s");
    }
    if let Some(bag) = &plan.distinct {
        p.throughput(
            "kernel.distinct",
            "kernel.distinct_melems_s",
            "Melem/s",
            bag.len(),
            || {
                black_box(kernel::distinct(bag));
            },
        );
    } else {
        p.out
            .put_not_applicable("kernel.distinct_melems_s", "Melem/s");
    }
}

// ---- batch -----------------------------------------------------------------------

fn batch_codec(a: &Artifacts, p: &mut Probe) {
    let bag = &a.plan.largest;
    let batch = Batch::from_slice(bag);
    let encoded = batch.encode();

    p.throughput(
        "batch.from_slice",
        "batch.from_slice_melems_s",
        "Melem/s",
        bag.len(),
        || {
            black_box(Batch::from_slice(bag));
        },
    );
    // `into_values` consumes its batch, so the copy is made inside the
    // pass and only its consumption is timed.
    let mut rates = Vec::new();
    p.passes("batch.into_values", bag.len(), || {
        let copy = batch.clone();
        let start = Instant::now();
        black_box(copy.into_values());
        rates.push(bag.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
    });
    p.out
        .put_median("batch.into_values_melems_s", &rates, "Melem/s");
    p.throughput(
        "batch.encoded_len",
        "batch.encoded_len_melems_s",
        "Melem/s",
        bag.len(),
        || {
            black_box(black_box(&batch).encoded_len());
        },
    );
    p.throughput(
        "batch.encode",
        "batch.encode_mb_s",
        "MB/s",
        encoded.len(),
        || {
            black_box(batch.encode());
        },
    );
    p.throughput(
        "batch.decode",
        "batch.decode_mb_s",
        "MB/s",
        encoded.len(),
        || {
            black_box(Batch::decode(&encoded).expect("own encoding decodes"));
        },
    );
    p.out.put_exact(
        "batch.bytes_per_elem",
        encoded.len() as f64 / bag.len().max(1) as f64,
        "B/elem",
    );
}

// ---- relay -----------------------------------------------------------------------

/// A transport that delivers nothing: the relay's own bookkeeping
/// (envelope, payload clone, unacked buffer, dedup table) is all that runs.
struct NullNet;

impl Net for NullNet {
    fn send(&mut self, _machine: u16, _msg: Msg, _bytes: u64) {}
    fn charge(&mut self, _ns: u64) {}
    fn schedule(&mut self, _delay_ns: u64, _machine: u16, _msg: Msg) {}
    fn now_ns(&mut self) -> u64 {
        0
    }
}

/// One window of 1 024 sequence numbers, each a `Msg::Data` of 1 024 of the
/// workload's elements: sent, accepted and acknowledged, then every
/// envelope delivered a second time.
fn relay(a: &Artifacts, p: &mut Probe) {
    const WINDOW: u64 = 1024;
    let payload: Batch = a.plan.largest.iter().cycle().take(1024).cloned().collect();
    let bytes = payload.encoded_len() as u64;
    let flow = FlowRegistry::new(2, a.graph.edges.len().max(1));
    let mem = MemRegistry::new(2, a.graph.nodes.len().max(1));
    let mut net = NullNet;
    let (mut send_ack, mut dup_accept) = (Vec::new(), Vec::new());

    // Building the window's messages is not the relay's work, so the two
    // halves are timed inside the pass.
    p.passes("relay.window", WINDOW as usize, || {
        let mut sender = Relay::new(0, 2, true);
        let mut receiver = Relay::new(1, 2, true);
        let msgs: Vec<Msg> = (0..WINDOW)
            .map(|_| Msg::Data {
                edge: 0,
                dst_inst: 1,
                bag_len: 1,
                batch: payload.clone(),
            })
            .collect();
        let start = Instant::now();
        for msg in msgs {
            sender.send_via(&mut net, 1, msg, bytes, &flow, &mem);
        }
        for seq in 0..WINDOW {
            assert!(receiver.accept(&mut net, 0, seq, &mem), "fresh envelope");
            sender.on_ack(1, seq, &flow, &mem);
        }
        send_ack.push(start.elapsed().as_secs_f64() / WINDOW as f64 * 1e9);

        let start = Instant::now();
        for seq in 0..WINDOW {
            black_box(receiver.accept(&mut net, 0, seq, &mem));
        }
        dup_accept.push(start.elapsed().as_secs_f64() / WINDOW as f64 * 1e9);
        assert_eq!(
            receiver.dups_dropped, WINDOW,
            "every replayed envelope is a duplicate"
        );
    });
    p.out.put_median("relay.send_ack_ns", &send_ack, "ns");
    p.out.put_median("relay.dup_accept_ns", &dup_accept, "ns");
}

// ---- sim -------------------------------------------------------------------------

/// Machines passing one token each around a ring: the simulator's event
/// loop with no Mitos code in it.
struct Ring {
    left: u64,
}

impl World for Ring {
    type Msg = ();

    fn handle(&mut self, dest: ActorId, _msg: (), ctx: &mut SimCtx<()>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(ActorId::new((dest.machine + 1) % ctx.machines(), 0), (), 8);
        }
    }
}

fn sim_scheduler(a: &Artifacts, p: &mut Probe) {
    const MESSAGES: u64 = 100_000;
    let cluster = SimConfig::with_machines(a.sim_machines);
    let mut delivered = 0;
    let samples = p.passes("sim.sched", MESSAGES as usize, || {
        let mut sim = Sim::new(cluster, Ring { left: MESSAGES });
        for m in 0..cluster.machines {
            sim.inject(ActorId::new(m, 0), ());
        }
        delivered = sim.run().messages;
    });
    let rates: Vec<f64> = samples.iter().map(|s| delivered as f64 / s / 1e6).collect();
    p.out.put_median("sim.sched_mmsgs_s", &rates, "Mmsg/s");
}

/// Nodes of the planned graph that are fused chains.
pub fn fused_chains(graph: &LogicalGraph) -> usize {
    graph
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Fused { .. }))
        .count()
}
