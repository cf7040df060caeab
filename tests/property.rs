//! Property-based testing: randomly generated imperative control-flow
//! programs must produce identical results on every engine, under
//! adversarial network jitter (the paper's Challenge 3), in pipelined and
//! non-pipelined modes.
//!
//! The generator maintains two invariants that make every generated
//! program valid and terminating: all variables are initialized up front
//! (so SSA never sees a maybe-undefined use), and loops are counter-bounded
//! with fresh counters.

use mitos::fs::InMemoryFs;
use mitos::lang::ast::{Lambda, Program, Stmt, SurfExpr};
use mitos::lang::expr::BinOp;
use mitos::sim::SimConfig;
use mitos::{Engine, EngineConfig, FaultPlan, ObsLevel, Run};
use proptest::prelude::*;
use std::sync::Arc;

const SCALARS: [&str; 3] = ["s0", "s1", "s2"];
const BAGS: [&str; 3] = ["b0", "b1", "b2"];

fn lit(v: i64) -> SurfExpr {
    SurfExpr::lit(v)
}

/// A scalar expression over the program's scalar variables (depth-bounded,
/// only overflow-safe operators).
fn arb_scalar_expr(depth: u32) -> BoxedStrategy<SurfExpr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(lit),
        (0usize..SCALARS.len()).prop_map(|i| SurfExpr::var(SCALARS[i])),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_scalar_expr(depth - 1);
    prop_oneof![
        3 => leaf,
        2 => (sub.clone(), sub.clone(), prop_oneof![
                Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)
            ])
            .prop_map(|(a, b, op)| SurfExpr::bin(op, a, b)),
        1 => (sub.clone(), sub).prop_map(|(a, b)| SurfExpr::IfExpr(
            Box::new(SurfExpr::bin(BinOp::Lt, a.clone(), b.clone())),
            Box::new(a),
            Box::new(b),
        )),
    ]
    .boxed()
}

/// A lambda body producing a normalized `(key % 5, value)` pair from a
/// tuple element `t`, optionally capturing a scalar variable.
fn arb_pair_lambda() -> BoxedStrategy<Lambda> {
    (any::<bool>(), 0usize..SCALARS.len(), -5i64..5)
        .prop_map(|(capture, s, c)| {
            let key = SurfExpr::bin(
                BinOp::Mod,
                SurfExpr::bin(BinOp::Add, SurfExpr::var("t").index(0), lit(c.abs() + 5)),
                lit(5),
            );
            let value = if capture {
                SurfExpr::bin(
                    BinOp::Add,
                    SurfExpr::var("t").index(1),
                    SurfExpr::var(SCALARS[s]),
                )
            } else {
                SurfExpr::bin(BinOp::Mul, SurfExpr::var("t").index(1), lit(c))
            };
            Lambda::unary("t", SurfExpr::Tuple(vec![key, value]))
        })
        .boxed()
}

/// A bag expression over the bag variables; always ends with a normalizing
/// map so every bag holds `(i64, i64)` pairs.
fn arb_bag_expr(depth: u32) -> BoxedStrategy<SurfExpr> {
    let var = (0usize..BAGS.len()).prop_map(|i| SurfExpr::var(BAGS[i]));
    if depth == 0 {
        return var.boxed();
    }
    let sub = arb_bag_expr(depth - 1);
    prop_oneof![
        2 => var,
        2 => (sub.clone(), arb_pair_lambda()).prop_map(|(b, l)| b.map(l)),
        1 => (sub.clone(), -10i64..10).prop_map(|(b, c)| {
            b.filter(Lambda::unary(
                "t",
                SurfExpr::bin(BinOp::Gt, SurfExpr::var("t").index(1), lit(c)),
            ))
        }),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.union(b)),
        1 => (sub.clone(), sub.clone(), arb_pair_lambda()).prop_map(|(a, b, l)| {
            // Joins widen rows; re-normalize to pairs.
            a.join(b).map(l)
        }),
        1 => sub.clone().prop_map(|b| {
            b.reduce_by_key(Lambda::binary(
                "a",
                "b",
                SurfExpr::bin(BinOp::Add, SurfExpr::var("a"), SurfExpr::var("b")),
            ))
        }),
        1 => sub.prop_map(|b| b.distinct()),
    ]
    .boxed()
}

/// One statement; `loop_depth` bounds `while` nesting, `counter` allocates
/// fresh loop counters.
fn arb_stmt(depth: u32, loop_depth: u32) -> BoxedStrategy<Vec<Stmt>> {
    let scalar_assign = (0usize..SCALARS.len(), arb_scalar_expr(2)).prop_map(|(i, e)| {
        vec![Stmt::Assign {
            name: Arc::from(SCALARS[i]),
            value: e,
        }]
    });
    let bag_assign = (0usize..BAGS.len(), arb_bag_expr(2)).prop_map(|(i, e)| {
        vec![Stmt::Assign {
            name: Arc::from(BAGS[i]),
            value: e,
        }]
    });
    let agg_assign =
        (0usize..SCALARS.len(), 0usize..BAGS.len(), any::<bool>()).prop_map(|(s, b, count)| {
            let bag = SurfExpr::var(BAGS[b]);
            let value = if count {
                bag.count()
            } else {
                bag.map(Lambda::unary("t", SurfExpr::var("t").index(1)))
                    .sum()
            };
            vec![Stmt::Assign {
                name: Arc::from(SCALARS[s]),
                value,
            }]
        });
    if depth == 0 {
        return prop_oneof![scalar_assign, bag_assign, agg_assign].boxed();
    }
    let body =
        prop::collection::vec(arb_stmt(depth - 1, loop_depth), 1..3).prop_map(|vs| vs.concat());
    let if_stmt = (
        arb_scalar_expr(1),
        arb_scalar_expr(1),
        body.clone(),
        body.clone(),
    )
        .prop_map(|(a, b, then_body, else_body)| {
            vec![Stmt::If {
                cond: SurfExpr::bin(BinOp::Le, a, b),
                then_body,
                else_body,
            }]
        });
    if loop_depth == 0 {
        return prop_oneof![3 => scalar_assign, 3 => bag_assign, 2 => agg_assign, 2 => if_stmt]
            .boxed();
    }
    let while_stmt = (1i64..4, body, 0u32..1000).prop_map(move |(n, mut stmts, uniq)| {
        // A fresh, bounded counter guarantees termination and SSA validity.
        let counter: Arc<str> = Arc::from(format!("w{loop_depth}_{uniq}"));
        stmts.push(Stmt::Assign {
            name: counter.clone(),
            value: SurfExpr::bin(BinOp::Add, SurfExpr::Var(counter.clone()), lit(1)),
        });
        vec![
            Stmt::Assign {
                name: counter.clone(),
                value: lit(0),
            },
            Stmt::While {
                cond: SurfExpr::bin(BinOp::Lt, SurfExpr::Var(counter), lit(n)),
                body: stmts,
            },
        ]
    });
    prop_oneof![
        3 => scalar_assign,
        3 => bag_assign,
        2 => agg_assign,
        2 => if_stmt,
        2 => while_stmt,
    ]
    .boxed()
}

/// A complete random program: initialization, a random body, and outputs
/// of every variable.
fn arb_program() -> BoxedStrategy<Program> {
    (
        prop::collection::vec((0i64..5, -10i64..10), 0..5),
        prop::collection::vec(arb_stmt(2, 2), 2..6),
    )
        .prop_map(|(b0_elems, stmts)| {
            let mut all = Vec::new();
            for (i, name) in SCALARS.iter().enumerate() {
                all.push(Stmt::Assign {
                    name: Arc::from(*name),
                    value: lit(i as i64 + 1),
                });
            }
            // b0 random, b1 fixed, b2 empty: exercise empty-bag paths.
            all.push(Stmt::Assign {
                name: Arc::from("b0"),
                value: SurfExpr::BagLit(
                    b0_elems
                        .iter()
                        .map(|(k, v)| SurfExpr::Tuple(vec![lit(*k), lit(*v)]))
                        .collect(),
                ),
            });
            all.push(Stmt::Assign {
                name: Arc::from("b1"),
                value: SurfExpr::BagLit(vec![
                    SurfExpr::Tuple(vec![lit(0), lit(7)]),
                    SurfExpr::Tuple(vec![lit(1), lit(-3)]),
                    SurfExpr::Tuple(vec![lit(2), lit(11)]),
                ]),
            });
            all.push(Stmt::Assign {
                name: Arc::from("b2"),
                value: SurfExpr::EmptyBag,
            });
            all.extend(stmts.concat());
            for name in SCALARS {
                all.push(Stmt::Output {
                    value: SurfExpr::var(name),
                    tag: Arc::from(name),
                });
            }
            for name in BAGS {
                all.push(Stmt::Output {
                    value: SurfExpr::var(name),
                    tag: Arc::from(name),
                });
            }
            Program::new(all)
        })
        .boxed()
}

/// A program whose lambdas mix nodes the column-at-a-time evaluator
/// computes (arithmetic, comparisons, projections, `len`/`abs`, a
/// list-literal `flatMap`, a captured loop variable) with nodes it hands
/// back to the row loop (`&&`, `if`, string concatenation), over a bag long
/// enough to form real columns — and, now and then, an empty one.
fn arb_mixed_lambda_program() -> BoxedStrategy<Program> {
    (prop::collection::vec(-40i64..400, 0..60), 1i64..6)
        .prop_map(|(raw, c)| {
            let elems: Vec<String> = raw.iter().map(i64::to_string).collect();
            let src = format!(
                r#"c = {c};
raw = bag({elems});
dec = raw.map(r => (r / 4, r % 4))
    .filter(e => e[1] != 3 && e[0] >= 0)
    .map(e => (e[0] % 7, if e[1] == 0 then e[0] else e[0] * c));
hist = dec.flatMap(e => [e[0], e[1]]).map(v => (v % 5, 1)).reduceByKey((a, b) => a + b);
named = dec.map(e => ("k" + e[0], abs(e[1] - 50))).filter(p => len(p[0]) > 1);
total = 0;
i = 0;
while (i < 3) {{
    total = total + hist.map(h => h[1] * c + i).sum();
    i = i + 1;
}}
output(total, "total");
output(hist, "hist");
output(named, "named");
"#,
                elems = elems.join(", ")
            );
            mitos::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"))
        })
        .boxed()
}

/// The input of the plan-level "never changes results" properties: mostly
/// random programs, plus the mixed-lambda one.
fn arb_program_or_mixed_lambdas() -> BoxedStrategy<Program> {
    prop_oneof![3 => arb_program(), 1 => arb_mixed_lambda_program()].boxed()
}

fn engines_agree(program: &Program, machines: u16, seed: u64) {
    let src = program.to_string();
    let func = match mitos::ir::compile(program) {
        Ok(f) => f,
        Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
    };
    let fs = InMemoryFs::new();
    let reference = Run::new(&func)
        .engine(Engine::Reference)
        .machines(1)
        .execute(&fs)
        .unwrap_or_else(|e| panic!("reference: {e}\n{src}"));
    for engine in [
        Engine::Mitos,
        Engine::MitosNoPipelining,
        Engine::Spark,
        Engine::MitosThreads,
    ] {
        let fs = InMemoryFs::new();
        let mut cluster = SimConfig::with_machines(machines);
        cluster.seed = seed;
        cluster.jitter_pct = 35; // adversarial delays (Challenge 3)
        let outcome = Run::new(&func)
            .engine(engine)
            .cluster(cluster)
            .execute(&fs)
            .unwrap_or_else(|e| panic!("{engine}: {e}\n{src}"));
        assert_eq!(
            outcome.outputs, reference.outputs,
            "{engine} diverged on:\n{src}"
        );
        // OS scheduling can interleave threads arbitrarily, but the
        // reconstructed execution path must still be the sequential one.
        assert_eq!(outcome.path, reference.path, "{engine} path on:\n{src}");
    }
}

/// Runs `func` on `engine` with the control-plane template cache switched
/// per `templates`, under adversarial jitter, returning the outcome.
fn run_with_templates(
    func: &mitos::ir::FuncIr,
    engine: Engine,
    machines: u16,
    seed: u64,
    templates: bool,
    src: &str,
) -> mitos::Outcome {
    let fs = InMemoryFs::new();
    let mut cluster = SimConfig::with_machines(machines);
    cluster.seed = seed;
    cluster.jitter_pct = 35;
    Run::new(func)
        .engine(engine)
        .cluster(cluster)
        .config(EngineConfig::new().with_templates(templates))
        .execute(&fs)
        .unwrap_or_else(|e| panic!("{engine} (templates={templates}): {e}\n{src}"))
}

/// Runs `func` on `engine` with chain fusion switched per `fusion`, under
/// adversarial jitter, returning the outcome.
fn run_with_fusion(
    func: &mitos::ir::FuncIr,
    engine: Engine,
    machines: u16,
    seed: u64,
    fusion: bool,
    src: &str,
) -> mitos::Outcome {
    let fs = InMemoryFs::new();
    let mut cluster = SimConfig::with_machines(machines);
    cluster.seed = seed;
    cluster.jitter_pct = 35;
    Run::new(func)
        .engine(engine)
        .cluster(cluster)
        .config(EngineConfig::new().with_fusion(fusion))
        .execute(&fs)
        .unwrap_or_else(|e| panic!("{engine} (fusion={fusion}): {e}\n{src}"))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// The headline property: random imperative control flow executes
    /// identically on the single-cyclic-dataflow engine (with and without
    /// pipelining), the driver-loop engine, and the sequential reference.
    #[test]
    fn random_programs_agree_across_engines(
        program in arb_program(),
        machines in 1u16..5,
        seed in 0u64..1000,
    ) {
        engines_agree(&program, machines, seed);
    }

    /// The combiner pass (map-side pre-aggregation for reduceByKey) never
    /// changes results — the generator's combiners are all associative and
    /// commutative, matching the pass's contract.
    #[test]
    fn combiner_pass_preserves_semantics(program in arb_program(), seed in 0u64..500) {
        let src = program.to_string();
        let func = mitos::ir::compile(&program)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        let optimized = mitos::ir::passes::insert_combiners(&func);
        mitos::ir::validate(&optimized).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let fs = InMemoryFs::new();
        let reference = Run::new(&func)
            .engine(Engine::Reference)
            .machines(1)
            .execute(&fs)
            .unwrap();
        let fs = InMemoryFs::new();
        let mut cluster = SimConfig::with_machines(3);
        cluster.seed = seed;
        let outcome = Run::new(&optimized)
            .engine(Engine::Mitos)
            .cluster(cluster)
            .execute(&fs)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        prop_assert_eq!(outcome.outputs, reference.outputs, "{}", src);
    }

    /// Operator chain fusion is a pure plan transformation: every random
    /// program produces identical outputs and the identical control-flow
    /// path with fusion on and off, on both the simulated and the
    /// thread-backed engine, under adversarial network jitter.
    #[test]
    fn fusion_never_changes_results(
        program in arb_program_or_mixed_lambdas(),
        machines in 1u16..5,
        seed in 0u64..1000,
    ) {
        let src = program.to_string();
        let func = mitos::ir::compile(&program)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        for engine in [Engine::Mitos, Engine::MitosThreads] {
            let fused = run_with_fusion(&func, engine, machines, seed, true, &src);
            let unfused = run_with_fusion(&func, engine, machines, seed, false, &src);
            prop_assert_eq!(
                &fused.outputs, &unfused.outputs,
                "{} outputs diverged under fusion on:\n{}", engine, src
            );
            prop_assert_eq!(
                &fused.path, &unfused.path,
                "{} path diverged under fusion on:\n{}", engine, src
            );
        }
    }

    /// The execution-template cache is a pure control-plane memoization:
    /// every random program produces identical outputs, the identical
    /// control-flow path, and the identical data-plane message count with
    /// templates on and off, on both the simulated and the thread-backed
    /// engine, under adversarial network jitter. Replayed decisions must be
    /// indistinguishable from recomputed ones.
    #[test]
    fn templates_never_change_results(
        program in arb_program(),
        machines in 1u16..5,
        seed in 0u64..1000,
    ) {
        let src = program.to_string();
        let func = mitos::ir::compile(&program)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        for engine in [Engine::Mitos, Engine::MitosThreads] {
            let on = run_with_templates(&func, engine, machines, seed, true, &src);
            let off = run_with_templates(&func, engine, machines, seed, false, &src);
            prop_assert_eq!(
                &on.outputs, &off.outputs,
                "{} outputs diverged under templates on:\n{}", engine, src
            );
            prop_assert_eq!(
                &on.path, &off.path,
                "{} path diverged under templates on:\n{}", engine, src
            );
            prop_assert_eq!(
                on.data_messages, off.data_messages,
                "{} data-plane message count diverged under templates on:\n{}",
                engine, src
            );
            // The off-run must not have touched the cache at all.
            prop_assert_eq!(
                (off.template_hits, off.template_misses, off.template_invalidations),
                (0, 0, 0),
                "{} templates-off run recorded cache activity on:\n{}", engine, src
            );
        }
    }

    /// Parse/print round-trip: pretty-printing a generated program and
    /// re-parsing it yields the same AST.
    #[test]
    fn program_display_round_trips(program in arb_program()) {
        let src = program.to_string();
        let reparsed = mitos::lang::parse(&src)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        prop_assert_eq!(program, reparsed);
    }

    /// The batch size is a pure performance knob: one element per message
    /// (degenerate, no batching) and a batch larger than any bag in the
    /// run produce identical outputs and the identical control-flow path
    /// on both Mitos drivers, under adversarial network jitter. Message
    /// counts and wire bytes legitimately differ; results never do.
    #[test]
    fn batch_size_never_changes_results(
        program in arb_program_or_mixed_lambdas(),
        machines in 1u16..5,
        seed in 0u64..1000,
    ) {
        let src = program.to_string();
        let func = mitos::ir::compile(&program)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        for engine in [Engine::Mitos, Engine::MitosThreads] {
            let run_with_batch = |elems: usize| {
                let fs = InMemoryFs::new();
                let mut cluster = SimConfig::with_machines(machines);
                cluster.seed = seed;
                cluster.jitter_pct = 35;
                Run::new(&func)
                    .engine(engine)
                    .cluster(cluster)
                    .batch_elems(elems)
                    .execute(&fs)
                    .unwrap_or_else(|e| panic!("{engine} (batch_elems={elems}): {e}\n{src}"))
            };
            let unbatched = run_with_batch(1);
            let batched = run_with_batch(1 << 20);
            prop_assert_eq!(
                &batched.outputs, &unbatched.outputs,
                "{} outputs diverged across batch sizes on:\n{}", engine, src
            );
            prop_assert_eq!(
                &batched.path, &unbatched.path,
                "{} path diverged across batch sizes on:\n{}", engine, src
            );
        }
    }
}

/// A random seeded [`FaultPlan`]: moderate per-message drop, duplication
/// and reordering probabilities (drops stay below the level where
/// retransmission rounds dominate the wall clock), always with the
/// at-least-once recovery protocol on.
fn arb_fault_plan() -> BoxedStrategy<FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.25,
        0.0f64..0.4,
        0.0f64..0.5,
        50_000u64..1_000_000,
    )
        .prop_map(|(seed, drop, dup, reorder, delay)| {
            FaultPlan::new()
                .with_seed(seed)
                .with_drop(drop)
                .with_duplicate(dup)
                .with_reorder(reorder)
                .with_reorder_delay_ns(delay)
        })
        .boxed()
}

proptest! {
    // The chaos gate runs more cases than the equivalence suites above:
    // each case exercises BOTH Mitos drivers (simulator and real threads)
    // under an independent random fault schedule.
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// The chaos property (this PR's gate): a random program under a
    /// random seeded fault plan — message drops recovered by
    /// retransmission, duplicates deduplicated, reorderings tolerated —
    /// produces outputs and a final execution path bit-identical to the
    /// same program's fault-free run, on the simulator and on real
    /// threads. Both runs trace, and the faulted run's causal span trees
    /// must be isomorphic to the fault-free run's: retransmitted decision
    /// broadcasts collapse into the one logical receipt span (annotated
    /// with the send-attempt count), so the tree *shape* — the multiset of
    /// root-to-node label paths — is identical, and no span is orphaned.
    #[test]
    fn chaos_faults_never_change_results(
        program in arb_program(),
        machines in 2u16..5,
        seed in 0u64..1000,
        plan in arb_fault_plan(),
    ) {
        let src = program.to_string();
        let func = mitos::ir::compile(&program)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut cluster = SimConfig::with_machines(machines);
        cluster.seed = seed;
        cluster.jitter_pct = 35;
        for engine in [Engine::Mitos, Engine::MitosThreads] {
            let fs = InMemoryFs::new();
            let clean = Run::new(&func)
                .engine(engine)
                .cluster(cluster)
                .obs(ObsLevel::Trace)
                .execute(&fs)
                .unwrap_or_else(|e| panic!("{engine} fault-free: {e}\n{src}"));
            let fs = InMemoryFs::new();
            let faulted = Run::new(&func)
                .engine(engine)
                .cluster(cluster)
                .obs(ObsLevel::Trace)
                .faults(plan.clone())
                .execute(&fs)
                .unwrap_or_else(|e| panic!(
                    "{engine} under {}: {e}\n{src}", plan.summary()
                ));
            prop_assert_eq!(
                &faulted.outputs, &clean.outputs,
                "{} outputs diverged under {}:\n{}", engine, plan.summary(), src
            );
            prop_assert_eq!(
                &faulted.path, &clean.path,
                "{} path diverged under {}:\n{}", engine, plan.summary(), src
            );

            let clean_trees = clean.trace_trees().unwrap();
            let faulted_trees = faulted.trace_trees().unwrap();
            prop_assert_eq!(
                faulted_trees.len(), clean_trees.len(),
                "{} step-tree count diverged under {}:\n{}",
                engine, plan.summary(), src
            );
            let mut retry_annotations = 0u64;
            for (ct, ft) in clean_trees.iter().zip(&faulted_trees) {
                prop_assert!(
                    ct.orphans.is_empty(),
                    "{engine} fault-free step {} orphaned {:?}:\n{src}",
                    ct.step, ct.orphans
                );
                prop_assert!(
                    ft.orphans.is_empty(),
                    "{engine} step {} under {} orphaned {:?}:\n{src}",
                    ft.step, plan.summary(), ft.orphans
                );
                prop_assert_eq!(
                    ft.shape(), ct.shape(),
                    "{} step {} tree shape diverged under {}:\n{}",
                    engine, ft.step, plan.summary(), src
                );
                retry_annotations += ft
                    .spans
                    .iter()
                    .map(|s| u64::from(s.attempts.saturating_sub(1)))
                    .sum::<u64>();
            }
            // Every decision-broadcast retransmission the relay performed
            // is accounted for as an extra attempt on exactly one receipt
            // span — collapsed, not duplicated.
            let decision_retries = faulted
                .obs
                .as_ref()
                .unwrap()
                .events
                .iter()
                .filter(|e| matches!(
                    e.kind,
                    mitos::core::obs::EventKind::RetransmitSent { step, .. }
                        if step != u32::MAX
                ))
                .count() as u64;
            prop_assert_eq!(
                retry_annotations, decision_retries,
                "{} attempt annotations diverged from decision retransmits under {}:\n{}",
                engine, plan.summary(), src
            );

            // Data-plane flow accounting must reconcile exactly with the
            // post-dedup delivery counter — fault-free and under chaos —
            // and recovered retransmissions must never double-count: the
            // faulted run's per-edge tallies are bit-identical to the
            // fault-free run's, with only the retransmit counters free to
            // differ.
            let clean_flow = clean.flow().expect("Mitos engines account flow");
            let faulted_flow = faulted.flow().expect("Mitos engines account flow");
            for (run, outcome, flow) in [
                ("fault-free", &clean, clean_flow),
                ("faulted", &faulted, faulted_flow),
            ] {
                prop_assert_eq!(
                    flow.messages_in_total(), outcome.data_messages,
                    "{} {} run: flow messages != data_messages under {}:\n{}",
                    engine, run, plan.summary(), src
                );
                for ef in &flow.edges {
                    prop_assert_eq!(
                        ef.elems_in(), ef.elems_out(),
                        "{} {} run: edge {} delivered != sent elements under {}:\n{}",
                        engine, run, ef.edge, plan.summary(), src
                    );
                    prop_assert_eq!(
                        ef.msgs_in(), ef.msgs_out(),
                        "{} {} run: edge {} delivered != sent messages under {}:\n{}",
                        engine, run, ef.edge, plan.summary(), src
                    );
                }
            }
            // Message and byte counts may chunk differently when fault
            // delays shift flush boundaries; the element totals are the
            // timing-independent invariant.
            for (cf, ff) in clean_flow.edges.iter().zip(&faulted_flow.edges) {
                prop_assert_eq!(
                    cf.elems_in(), ff.elems_in(),
                    "{} edge {} element tally diverged under faults {}:\n{}",
                    engine, cf.edge, plan.summary(), src
                );
            }

            // The leak detector under chaos: at quiescence the relay's
            // retransmit buffers have fully acked and the dedup tables
            // have compacted to their watermarks, on both drivers — so
            // every transient class drains to zero and only the deliberate
            // hoist cache may stay resident. Fault-free runs must report
            // leak-free outright.
            for (run, outcome) in [("fault-free", &clean), ("faulted", &faulted)] {
                let mem = outcome.mem().expect("Mitos engines account residency");
                for class in [
                    mitos::core::MemClass::RelayBuf,
                    mitos::core::MemClass::DedupTable,
                    mitos::core::MemClass::AwaitingInputs,
                    mitos::core::MemClass::AwaitingBarrier,
                ] {
                    let c = mem.class_total(class);
                    prop_assert_eq!(
                        (c.live, c.bytes), (0, 0),
                        "{} {} run: {} retained at quiescence under {}:\n{}",
                        engine, run, class.label(), plan.summary(), src
                    );
                }
                prop_assert!(
                    mem.leak_free(),
                    "{engine} {run} run not leak-free under {}: {:?}\n{src}",
                    plan.summary(), mem.retained_lines()
                );
            }
        }
    }
}
