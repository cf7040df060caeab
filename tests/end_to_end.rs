//! Cross-engine end-to-end tests: every engine must produce the reference
//! interpreter's results on the paper's workloads and on control-flow
//! stress programs.

use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::workloads::{
    generate_page_types, generate_visit_logs, visit_count_program, VisitCountSpec,
};
use mitos::{compile, Driver, Engine, EngineConfig, FaultPlan, Run};

/// The three baselines, and Mitos with all optimizations, without loop
/// pipelining (Fig. 9) and without loop-invariant hoisting (Fig. 8).
fn all_engines() -> [(Engine, EngineConfig); 6] {
    let on = EngineConfig::new();
    [
        (Engine::Mitos, on.clone()),
        (Engine::Mitos, on.clone().with_pipelining(false)),
        (Engine::Mitos, on.clone().with_hoisting(false)),
        (Engine::FlinkNative, on.clone()),
        (Engine::FlinkSeparateJobs, on.clone()),
        (Engine::Spark, on),
    ]
}

/// Names one entry of [`all_engines`] in assertion messages.
fn label(engine: Engine, config: &EngineConfig) -> String {
    format!(
        "{engine} (pipelined={}, hoisting={})",
        config.pipelined, config.hoisting
    )
}

/// Runs `src` on every engine and asserts agreement with the reference.
fn check_all(src: &str, machines: u16, setup: &dyn Fn(&InMemoryFs)) {
    let func = compile(src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    let ref_fs = InMemoryFs::new();
    setup(&ref_fs);
    let reference = Run::new(&func)
        .engine(Engine::Reference)
        .machines(1)
        .execute(&ref_fs)
        .expect("reference");
    for (engine, config) in all_engines() {
        let what = label(engine, &config);
        let fs = InMemoryFs::new();
        setup(&fs);
        let outcome = Run::new(&func)
            .engine(engine)
            .machines(machines)
            .config(config)
            .execute(&fs)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(outcome.outputs, reference.outputs, "outputs of {what}");
        assert_eq!(outcome.path, reference.path, "path of {what}");
        assert_eq!(fs.snapshot(), ref_fs.snapshot(), "files of {what}");
        assert!(outcome.elapsed_ns > 0, "{what} must take virtual time");
    }
}

#[test]
fn visit_count_plain() {
    let spec = VisitCountSpec {
        days: 5,
        visits_per_day: 80,
        pages: 15,
        seed: 3,
    };
    check_all(&visit_count_program(5, false), 4, &|fs| {
        generate_visit_logs(fs, &spec)
    });
}

#[test]
fn visit_count_with_loop_invariant_join() {
    let spec = VisitCountSpec {
        days: 4,
        visits_per_day: 50,
        pages: 12,
        seed: 8,
    };
    check_all(&visit_count_program(4, true), 3, &|fs| {
        generate_visit_logs(fs, &spec);
        generate_page_types(fs, 12, 3, 1);
    });
}

#[test]
fn branchy_program_with_nested_loops() {
    check_all(
        r#"
        total = 0;
        i = 0;
        while (i < 3) {
            acc = empty;
            j = 0;
            while (j < 2) {
                batch = bag((j, i * 10 + j), (j + 1, i));
                acc = acc union batch;
                j = j + 1;
            }
            if (i % 2 == 0) {
                total = total + acc.count();
            } else {
                total = total - acc.map(t => t[1]).sum();
            }
            i = i + 1;
        }
        output(total, "total");
        "#,
        3,
        &|_| {},
    );
}

#[test]
fn figure_4b_challenge_3_pattern() {
    // The ABDACD pattern from the paper's Challenge 3: different branches
    // define x and y; the join must match same-iteration bags even when
    // processing is delayed irregularly (jitter is on by default).
    check_all(
        r#"
        matched = 0;
        i = 0;
        while (i < 4) {
            if (i % 2 == 0) {
                x = bag((1, i * 100));
                y = bag((1, i * 100));
            } else {
                x = bag((1, i * 1000));
                y = bag((1, i * 1000));
            }
            z = (x join y).filter(t => t[1] == t[2]);
            matched = matched + z.count();
            i = i + 1;
        }
        output(matched, "matched");
        "#,
        4,
        &|_| {},
    );
}

#[test]
fn integer_aggregations_agree_everywhere() {
    check_all(
        r#"
        data = bag(5, 3, 8, 1, 9, 2, 7);
        mx = data.reduce((a, b) => max(a, b));
        mn = data.reduce((a, b) => min(a, b));
        output(mx, "max");
        output(mn, "min");
        output(data.count(), "n");
        output(data.sum(), "sum");
        "#,
        3,
        &|_| {},
    );
}

#[test]
fn empty_bags_flow_through_everything() {
    check_all(
        r#"
        e = empty;
        f = e.map(x => x + 1).filter(x => x > 0);
        g = f join f;
        output(g.count(), "n");
        output(e.sum(), "zero");
        "#,
        2,
        &|_| {},
    );
}

#[test]
fn distinct_union_flatmap_cross() {
    check_all(
        r#"
        a = bag(1, 1, 2, 3, 3).distinct();
        b = a.flatMap(x => [x, x * 10]);
        c = bag(7, 8);
        d = b cross c;
        out = d.map(p => p[0] * 1000 + p[1]);
        output(out.count(), "n");
        output(out.sum(), "sum");
        "#,
        3,
        &|_| {},
    );
}

/// A bag of ints, strings, tuples of differing arity and a list is mostly
/// `Run::Rows`: the lambdas take the per-element fallback on both drivers.
#[test]
fn heterogeneous_bag_takes_the_row_fallback_through_the_engine() {
    let src = r#"xs = readFile("mixed"); output(xs.map(x => (x, 1)), "pairs");
        output(xs.filter(x => x != 2).distinct(), "kept");"#;
    let func = compile(src).unwrap();
    let mixed = (0..40i64).map(|i| match i % 5 {
        0 => Value::I64(i % 3),
        1 => Value::str(format!("s{}", i % 4)),
        2 => Value::tuple([Value::I64(i % 2), Value::str("t")]),
        3 => Value::tuple([Value::I64(i), Value::F64(0.5), Value::Bool(true)]),
        _ => Value::list([Value::I64(i % 2), Value::Unit]),
    });
    let run = |engine: Engine, driver: Driver| {
        let fs = InMemoryFs::new();
        fs.put("mixed", mixed.clone().collect());
        let job = Run::new(&func).engine(engine).driver(driver).machines(3);
        job.execute(&fs)
            .unwrap_or_else(|e| panic!("{engine} {driver:?}: {e}"))
    };
    // `Engine::Reference` is `mitos_ir::interpret` with sorted outputs.
    let reference = run(Engine::Reference, Driver::Sim);
    assert_eq!(reference.outputs["kept"].len(), 18);
    for driver in [Driver::Sim, Driver::Threads] {
        let outcome = run(Engine::Mitos, driver);
        assert_eq!(outcome.outputs, reference.outputs, "outputs on {driver:?}");
        assert_eq!(outcome.path, reference.path, "path on {driver:?}");
    }
}

/// One error text per failure: malformed `reduceByKey` input and an empty
/// `reduce` without an initial value are reported by `mitos_ir::kernel`
/// alone, and the interpreter and both drivers pass its message on as is.
#[test]
fn keyed_operator_failures_carry_the_kernel_message_everywhere() {
    let cases = [
        (
            r#"output(bag((1, 2, 3)).reduceByKey((a, b) => a + b), "sums");"#,
            "reduceByKey expects (key, value) tuples, got (1, 2, 3)",
        ),
        (
            r#"output(bag(1, 2).filter(x => x > 5).reduce((a, b) => a + b), "r");"#,
            "reduce on an empty bag with no initial value",
        ),
    ];
    for (src, want) in cases {
        let func = compile(src).unwrap();
        for (engine, driver) in [
            (Engine::Reference, Driver::Sim),
            (Engine::Mitos, Driver::Sim),
            (Engine::Mitos, Driver::Threads),
        ] {
            let job = Run::new(&func).engine(engine).driver(driver).machines(2);
            let err = job.execute(&InMemoryFs::new()).expect_err(src);
            assert_eq!(err.message, want, "{engine} {driver:?}");
        }
    }
}

#[test]
fn deeply_nested_control_flow() {
    check_all(
        r#"
        s = 0;
        a = 0;
        while (a < 2) {
            b = 0;
            while (b < 2) {
                if (a == b) {
                    c = 0;
                    while (c < 2) {
                        s = s + 1;
                        c = c + 1;
                    }
                } else {
                    s = s + 10;
                }
                b = b + 1;
            }
            a = a + 1;
        }
        output(s, "s");
        "#,
        2,
        &|_| {},
    );
}

#[test]
fn file_effects_inside_conditionals() {
    check_all(
        r#"
        for d = 1 to 4 {
            data = readFile("in" + d).map(x => (x % 3, 1)).reduceByKey((a, b) => a + b);
            if (d % 2 == 0) {
                writeFile(data, "counts" + d);
            }
        }
        "#,
        3,
        &|fs| {
            for d in 1..=4i64 {
                fs.put(
                    format!("in{d}"),
                    (0..30).map(|i| Value::I64(i * d)).collect::<Vec<_>>(),
                );
            }
        },
    );
}

#[test]
fn engine_enum_displays_paper_labels() {
    let labels = [
        (Engine::Mitos, "Mitos"),
        (Engine::FlinkNative, "Flink (native iterations)"),
        (Engine::FlinkSeparateJobs, "Flink (separate jobs)"),
        (Engine::Spark, "Spark"),
        (Engine::Reference, "Reference interpreter"),
    ];
    for (engine, label) in labels {
        assert_eq!(engine.to_string(), label);
    }
}

/// The cost model in [`EngineConfig`] reaches every simulated baseline:
/// `Run` times each one exactly as its entry point does when handed the
/// same cost.
#[test]
fn baselines_run_under_the_configured_cost_model() {
    use mitos::baselines::{
        flink_driver_config, run_driver_loop, run_flink_native_with, DriverConfig,
    };
    let spec = VisitCountSpec {
        days: 3,
        visits_per_day: 40,
        pages: 10,
        seed: 4,
    };
    let func = compile(&visit_count_program(3, false)).unwrap();
    let cost = mitos::core::CostModel {
        record_weight: 50,
        per_insert_ns: 900,
        ..Default::default()
    };
    let cluster = mitos::sim::SimConfig::with_machines(3);
    let fs = || {
        let fs = InMemoryFs::new();
        generate_visit_logs(&fs, &spec);
        fs
    };
    let driver_loop = |base: DriverConfig| {
        let config = DriverConfig { cost, ..base };
        run_driver_loop(&func, &fs(), config, cluster)
            .unwrap()
            .sim
            .end_time
    };
    let direct = [
        (Engine::Spark, driver_loop(DriverConfig::default())),
        (
            Engine::FlinkSeparateJobs,
            driver_loop(flink_driver_config()),
        ),
        (
            Engine::FlinkNative,
            run_flink_native_with(&func, &fs(), cluster, cost)
                .unwrap()
                .sim
                .end_time,
        ),
    ];
    for (engine, direct_ns) in direct {
        let via_run = Run::new(&func)
            .engine(engine)
            .cluster(cluster)
            .config(EngineConfig::new().with_cost(cost))
            .execute(&fs())
            .unwrap();
        let default_cost = Run::new(&func)
            .engine(engine)
            .cluster(cluster)
            .execute(&fs())
            .unwrap();
        assert_eq!(via_run.elapsed_ns, direct_ns, "{engine}");
        assert_ne!(
            via_run.elapsed_ns, default_cost.elapsed_ns,
            "{engine} ignored the cost"
        );
    }
}

#[test]
fn thread_driver_is_mitos_only() {
    let func = compile(r#"output(bag(1, 2).sum(), "s");"#).unwrap();
    for engine in [Engine::Spark, Engine::Reference] {
        let job = Run::new(&func).engine(engine).driver(Driver::Threads);
        let err = job.execute(&InMemoryFs::new()).expect_err("threads");
        assert!(
            err.message.contains("requires a Mitos engine"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn zero_iteration_loop() {
    // The loop body never runs: header phis must select the init values
    // and body-block operators must never be scheduled.
    check_all(
        r#"
        s = 100;
        i = 5;
        while (i < 5) {
            s = s + 1;
            i = i + 1;
        }
        output(s, "s");
        output(i, "i");
        "#,
        3,
        &|_| {},
    );
}

#[test]
fn loop_running_exactly_once() {
    check_all(
        r#"
        b = empty;
        i = 0;
        do {
            b = bag((i, 1));
            i = i + 1;
        } while (i < 1);
        output(b, "b");
        "#,
        2,
        &|_| {},
    );
}

#[test]
fn consecutive_loops_share_variables() {
    check_all(
        r#"
        s = 0;
        for i = 1 to 3 { s = s + i; }
        for j = 1 to 2 { s = s * j; }
        output(s, "s");
        "#,
        2,
        &|_| {},
    );
}

/// The paper-scale loop: 365 days. Validates long-loop behaviour (path
/// growth, loop-state garbage collection) end to end. Run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "paper-scale stress test (~20s)"]
fn visit_count_365_days() {
    let spec = VisitCountSpec {
        days: 365,
        visits_per_day: 100,
        pages: 30,
        seed: 13,
    };
    let src = visit_count_program(365, false);
    let func = compile(&src).unwrap();
    let ref_fs = InMemoryFs::new();
    generate_visit_logs(&ref_fs, &spec);
    let reference = Run::new(&func)
        .engine(Engine::Reference)
        .machines(1)
        .execute(&ref_fs)
        .unwrap();
    let fs = InMemoryFs::new();
    generate_visit_logs(&fs, &spec);
    let outcome = Run::new(&func)
        .engine(Engine::Mitos)
        .machines(8)
        .execute(&fs)
        .unwrap();
    assert_eq!(outcome.path.len(), reference.path.len());
    assert_eq!(fs.snapshot(), ref_fs.snapshot());
    // 364 diff files were written.
    assert!(fs.exists("diff365"));
    assert!(!fs.exists("diff1"));
}

/// The paper's Sec. 2 escalation: "we could replace the computation of
/// visit counts with a more complex computation that itself involves a
/// loop, such as PageRank. This would result in having nested loops."
/// Flink can express neither the outer nor the nested loop natively; Mitos
/// runs the whole thing as one dataflow job.
#[test]
fn pagerank_inside_the_daily_loop() {
    let src = r#"
        edges = readFile("edges");
        outDeg = edges.map(e => (e[0], 1)).reduceByKey((a, b) => a + b);
        withDeg = (edges join outDeg).map(t => (t[0], t[1], t[2]));
        vertices = edges.flatMap(e => [e[0], e[1]]).distinct();
        for day = 1 to 3 {
            visits = readFile("visits" + day);
            seedBoost = visits.map(v => (v, 1)).reduceByKey((a, b) => a + b);
            ranks = vertices.map(v => (v, 1.0));
            for iter = 1 to 4 {
                contribs = (withDeg join ranks).map(t => (t[1], t[3] / t[2]));
                ranks = (contribs union vertices.map(v => (v, 0.0)))
                    .reduceByKey((a, b) => a + b)
                    .map(t => (t[0], 0.15 + 0.85 * t[1]));
            }
            hot = (ranks join seedBoost).map(t => (t[0], t[1] * t[2]));
            writeFile(hot, "hot" + day);
        }
    "#;
    let func = compile(src).unwrap();
    // Flink cannot express this natively (nested loops + file IO inside).
    assert_eq!(
        mitos::baselines::flink_mode(&func),
        mitos::baselines::FlinkMode::SeparateJobs
    );
    let setup = |fs: &InMemoryFs| {
        let pair = |a: i64, b: i64| Value::tuple([Value::I64(a), Value::I64(b)]);
        fs.put(
            "edges",
            vec![pair(0, 1), pair(1, 2), pair(2, 0), pair(2, 3), pair(3, 0)],
        );
        for d in 1..=3i64 {
            fs.put(
                format!("visits{d}"),
                (0..10).map(|i| Value::I64((i * d) % 4)).collect::<Vec<_>>(),
            );
        }
    };
    let ref_fs = InMemoryFs::new();
    setup(&ref_fs);
    let reference = Run::new(&func)
        .engine(Engine::Reference)
        .machines(1)
        .execute(&ref_fs)
        .unwrap();
    for (system, pipelined) in [
        (Engine::Mitos, true),
        (Engine::Mitos, false),
        (Engine::Spark, true),
    ] {
        let engine = format!("{system} (pipelined={pipelined})");
        let fs = InMemoryFs::new();
        setup(&fs);
        let outcome = Run::new(&func)
            .engine(system)
            .machines(3)
            .config(EngineConfig::new().with_pipelining(pipelined))
            .execute(&fs)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(outcome.path, reference.path, "{engine}");
        // Float folds differ in order across partitions; compare the file
        // KEY SETS exactly and rank mass approximately.
        for d in 1..=3 {
            let name = format!("hot{d}");
            let ours = fs.read(&name).unwrap();
            let theirs = ref_fs.read(&name).unwrap();
            let keys = |rows: &[Value]| -> std::collections::BTreeSet<i64> {
                rows.iter()
                    .map(|r| r.field(0).unwrap().as_i64().unwrap())
                    .collect()
            };
            assert_eq!(keys(&ours), keys(&theirs), "{engine} {name}");
            let mass = |rows: &[Value]| -> f64 {
                rows.iter()
                    .map(|r| r.field(1).unwrap().as_f64().unwrap())
                    .sum()
            };
            assert!(
                (mass(&ours) - mass(&theirs)).abs() < 1e-9,
                "{engine} {name} mass"
            );
        }
    }
}

#[test]
fn min_max_aggregation_sugar() {
    check_all(
        r#"
        data = bag(5, 3, 8, 1, 9);
        lo = data.min();
        hi = data.max();
        spread = hi - lo;
        output(lo, "lo");
        output(hi, "hi");
        output(spread, "spread");
        "#,
        3,
        &|_| {},
    );
}

/// A runtime deadlock ends the same way on both drivers: one reason line,
/// one diagnosis of the same shape, and the same stalled worker states.
/// (The rest of the message renders the flight recorder, whose timestamps
/// are virtual under the simulator and wall-clock under threads.)
#[test]
fn a_deadlock_is_reported_identically_on_both_drivers() {
    let func = compile(include_str!("../examples/nested_loops.mt")).unwrap();
    let config = EngineConfig::new().with_faults(FaultPlan::new().with_withhold_decisions(true));
    let stalls: Vec<_> = [Driver::Sim, Driver::Threads]
        .into_iter()
        .map(|driver| {
            let err = Run::new(&func)
                .driver(driver)
                .machines(3)
                .config(config.clone())
                .execute(&InMemoryFs::new())
                .expect_err("withheld decisions deadlock the run");
            let report = err.stall.expect("a deadlock carries a StallReport");
            assert_eq!(report.workers.len(), 3, "{driver:?}");
            let fault = report.fault.as_deref().unwrap_or_default();
            assert!(
                fault.contains("decision broadcasts withheld"),
                "{driver:?}: {fault}"
            );
            assert!(!report.flight.is_empty(), "{driver:?}: no flight dump");
            let reason = err.message.lines().next().unwrap_or_default().to_string();
            (reason, report.workers)
        })
        .collect();
    assert_eq!(
        stalls[0].0,
        "run quiesced before the program exited (runtime deadlock)"
    );
    assert_eq!(stalls[0], stalls[1]);
}

/// Every layout the columnar data plane has to keep byte-exact, end to
/// end: a tuple field that turns from i64 to f64 mid-bag (a mixed column),
/// bare values beside tuples, `flatMap` lists mixing both, and a 300-field
/// tuple (too wide for a column run). They cross a hash edge (`distinct`),
/// a broadcast edge (`cross`'s collected side) and conditional edges whose
/// bags wait in undecided buffers, on both drivers and with one element
/// or 1024 per batch. Outputs must match the interpreter, and the wire
/// bytes, data messages and virtual time are pinned literals: a batch laid
/// out differently on any of these edges is charged differently.
#[test]
fn mixed_layouts_keep_their_wire_charge_on_every_edge_kind() {
    let src = r#"
        xs = readFile("mixed");
        acc = empty;
        i = 0;
        while (i < 3) {
            ys = xs.flatMap(x => [x, (x, i)]);
            if (i % 2 == 0) {
                zs = ys.distinct();
            } else {
                zs = bag(0, 1) cross ys;
            }
            acc = acc union zs;
            i = i + 1;
        }
        output(acc, "acc");
        output(xs.distinct(), "d");
    "#;
    let func = compile(src).unwrap();
    let wide = Value::tuple((0..300).map(Value::I64));
    let mixed: Vec<Value> = (0..60i64)
        .map(|i| match i % 6 {
            0 | 1 if i < 30 => Value::tuple([Value::I64(i % 7), Value::I64(i)]),
            0 | 1 => Value::tuple([Value::I64(i % 7), Value::F64(i as f64 / 4.0)]),
            2 => Value::I64(i % 5),
            3 => Value::str(format!("s{}", i % 4)),
            4 => wide.clone(),
            _ => Value::tuple([Value::I64(i % 3), Value::str("t"), Value::Bool(i % 4 == 1)]),
        })
        .collect();
    let fs = || {
        let fs = InMemoryFs::new();
        fs.put("mixed", mixed.clone());
        fs
    };
    let reference = Run::new(&func)
        .engine(Engine::Reference)
        .machines(1)
        .execute(&fs())
        .expect("reference");
    // (driver, batch_elems, bytes on wire, data messages, simulated ns).
    // The thread driver's wall-clock time is not pinned, and with 1024
    // elements per batch neither are its bytes: arrival order decides how
    // a batch's runs interleave.
    let pinned = [
        (Driver::Sim, 1, Some(337_215), 3_043, Some(6_150_511)),
        (Driver::Sim, 1024, Some(331_094), 213, Some(4_139_065)),
        (Driver::Threads, 1, Some(337_215), 3_043, None),
        (Driver::Threads, 1024, None, 213, None),
    ];
    for (driver, batch_elems, bytes, messages, elapsed) in pinned {
        let cost = mitos::core::CostModel {
            batch_elems,
            ..Default::default()
        };
        let what = format!("{driver:?}, batch_elems {batch_elems}");
        let outcome = Run::new(&func)
            .driver(driver)
            .machines(3)
            .config(EngineConfig::new().with_cost(cost))
            .execute(&fs())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(outcome.outputs, reference.outputs, "outputs, {what}");
        assert_eq!(outcome.path, reference.path, "path, {what}");
        let flow = outcome.flow.as_ref().expect("a Mitos run reports flow");
        if let Some(bytes) = bytes {
            assert_eq!(flow.bytes_on_wire(), bytes, "bytes on wire, {what}");
        }
        assert_eq!(outcome.data_messages, messages, "data messages, {what}");
        if let Some(elapsed) = elapsed {
            assert_eq!(outcome.elapsed_ns, elapsed, "virtual time, {what}");
        }
    }
}
