//! Cross-engine end-to-end tests: every engine must produce the reference
//! interpreter's results on the paper's workloads and on control-flow
//! stress programs.

use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::workloads::{
    generate_page_types, generate_visit_logs, visit_count_program, VisitCountSpec,
};
use mitos::{compile, Engine, Run};

const ALL_ENGINES: [Engine; 6] = [
    Engine::Mitos,
    Engine::MitosNoPipelining,
    Engine::MitosNoHoisting,
    Engine::FlinkNative,
    Engine::FlinkSeparateJobs,
    Engine::Spark,
];

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
    for engine in ALL_ENGINES {
        let fs = InMemoryFs::new();
        setup(&fs);
        let outcome = Run::new(&func)
            .engine(engine)
            .machines(machines)
            .execute(&fs)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(outcome.outputs, reference.outputs, "outputs of {engine}");
        assert_eq!(outcome.path, reference.path, "path of {engine}");
        assert_eq!(fs.snapshot(), ref_fs.snapshot(), "files of {engine}");
        assert!(outcome.virtual_ns > 0, "{engine} must take virtual time");
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
    let run = |engine: Engine| {
        let fs = InMemoryFs::new();
        fs.put("mixed", mixed.clone().collect());
        let job = Run::new(&func).engine(engine).machines(3);
        job.execute(&fs).unwrap_or_else(|e| panic!("{engine}: {e}"))
    };
    // `Engine::Reference` is `mitos_ir::interpret` with sorted outputs.
    let reference = run(Engine::Reference);
    assert_eq!(reference.outputs["kept"].len(), 18);
    for engine in [Engine::Mitos, Engine::MitosThreads] {
        let outcome = run(engine);
        assert_eq!(outcome.outputs, reference.outputs, "outputs of {engine}");
        assert_eq!(outcome.path, reference.path, "path of {engine}");
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
        for engine in [Engine::Reference, Engine::Mitos, Engine::MitosThreads] {
            let job = Run::new(&func).engine(engine).machines(2);
            let err = job.execute(&InMemoryFs::new()).expect_err(src);
            assert_eq!(err.message, want, "{engine}");
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
    assert_eq!(Engine::Mitos.to_string(), "Mitos");
    assert_eq!(
        Engine::MitosNoPipelining.to_string(),
        "Mitos (not pipelined)"
    );
    assert_eq!(Engine::Spark.to_string(), "Spark");
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
    for engine in [Engine::Mitos, Engine::MitosNoPipelining, Engine::Spark] {
        let fs = InMemoryFs::new();
        setup(&fs);
        let outcome = Run::new(&func)
            .engine(engine)
            .machines(3)
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
