//! Integration tests of the `mitos` command-line runner.

use std::io::Write as _;
use std::process::Command;

fn mitos() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mitos"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mitos-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const PROGRAM: &str = r#"
total = 0;
counts = empty;
for d = 1 to 3 {
    counts = readFile("visits").map(x => (x % 5, 1)).reduceByKey((a, b) => a + b);
    total = total + counts.count();
}
writeFile(counts, "final");
output(total, "total");
"#;

#[test]
fn run_produces_outputs_and_files() {
    let program = write_temp("prog.mt", PROGRAM);
    let data = write_temp(
        "visits.txt",
        &(0..50).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let outdir = std::env::temp_dir().join("mitos-cli-tests/out");
    let _ = std::fs::remove_dir_all(&outdir);
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--machines",
            "3",
            "--input",
            &format!("visits={}", data.display()),
            "--output-dir",
            outdir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("== output total"), "{stdout}");
    assert!(stdout.contains("15"), "5 keys x 3 days: {stdout}");
    let written = std::fs::read_to_string(outdir.join("final")).unwrap();
    assert_eq!(written.lines().count(), 5, "{written}");
}

#[test]
fn engines_agree_via_cli() {
    let program = write_temp("prog2.mt", PROGRAM);
    let data = write_temp(
        "visits2.txt",
        &(0..40).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    let run = |flags: &[&str]| -> String {
        let mut args = vec!["run", program.to_str().unwrap(), "--input", &input];
        args.extend_from_slice(flags);
        let output = mitos().args(&args).output().unwrap();
        assert!(output.status.success(), "{flags:?}: {output:?}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let reference = run(&["--engine", "reference"]);
    let flag_sets: [&[&str]; 6] = [
        &["--engine", "mitos"],
        &["--no-pipeline"],
        &["--no-hoist"],
        &["--driver", "threads"],
        &["--engine", "spark"],
        &["--engine", "flink-jobs"],
    ];
    for flags in flag_sets {
        assert_eq!(run(flags), reference, "{flags:?}");
    }
}

#[test]
fn ssa_and_graph_render() {
    let program = write_temp("prog3.mt", PROGRAM);
    let ssa = mitos()
        .args(["ssa", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ssa.status.success());
    let text = String::from_utf8_lossy(&ssa.stdout);
    assert!(text.contains("block 0:"), "{text}");
    assert!(text.contains('Φ'), "{text}");

    let dot = mitos()
        .args(["graph", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(dot.status.success());
    let text = String::from_utf8_lossy(&dot.stdout);
    assert!(text.starts_with("digraph mitos {"), "{text}");
}

#[test]
fn check_reports_flink_expressibility() {
    let program = write_temp("prog4.mt", PROGRAM);
    let output = mitos()
        .args(["check", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("NOT expressible"), "{text}");
}

#[test]
fn compile_errors_are_rendered_with_position() {
    let program = write_temp("bad.mt", "x = ;\n");
    let output = mitos()
        .args(["check", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    assert!(text.contains("error:"), "{text}");
}

#[test]
fn live_flags_require_a_mitos_engine() {
    let program = write_temp("prog6.mt", PROGRAM);
    // The Mitos-only knobs and the thread driver refuse the same way.
    let flag_sets: [&[&str]; 6] = [
        &["--progress"],
        &["--watch"],
        &["--deadline", "100"],
        &["--no-pipeline"],
        &["--no-hoist"],
        &["--driver", "threads"],
    ];
    for flags in flag_sets {
        let mut args = vec!["run", program.to_str().unwrap(), "--engine", "spark"];
        args.extend_from_slice(flags);
        let output = mitos().args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {output:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains("requires a Mitos engine"), "{flags:?}: {err}");
    }
}

#[test]
fn progress_prints_status_lines() {
    let program = write_temp("prog7.mt", PROGRAM);
    let data = write_temp(
        "visits7.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--progress",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("[progress"), "{err}");
    assert!(err.contains("done:"), "{err}");
}

#[test]
fn withheld_decisions_trip_watchdog_and_exit_2() {
    let program = write_temp("prog8.mt", PROGRAM);
    let data = write_temp(
        "visits8.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--fault-withhold-decisions",
            "--driver",
            "threads",
            "--machines",
            "2",
            "--deadline",
            "200",
            "--input",
            &format!("visits={}", data.display()),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("stall watchdog"), "{err}");
    assert!(err.contains("awaiting decision"), "{err}");
}

#[test]
fn fault_drop_without_retransmit_exits_2_naming_the_dropped_traffic() {
    let program = write_temp("prog9.mt", PROGRAM);
    let data = write_temp(
        "visits9.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--machines",
            "2",
            "--fault-drop",
            "1.0",
            "--fault-no-retransmit",
            "--input",
            &format!("visits={}", data.display()),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let err = String::from_utf8_lossy(&output.stderr);
    // The stall report names the injected fault and what it withheld.
    assert!(err.contains("runtime error:"), "{err}");
    assert!(err.contains("injected faults:"), "{err}");
    assert!(err.contains("dropped"), "{err}");
    assert!(err.contains("drop 1.00"), "{err}");
    assert!(err.contains("recovery protocol disabled"), "{err}");
}

#[test]
fn fault_recovery_reproduces_the_fault_free_output() {
    let program = write_temp("prog10.mt", PROGRAM);
    let data = write_temp(
        "visits10.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let run = |extra: &[&str]| -> String {
        let mut args = vec![
            "run".to_string(),
            program.to_str().unwrap().to_string(),
            "--machines".to_string(),
            "3".to_string(),
            "--input".to_string(),
            format!("visits={}", data.display()),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let output = mitos().args(&args).output().unwrap();
        assert!(output.status.success(), "{extra:?}: {output:?}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let clean = run(&[]);
    let faulted = run(&[
        "--fault-drop",
        "0.2",
        "--fault-dup",
        "0.1",
        "--fault-reorder",
        "0.2",
        "--fault-seed",
        "7",
    ]);
    assert_eq!(faulted, clean, "recovered run must match fault-free output");
}

#[test]
fn fault_flags_require_a_mitos_engine() {
    let program = write_temp("prog11.mt", PROGRAM);
    let flag_sets: [&[&str]; 3] = [
        &["--fault-drop", "0.1"],
        &["--fault-partition", "0:1:0:50"],
        &["--fault-no-retransmit"],
    ];
    for flags in flag_sets {
        for engine in ["spark", "flink-jobs", "reference"] {
            let mut args = vec!["run", program.to_str().unwrap(), "--engine", engine];
            args.extend_from_slice(flags);
            let output = mitos().args(&args).output().unwrap();
            assert_eq!(
                output.status.code(),
                Some(2),
                "{engine} {flags:?}: {output:?}"
            );
            let err = String::from_utf8_lossy(&output.stderr);
            assert!(
                err.contains("--fault-* requires a Mitos engine"),
                "{engine} {flags:?}: {err}"
            );
        }
    }
}

#[test]
fn explain_prints_operator_stats() {
    let program = write_temp("prog5.mt", PROGRAM);
    let data = write_temp(
        "visits5.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("operator"), "{err}");
    assert!(err.contains("readFile"), "{err}");
}

#[test]
fn flow_requires_a_mitos_engine() {
    let program = write_temp("prog12.mt", PROGRAM);
    for engine in ["spark", "flink", "flink-jobs", "reference"] {
        let output = mitos()
            .args(["flow", program.to_str().unwrap(), "--engine", engine])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{engine}: {output:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("`mitos flow` requires a Mitos engine"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn flow_reports_per_edge_traffic() {
    let program = write_temp("prog13.mt", PROGRAM);
    let data = write_temp(
        "visits13.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    for driver in ["sim", "threads"] {
        let output = mitos()
            .args([
                "flow",
                program.to_str().unwrap(),
                "--input",
                &input,
                "--driver",
                driver,
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{driver}: {output:?}");
        let text = String::from_utf8_lossy(&output.stdout);
        assert!(text.contains("top edges by bytes"), "{driver}: {text}");
        assert!(text.contains("counts"), "{driver}: {text}");
        assert!(text.contains("per-machine"), "{driver}: {text}");
        assert!(text.contains("data messages"), "{driver}: {text}");
    }
}

#[test]
fn flow_writes_heat_overlay_dot() {
    let program = write_temp("prog15.mt", PROGRAM);
    let data = write_temp(
        "visits15.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let dot_path = std::env::temp_dir().join("mitos-cli-tests/flow15.dot");
    let output = mitos()
        .args([
            "flow",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--dot",
            dot_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph mitos {"), "{dot}");
    assert!(dot.contains("elems"), "heat labels present: {dot}");
}

#[test]
fn explain_json_is_machine_readable() {
    let program = write_temp("prog16.mt", PROGRAM);
    let data = write_temp(
        "visits16.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "explain",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    // Validate shape with the repo's own JSON validator (no serde in the
    // build environment).
    mitos::core::obs::validate_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(text.contains("\"engine\":\"Mitos\""), "{text}");
    assert!(text.contains("\"ops\":["), "{text}");
    assert!(text.contains("\"data_messages\":"), "{text}");
    assert!(text.contains("\"flow\":{"), "{text}");
    assert!(text.contains("\"bytes_on_wire\":"), "{text}");
}

#[test]
fn flow_json_reconciles_with_data_messages() {
    let program = write_temp("prog17.mt", PROGRAM);
    let data = write_temp(
        "visits17.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "explain",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    // The per-edge message total must reconcile exactly with the engine's
    // post-dedup delivery counter, and both appear in the same document.
    let field = |name: &str| -> u64 {
        let at = text
            .find(&format!("\"{name}\":"))
            .unwrap_or_else(|| panic!("missing {name}: {text}"));
        text[at + name.len() + 3..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert_eq!(field("data_messages"), field("messages"), "{text}");
    assert!(field("messages") > 0, "{text}");
}

#[test]
fn mem_requires_a_mitos_engine() {
    let program = write_temp("prog18.mt", PROGRAM);
    for engine in ["spark", "flink", "flink-jobs", "reference"] {
        let output = mitos()
            .args(["mem", program.to_str().unwrap(), "--engine", engine])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{engine}: {output:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("`mitos mem` requires a Mitos engine"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn mem_reports_residency_and_leak_freedom() {
    let program = write_temp("prog19.mt", PROGRAM);
    let data = write_temp(
        "visits19.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    for driver in ["sim", "threads"] {
        let output = mitos()
            .args([
                "mem",
                program.to_str().unwrap(),
                "--input",
                &input,
                "--driver",
                driver,
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{driver}: {output:?}");
        let text = String::from_utf8_lossy(&output.stdout);
        assert!(
            text.contains("state residency by class"),
            "{driver}: {text}"
        );
        assert!(text.contains("awaiting-inputs"), "{driver}: {text}");
        assert!(text.contains("per-machine"), "{driver}: {text}");
        // The leak detector: a fault-free run retains nothing outside
        // deliberate caches once the exit sweep has run.
        assert!(text.contains("leak-free"), "{driver}: {text}");
    }
}

#[test]
fn mem_json_is_machine_readable_and_leak_free() {
    let program = write_temp("prog20.mt", PROGRAM);
    let data = write_temp(
        "visits20.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let output = mitos()
        .args([
            "mem",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8_lossy(&output.stdout);
    mitos::core::obs::validate_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(text.contains("\"leak_free\":true"), "{text}");
    assert!(text.contains("\"classes\":["), "{text}");
    assert!(text.contains("\"awaiting-inputs\""), "{text}");
    assert!(text.contains("\"machines\":["), "{text}");
}

#[test]
fn mem_writes_residency_heat_dot() {
    let program = write_temp("prog21.mt", PROGRAM);
    let data = write_temp(
        "visits21.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let dot_path = std::env::temp_dir().join("mitos-cli-tests/mem21.dot");
    let output = mitos()
        .args([
            "mem",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--dot",
            dot_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph mitos {"), "{dot}");
    assert!(dot.contains("peak="), "residency labels present: {dot}");
}

#[test]
fn trace_tree_json_is_valid_and_deterministic() {
    let program = write_temp("prog24.mt", PROGRAM);
    let data = write_temp(
        "visits24.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    let run = || {
        let output = mitos()
            .args([
                "trace-tree",
                program.to_str().unwrap(),
                "--input",
                &input,
                "--json",
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let first = run();
    mitos::core::obs::validate_json(&first).unwrap_or_else(|e| panic!("{e}\n{first}"));
    assert!(first.contains("\"steps\":["), "{first}");
    assert!(first.contains("\"kind\":\"exec\""), "{first}");
    assert!(first.contains("\"step_count\":"), "{first}");
    // Span ids and virtual timestamps are deterministic under the
    // simulator, so the whole document is bit-stable across runs.
    assert_eq!(first, run(), "trace-tree --json must be deterministic");
}

#[test]
fn no_templates_run_is_bit_identical() {
    // The template cache is a pure control-plane memoization: `mitos run`
    // output — results and the virtual-time summary — must be bit-identical
    // with the cache on (default) and off via --no-templates.
    let program = write_temp("prog26.mt", PROGRAM);
    let data = write_temp(
        "visits26.txt",
        &(0..30).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    let run = |extra: &[&str]| -> String {
        let mut args = vec![
            "run",
            program.to_str().unwrap(),
            "--machines",
            "3",
            "--input",
        ];
        args.push(&input);
        args.extend_from_slice(extra);
        let output = mitos().args(&args).output().unwrap();
        assert!(output.status.success(), "{extra:?}: {output:?}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    assert_eq!(
        run(&[]),
        run(&["--no-templates"]),
        "--no-templates must not change run output"
    );
}

#[test]
fn no_templates_is_uniform_across_subcommands() {
    let program = write_temp("prog27.mt", PROGRAM);
    let data = write_temp(
        "visits27.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    // Every report subcommand accepts --no-templates and still succeeds.
    for cmd in ["explain", "flow", "mem", "profile", "trace-tree"] {
        let output = mitos()
            .args([
                cmd,
                program.to_str().unwrap(),
                "--input",
                &input,
                "--no-templates",
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{cmd}: {output:?}");
    }
    // And like every other Mitos-only knob, the flag refuses non-Mitos
    // engines with exit 2 and a message naming itself.
    for engine in ["spark", "flink-jobs", "reference"] {
        let output = mitos()
            .args([
                "run",
                program.to_str().unwrap(),
                "--engine",
                engine,
                "--no-templates",
            ])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{engine}: {output:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("--no-templates requires a Mitos engine"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn explain_reports_template_counters() {
    let program = write_temp("prog28.mt", PROGRAM);
    let data = write_temp(
        "visits28.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    let run_json = |extra: &[&str]| -> String {
        let mut args = vec!["explain", program.to_str().unwrap(), "--input"];
        args.push(&input);
        args.push("--json");
        args.extend_from_slice(extra);
        let output = mitos().args(&args).output().unwrap();
        assert!(output.status.success(), "{extra:?}: {output:?}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let field = |text: &str, name: &str| -> u64 {
        let at = text
            .find(&format!("\"{name}\":"))
            .unwrap_or_else(|| panic!("missing {name}: {text}"));
        text[at + name.len() + 3..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let on = run_json(&[]);
    mitos::core::obs::validate_json(&on).unwrap_or_else(|e| panic!("{e}\n{on}"));
    assert!(on.contains("\"template_hit_rate\":"), "{on}");
    // Templates on (the default): the cache was consulted — every bag
    // start is a hit or a miss.
    assert!(
        field(&on, "template_hits") + field(&on, "template_misses") > 0,
        "{on}"
    );
    // Templates off: all three counters must be exactly zero.
    let off = run_json(&["--no-templates"]);
    for name in ["template_hits", "template_misses", "template_invalidations"] {
        assert_eq!(
            field(&off, name),
            0,
            "{name} nonzero with templates off: {off}"
        );
    }
    // The human-readable report prints the counter line only when the
    // cache was active, keeping templates-off output byte-stable.
    let text_on = mitos()
        .args(["explain", program.to_str().unwrap(), "--input", &input])
        .output()
        .unwrap();
    assert!(text_on.status.success(), "{text_on:?}");
    let err = String::from_utf8_lossy(&text_on.stderr);
    let out = String::from_utf8_lossy(&text_on.stdout);
    assert!(
        err.contains("templates:") || out.contains("templates:"),
        "explain must surface template counters: {err}\n{out}"
    );
    let text_off = mitos()
        .args([
            "explain",
            program.to_str().unwrap(),
            "--input",
            &input,
            "--no-templates",
        ])
        .output()
        .unwrap();
    assert!(text_off.status.success(), "{text_off:?}");
    let err = String::from_utf8_lossy(&text_off.stderr);
    let out = String::from_utf8_lossy(&text_off.stdout);
    assert!(
        !err.contains("templates:") && !out.contains("templates:"),
        "templates-off explain must not print a counter line: {err}\n{out}"
    );
}

#[test]
fn metrics_out_exports_template_series() {
    let program = write_temp("prog29.mt", PROGRAM);
    let data = write_temp(
        "visits29.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let prom_path = std::env::temp_dir().join("mitos-cli-tests/templates29.prom");
    let _ = std::fs::remove_file(&prom_path);
    let output = mitos()
        .args([
            "run",
            program.to_str().unwrap(),
            "--input",
            &format!("visits={}", data.display()),
            "--metrics-out",
            prom_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(
        prom.contains("mitos_template_lookups_total{outcome=\"hit\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("mitos_template_lookups_total{outcome=\"miss\"}"),
        "{prom}"
    );
    assert!(prom.contains("mitos_template_hit_rate"), "{prom}");
}

#[test]
fn report_flags_are_uniform_across_subcommands() {
    let program = write_temp("prog25.mt", PROGRAM);
    let data = write_temp(
        "visits25.txt",
        &(0..20).map(|i| format!("{i}\n")).collect::<String>(),
    );
    let input = format!("visits={}", data.display());
    // Every report subcommand refuses non-Mitos engines the same way:
    // exit code 2 and a "`mitos <cmd>` requires a Mitos engine" message.
    for cmd in ["explain", "flow", "mem", "profile", "trace-tree"] {
        let output = mitos()
            .args([cmd, program.to_str().unwrap(), "--engine", "spark"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{cmd}: {output:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains(&format!("`mitos {cmd}` requires a Mitos engine")),
            "{cmd}: {err}"
        );
    }
    // And every one of them accepts --json (machine-readable stdout) and
    // --dot (a DOT file next to the human-readable report).
    for cmd in ["explain", "flow", "mem", "profile", "trace-tree"] {
        let dot_path = std::env::temp_dir().join(format!("mitos-cli-tests/report25-{cmd}.dot"));
        let _ = std::fs::remove_file(&dot_path);
        let output = mitos()
            .args([
                cmd,
                program.to_str().unwrap(),
                "--input",
                &input,
                "--json",
                "--dot",
                dot_path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{cmd}: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let json_at = stdout
            .find('{')
            .unwrap_or_else(|| panic!("{cmd}: {stdout}"));
        mitos::core::obs::validate_json(stdout[json_at..].trim())
            .unwrap_or_else(|e| panic!("{cmd}: {e}\n{stdout}"));
        let dot = std::fs::read_to_string(&dot_path)
            .unwrap_or_else(|e| panic!("{cmd}: missing dot: {e}"));
        assert!(dot.starts_with("digraph"), "{cmd}: {dot}");
    }
}

/// Every report byte, pinned: the text, `--json` and `--dot` outputs of
/// the report subcommands and the `run --metrics-out` exposition, on
/// `examples/nested_loops.mt` under the simulator. Virtual time makes all
/// of them deterministic, so each must equal its file under
/// `tests/golden/` exactly; a golden changes only with an intended report
/// change.
#[test]
fn reports_match_goldens() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let program = root.join("examples/nested_loops.mt");
    let program = program.to_str().unwrap();
    let dir = std::env::temp_dir().join("mitos-cli-tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    let stdout_of = |args: &[&str]| -> String {
        let mut all = vec![args[0], program, "--machines", "3"];
        all.extend_from_slice(&args[1..]);
        let output = mitos().args(&all).output().unwrap();
        assert!(output.status.success(), "{all:?}: {output:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let check = |golden: &str, got: String| {
        let want = std::fs::read_to_string(root.join("tests/golden").join(golden)).unwrap();
        assert!(
            got == want,
            "{golden} differs from tests/golden/{golden}:\n{got}"
        );
    };
    for cmd in ["explain", "flow", "mem", "profile"] {
        let dot = dir.join(format!("{cmd}.dot"));
        let _ = std::fs::remove_file(&dot);
        check(
            &format!("{cmd}.txt"),
            stdout_of(&[cmd, "--dot", dot.to_str().unwrap()]),
        );
        check(
            &format!("{cmd}.dot"),
            std::fs::read_to_string(&dot).unwrap(),
        );
        check(&format!("{cmd}.json"), stdout_of(&[cmd, "--json"]));
    }
    check("trace-tree.txt", stdout_of(&["trace-tree", "--step", "3"]));
    check(
        "trace-tree.json",
        stdout_of(&["trace-tree", "--step", "3", "--json"]),
    );
    let prom = dir.join("run.prom");
    let _ = std::fs::remove_file(&prom);
    stdout_of(&["run", "--metrics-out", prom.to_str().unwrap()]);
    check("run.prom", std::fs::read_to_string(&prom).unwrap());
}

/// Every report subcommand writes the side outputs it is asked for, as
/// `run` does: `--trace` (a Chrome trace) and `--metrics-out` (the
/// Prometheus exposition).
#[test]
fn report_subcommands_write_trace_and_metrics() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let program = root.join("examples/nested_loops.mt");
    let dir = std::env::temp_dir().join("mitos-cli-tests/side-outputs");
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["explain", "flow", "mem", "profile", "trace-tree"] {
        let trace = dir.join(format!("{cmd}.json"));
        let prom = dir.join(format!("{cmd}.prom"));
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&prom);
        let output = mitos()
            .args([
                cmd,
                program.to_str().unwrap(),
                "--machines",
                "2",
                "--trace",
                trace.to_str().unwrap(),
                "--metrics-out",
                prom.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{cmd}: {output:?}");
        let text = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{cmd}: no --trace file: {e}"));
        mitos::core::obs::validate_json(&text).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        let metrics = std::fs::read_to_string(&prom)
            .unwrap_or_else(|e| panic!("{cmd}: no --metrics-out file: {e}"));
        assert!(
            metrics.contains("# TYPE mitos_phase_latency_ns histogram"),
            "{cmd}: {metrics}"
        );
    }
}
