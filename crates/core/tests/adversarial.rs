//! Adversarial delivery-order tests: the runtime's coordination protocol
//! must tolerate ANY interleaving of in-flight messages (the network model
//! only guarantees delivery, not order — the paper's Challenge 3 taken to
//! the extreme). We drive the worker state machines by hand with a manual
//! message bus and pathological scheduling policies.

use mitos_core::rt::{EngineConfig, Msg, Net};
use mitos_core::{extract_outputs, Job};
use mitos_fs::InMemoryFs;
use mitos_lang::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct BusNet {
    outbox: Vec<(u16, Msg)>,
}

impl Net for BusNet {
    fn send(&mut self, machine: u16, msg: Msg, _bytes: u64) {
        self.outbox.push((machine, msg));
    }
    fn charge(&mut self, _ns: u64) {}
    fn schedule(&mut self, _delay_ns: u64, machine: u16, msg: Msg) {
        self.outbox.push((machine, msg));
    }
    fn now_ns(&mut self) -> u64 {
        0
    }
}

/// How the scheduler picks the next in-flight message.
enum Policy {
    Fifo,
    Lifo,
    Random(StdRng),
    /// Punctuation (BagDone) before data, decisions last — a worst case
    /// for naive completion tracking.
    DonesFirst,
}

fn run_with_policy(src: &str, machines: u16, mut policy: Policy, fs: &InMemoryFs) {
    let func = mitos_ir::compile_str(src).unwrap();
    // Fusion off: the unfused `LogicalGraph::build` graph, one worker per
    // machine.
    let config = EngineConfig::new().with_fusion(false);
    let (_job, mut workers) = Job::new(&func, fs, config, machines).unwrap();
    let mut inflight: Vec<(u16, Msg)> = (0..machines).map(|m| (m, Msg::Start)).collect();
    let mut steps = 0u64;
    while !inflight.is_empty() {
        steps += 1;
        assert!(steps < 2_000_000, "runaway message loop");
        let idx = match &mut policy {
            Policy::Fifo => 0,
            Policy::Lifo => inflight.len() - 1,
            Policy::Random(rng) => rng.gen_range(0..inflight.len()),
            Policy::DonesFirst => inflight
                .iter()
                .position(|(_, m)| matches!(m, Msg::BagDone { .. }))
                .or_else(|| {
                    inflight
                        .iter()
                        .position(|(_, m)| !matches!(m, Msg::Decision { .. }))
                })
                .unwrap_or(0),
        };
        let (machine, msg) = inflight.remove(idx);
        let mut net = BusNet { outbox: Vec::new() };
        workers[machine as usize].handle(msg, &mut net);
        if let Some(e) = &workers[machine as usize].error {
            panic!("worker {machine} failed: {e}");
        }
        inflight.extend(net.outbox);
    }
    assert!(
        workers.iter().all(|w| w.path().exited() && w.idle()),
        "all workers must finish"
    );
}

fn check_all_policies(src: &str, machines: u16, setup: impl Fn(&InMemoryFs)) {
    // Ground truth.
    let ref_fs = InMemoryFs::new();
    setup(&ref_fs);
    let func = mitos_ir::compile_str(src).unwrap();
    let reference = mitos_ir::interpret(&func, &ref_fs, mitos_ir::InterpConfig::default()).unwrap();

    let policies: Vec<(&str, Policy)> = vec![
        ("fifo", Policy::Fifo),
        ("lifo", Policy::Lifo),
        ("dones-first", Policy::DonesFirst),
        ("random-7", Policy::Random(StdRng::seed_from_u64(7))),
        ("random-99", Policy::Random(StdRng::seed_from_u64(99))),
        ("random-2024", Policy::Random(StdRng::seed_from_u64(2024))),
    ];
    for (name, policy) in policies {
        let fs = InMemoryFs::new();
        setup(&fs);
        run_with_policy(src, machines, policy, &fs);
        let outputs = extract_outputs(&fs);
        assert_eq!(
            outputs,
            reference.canonical_outputs(),
            "policy {name} diverged"
        );
        assert_eq!(fs.snapshot(), ref_fs.snapshot(), "policy {name} files");
    }
}

#[test]
fn visit_count_under_any_delivery_order() {
    check_all_policies(
        r#"
        yesterday = empty;
        day = 1;
        do {
            visits = readFile("log" + day);
            counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b);
            if (day != 1) {
                diffs = (counts join yesterday).map(t => abs(t[1] - t[2]));
                writeFile(diffs.sum(), "diff" + day);
            }
            yesterday = counts;
            day = day + 1;
        } while (day <= 4);
        "#,
        3,
        |fs| {
            for d in 1..=4i64 {
                fs.put(
                    format!("log{d}"),
                    (0..30).map(|i| Value::I64((i * d) % 6)).collect::<Vec<_>>(),
                );
            }
        },
    );
}

#[test]
fn branches_and_joins_under_any_delivery_order() {
    check_all_policies(
        r#"
        total = 0;
        i = 0;
        while (i < 5) {
            if (i % 2 == 0) {
                x = bag((1, i * 10), (2, i));
            } else {
                x = bag((1, i * 100));
            }
            y = bag((1, 7), (2, 8));
            total = total + (x join y).map(t => t[1] + t[2]).sum();
            i = i + 1;
        }
        output(total, "t");
        "#,
        4,
        |_| {},
    );
}

#[test]
fn nested_loops_under_any_delivery_order() {
    check_all_policies(
        r#"
        acc = 0;
        a = 0;
        while (a < 2) {
            inv = bag((1, a), (2, a + 1));
            b = 0;
            while (b < 3) {
                probe = bag((1, b));
                acc = acc + (inv join probe).count();
                b = b + 1;
            }
            a = a + 1;
        }
        output(acc, "acc");
        "#,
        2,
        |_| {},
    );
}
