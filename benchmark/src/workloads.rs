//! The five workloads: program text, seeded inputs, engine configuration,
//! and the kernel replay plan that feeds the per-layer pass.
//!
//! The engine only ever sees [`Inputs`]: program text plus the files of a
//! fresh `InMemoryFs`. Sizes are frozen here and in `BENCHMARK.json`;
//! `tiny` shrinks them for `selftest.sh` only.

use mitos::core::{EngineConfig, FaultPlan};
use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::workloads::{
    generate_graph, generate_page_types, generate_visit_logs, visit_count_program, GraphSpec,
    VisitCountSpec,
};
use std::collections::BTreeMap;

/// Machines of the thread-driver job (= `nproc` on the reference box).
pub const THREAD_MACHINES: u16 = 2;

/// What a job is given: the program and the files it may read.
pub struct Inputs {
    pub program: String,
    pub files: BTreeMap<String, Vec<Value>>,
}

impl Inputs {
    /// A fresh file system holding exactly the input files.
    pub fn fresh_fs(&self) -> InMemoryFs {
        let fs = InMemoryFs::new();
        for (name, elems) in &self.files {
            fs.put(name.clone(), elems.clone());
        }
        fs
    }
}

/// Which plane does nearly all of the job's work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plane {
    Data,
    Control,
}

pub struct Workload {
    pub name: &'static str,
    pub plane: Plane,
    /// Machine count of the simulated job (the paper figure's).
    pub sim_machines: u16,
    /// Runs under drop = dup = reorder = 0.05 with retransmission on.
    pub lossy: bool,
    make: fn(u64, bool) -> Inputs,
    kernels: fn(&Inputs) -> KernelPlan,
}

impl Workload {
    pub fn inputs(&self, seed: u64, tiny: bool) -> Inputs {
        (self.make)(seed, tiny)
    }

    pub fn kernel_plan(&self, inputs: &Inputs) -> KernelPlan {
        (self.kernels)(inputs)
    }

    /// The lossy workload draws its fault schedule from `--seed` too.
    pub fn config(&self, seed: u64) -> EngineConfig {
        if !self.lossy {
            return EngineConfig::new();
        }
        EngineConfig::new().with_faults(
            FaultPlan::new()
                .with_seed(seed)
                .with_drop(0.05)
                .with_duplicate(0.05)
                .with_reorder(0.05)
                .with_retransmit(true),
        )
    }

    /// What a measured job time is multiplied by so that it repeats across
    /// seeds. Only `cc_iterative` needs it: its graph decides how many rounds
    /// label propagation takes (9 or 10 on the seeds tried), every round
    /// does the same work, and so its times are stated per [`CC_ROUNDS`]
    /// rounds.
    pub fn time_scale(&self, reference_outputs: &BTreeMap<String, Vec<Value>>) -> f64 {
        if self.name != "cc_iterative" {
            return 1.0;
        }
        let rounds = reference_outputs
            .get("rounds")
            .and_then(|r| r.first())
            .and_then(Value::as_i64);
        match rounds {
            Some(rounds) if rounds > 0 => f64::from(CC_ROUNDS) / rounds as f64,
            _ => 1.0,
        }
    }
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "visit_data",
        plane: Plane::Data,
        sim_machines: 8,
        lossy: false,
        make: visit_inputs,
        kernels: visit_kernels,
    },
    Workload {
        name: "visit_lossy",
        plane: Plane::Data,
        sim_machines: 8,
        lossy: true,
        make: visit_inputs,
        kernels: visit_kernels,
    },
    Workload {
        name: "step_control",
        plane: Plane::Control,
        sim_machines: 25,
        lossy: false,
        make: step_inputs,
        kernels: step_bag,
    },
    Workload {
        name: "branch_nested",
        plane: Plane::Control,
        sim_machines: 8,
        lossy: false,
        make: nested_inputs,
        kernels: nested_bag,
    },
    Workload {
        name: "cc_iterative",
        plane: Plane::Data,
        sim_machines: 8,
        lossy: false,
        make: cc_inputs,
        kernels: cc_kernels,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Inputs of the per-layer replays, derived from the workload's largest
/// bag so the numbers carry its element shape and size. A kernel is `None`
/// where the program has no such operator; lambdas are spelled as in the
/// program and must occur in its compiled graph.
#[derive(Default)]
pub struct KernelPlan {
    /// The largest bag the job moves; feeds the batch, route and relay
    /// replays as well.
    pub largest: Vec<Value>,
    pub map: Option<(&'static str, Vec<Value>)>,
    pub filter: Option<(&'static str, Vec<Value>)>,
    pub flat_map: Option<(&'static str, Vec<Value>)>,
    pub reduce_by_key: Option<(&'static str, Vec<Value>)>,
    /// `(build, probe)`.
    pub join: Option<(Vec<Value>, Vec<Value>)>,
    pub distinct: Option<Vec<Value>>,
}

fn int(v: i64) -> Value {
    Value::I64(v)
}

fn pair(a: Value, b: Value) -> Value {
    Value::tuple([a, b])
}

// ---- visit_data / visit_lossy (Fig. 6 shape) ------------------------------

fn visit_inputs(seed: u64, tiny: bool) -> Inputs {
    let (days, visits_per_day, pages) = if tiny {
        (3, 200, 50)
    } else {
        (30, 10_000, 1_000)
    };
    let fs = InMemoryFs::new();
    generate_visit_logs(
        &fs,
        &VisitCountSpec {
            days,
            visits_per_day,
            pages,
            seed,
        },
    );
    generate_page_types(&fs, pages, 4, seed);
    Inputs {
        program: visit_count_program(days, true),
        files: fs.snapshot(),
    }
}

fn visit_kernels(inputs: &Inputs) -> KernelPlan {
    let raw = inputs.files["pageVisitLog1"].clone();
    let decoded: Vec<Value> = raw
        .iter()
        .map(|r| {
            let r = r.as_i64().expect("raw log entries are integers");
            pair(int(r / 4), int(r % 4))
        })
        .collect();
    let ones: Vec<Value> = decoded
        .iter()
        .map(|e| pair(e.field(0).expect("decoded pair").clone(), int(1)))
        .collect();
    KernelPlan {
        map: Some(("r => (r / 4, r % 4)", raw.clone())),
        filter: Some(("e => e[1] != 3", decoded)),
        reduce_by_key: Some(("(a, b) => a + b", ones.clone())),
        join: Some((inputs.files["pageTypes"].clone(), ones)),
        // The program has no flatMap and no distinct.
        flat_map: None,
        distinct: None,
        largest: raw,
    }
}

// ---- step_control (Fig. 7 trivial loop) -----------------------------------

fn step_inputs(_seed: u64, tiny: bool) -> Inputs {
    let steps = if tiny { 50 } else { 5_000 };
    Inputs {
        program: format!(
            "s = 0;\nfor i = 1 to {steps} {{\n    b = bag((1, i));\n    s = s + b.count();\n}}\noutput(s, \"s\");\n"
        ),
        files: BTreeMap::new(),
    }
}

/// Every bag of the loop is `bag((1, i))`: one pair, so no kernel, batch
/// or route replay has a meaningful input.
fn step_bag(_: &Inputs) -> KernelPlan {
    KernelPlan {
        largest: vec![pair(int(1), int(1))],
        ..KernelPlan::default()
    }
}

// ---- branch_nested ---------------------------------------------------------

fn nested_inputs(_seed: u64, tiny: bool) -> Inputs {
    let (outer, inner) = if tiny { (4, 3) } else { (50, 40) };
    Inputs {
        program: format!(
            r#"total = 0;
i = 0;
while (i < {outer}) {{
    base = bag((1, i), (2, i * 2), (3, i * 3));
    j = 0;
    while (j < {inner}) {{
        probe = bag((1, j), (2, j + 1), (3, i + j));
        hits = (base join probe).map(t => t[1] + t[2]).sum();
        if (hits % 3 == 0) {{
            total = total + hits;
        }} else {{
            if (hits % 3 == 1) {{ total = total + 1; }} else {{ total = total - 1; }}
        }}
        j = j + 1;
    }}
    i = i + 1;
}}
output(total, "total");
"#
        ),
        files: BTreeMap::new(),
    }
}

/// `base` at i = 1: three pairs, as large as any bag of the job.
fn nested_bag(_: &Inputs) -> KernelPlan {
    KernelPlan {
        largest: (1..=3).map(|k| pair(int(k), int(k))).collect(),
        ..KernelPlan::default()
    }
}

// ---- cc_iterative -----------------------------------------------------------

/// `examples/connected_components.rs`, verbatim.
const CC_PROGRAM: &str = r#"raw = readFile("edges");
undirected = raw union raw.map(e => (e[1], e[0]));
labels = undirected.flatMap(e => [e[0], e[1]]).distinct().map(v => (v, v));
changed = 1;
rounds = 0;
while (changed > 0) {
    msgs = (undirected join labels).map(t => (t[1], t[2]));
    minNbr = msgs.reduceByKey((a, b) => min(a, b));
    joined = (labels join minNbr).map(t => (t[0], min(t[1], t[2]), t[1]));
    changed = joined.filter(t => t[1] != t[2]).count();
    labels = joined.map(t => (t[0], t[1]));
    rounds = rounds + 1;
}
writeFile(labels, "components");
output(rounds, "rounds");
output(labels.map(l => l[1]).distinct().count(), "component_count");
"#;

/// Rounds of label propagation that `cc_iterative`'s job times are stated
/// for; see [`Workload::time_scale`].
pub const CC_ROUNDS: u32 = 10;

fn cc_inputs(seed: u64, tiny: bool) -> Inputs {
    let (vertices, edges) = if tiny { (60, 90) } else { (8_000, 12_000) };
    let fs = InMemoryFs::new();
    generate_graph(
        &fs,
        &GraphSpec {
            vertices,
            edges,
            seed,
        },
    );
    Inputs {
        program: CC_PROGRAM.to_string(),
        files: fs.snapshot(),
    }
}

fn cc_kernels(inputs: &Inputs) -> KernelPlan {
    let edges = inputs.files["edges"].clone();
    let mut ends = Vec::with_capacity(edges.len() * 2);
    let mut triples = Vec::with_capacity(edges.len());
    for row in &edges {
        let (a, b) = (row.field(0).expect("edge"), row.field(1).expect("edge"));
        ends.extend([a.clone(), b.clone()]);
        triples.push(Value::tuple([a.clone(), b.clone(), a.clone()]));
    }
    let mut vertices = ends.clone();
    vertices.sort_unstable();
    vertices.dedup();
    let labels: Vec<Value> = vertices
        .iter()
        .map(|v| pair(v.clone(), v.clone()))
        .collect();
    KernelPlan {
        map: Some(("e => (e[1], e[0])", edges.clone())),
        filter: Some(("t => t[1] != t[2]", triples)),
        flat_map: Some(("e => [e[0], e[1]]", edges.clone())),
        reduce_by_key: Some(("(a, b) => min(a, b)", edges.clone())),
        join: Some((edges.clone(), labels)),
        distinct: Some(ends),
        largest: edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_are_legal_and_unique() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in &ALL {
            let (a, b) = (w.inputs(3, true), w.inputs(3, true));
            assert_eq!(a.program, b.program);
            assert_eq!(a.files, b.files, "{}", w.name);
        }
    }

    #[test]
    fn job_times_are_stated_per_ten_rounds_on_cc_only() {
        let cc = find("cc_iterative").unwrap();
        let outputs = |rounds| BTreeMap::from([("rounds".to_string(), vec![int(rounds)])]);
        assert_eq!(cc.time_scale(&outputs(10)), 1.0);
        assert_eq!(cc.time_scale(&outputs(8)), 1.25);
        assert_eq!(find("visit_data").unwrap().time_scale(&outputs(8)), 1.0);
    }
}
