//! The correctness oracle: every job's `outputs` map and every file it
//! wrote are compared with what the sequential reference interpreter
//! produces on identical inputs.

use crate::workloads::Inputs;
use mitos::fs::InMemoryFs;
use mitos::ir::{interpret, FuncIr, InterpConfig};
use mitos::lang::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

type Bags = BTreeMap<String, Vec<Value>>;

/// What a correct job leaves behind. Bags are multisets, so both maps hold
/// sorted element lists.
pub struct Expected {
    pub outputs: Bags,
    /// Files written by the program (inputs excluded).
    pub written: Bags,
    /// Length of the execution path the job takes.
    pub path_len: usize,
    /// Wall time of the interpreter run.
    pub elapsed: Duration,
}

fn sorted(mut bags: Bags) -> Bags {
    for elems in bags.values_mut() {
        elems.sort_unstable();
    }
    bags
}

/// Files of `fs` that are not (unchanged) inputs.
fn written_files(inputs: &Inputs, fs: &InMemoryFs) -> Bags {
    let mut files = fs.snapshot();
    files.retain(|name, elems| inputs.files.get(name) != Some(elems));
    sorted(files)
}

impl Expected {
    /// Runs the reference interpreter on a fresh copy of the inputs.
    pub fn compute(func: &FuncIr, inputs: &Inputs) -> Result<Expected, String> {
        let fs = inputs.fresh_fs();
        let start = Instant::now();
        let run = interpret(func, &fs, InterpConfig::default()).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        Ok(Expected {
            outputs: run.canonical_outputs(),
            written: written_files(inputs, &fs),
            path_len: run.path.len(),
            elapsed,
        })
    }

    /// FNV-1a over the rendered outputs and written files; the seed-1
    /// value per workload is committed in `baseline/oracle_seed1.txt`, so
    /// the oracle itself cannot drift unnoticed.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{:?}|{:?}", self.outputs, self.written).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Compares one job's result; every difference is one message.
    pub fn check(&self, inputs: &Inputs, outputs: &Bags, fs: &InMemoryFs) -> Vec<String> {
        let mut wrong = diff("output", &self.outputs, &sorted(outputs.clone()));
        wrong.extend(diff("file", &self.written, &written_files(inputs, fs)));
        wrong
    }
}

/// Jobs attempted and failed, on both drivers. A job fails when it errors,
/// stalls, or leaves outputs or files that differ from the reference;
/// `failed / attempted` is the run's `fail_ratio`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one job; `wrong` is what [`Expected::check`] (or the engine's
    /// error) said about it. Returns whether the job passed.
    pub fn record(&mut self, wrong: &[String]) -> bool {
        self.attempted += 1;
        // Spelled as a branch: rustc 1.95 at -O miscompiles
        // `self.failed += u64::from(!wrong.is_empty())` here to a no-op.
        if !wrong.is_empty() {
            self.failed += 1;
        }
        wrong.is_empty()
    }
}

fn diff(what: &str, want: &Bags, got: &Bags) -> Vec<String> {
    let mut wrong = Vec::new();
    for (name, elems) in want {
        match got.get(name) {
            None => wrong.push(format!("{what} `{name}` is missing")),
            Some(g) if g != elems => wrong.push(format!(
                "{what} `{name}` differs from the reference ({} vs {} elements)",
                g.len(),
                elems.len()
            )),
            Some(_) => {}
        }
    }
    for name in got.keys().filter(|n| !want.contains_key(*n)) {
        wrong.push(format!("{what} `{name}` is not in the reference"));
    }
    wrong
}

/// The committed digest for `workload`, from `baseline/oracle_seed1.txt`
/// (`<workload> <hex digest>` per line).
pub fn committed_digest(workload: &str) -> Option<u64> {
    include_str!("../baseline/oracle_seed1.txt")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn reference() -> (Inputs, Expected) {
        let w = workloads::find("cc_iterative").unwrap();
        let inputs = w.inputs(5, true);
        let func = mitos::ir::compile_str(&inputs.program).unwrap();
        let expected = Expected::compute(&func, &inputs).unwrap();
        (inputs, expected)
    }

    /// A file system and outputs exactly as a correct job leaves them.
    fn correct_job(inputs: &Inputs, expected: &Expected) -> (Bags, InMemoryFs) {
        let fs = inputs.fresh_fs();
        for (name, elems) in &expected.written {
            fs.put(name.clone(), elems.clone());
        }
        (expected.outputs.clone(), fs)
    }

    #[test]
    fn a_correct_job_passes_in_any_element_order() {
        let (inputs, expected) = reference();
        assert!(!expected.written.is_empty() && !expected.outputs.is_empty());
        let (outputs, fs) = correct_job(&inputs, &expected);
        let mut reversed = expected.written["components"].clone();
        reversed.reverse();
        fs.put("components", reversed);
        assert_eq!(expected.check(&inputs, &outputs, &fs), Vec::<String>::new());
    }

    #[test]
    fn a_flipped_element_and_a_missing_file_both_count_as_failed() {
        let (inputs, expected) = reference();
        let mut tally = Tally::default();

        let (outputs, fs) = correct_job(&inputs, &expected);
        assert!(tally.record(&expected.check(&inputs, &outputs, &fs)));

        // One flipped element inside a written file.
        let mut labels = expected.written["components"].clone();
        labels[0] = Value::tuple([Value::I64(0), Value::I64(-7)]);
        fs.put("components", labels);
        let wrong = expected.check(&inputs, &outputs, &fs);
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert!(wrong[0].contains("`components` differs"), "{wrong:?}");
        assert!(!tally.record(&wrong));

        let (outputs, fs) = correct_job(&inputs, &expected);
        fs.remove("components");
        let wrong = expected.check(&inputs, &outputs, &fs);
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert!(wrong[0].contains("`components` is missing"), "{wrong:?}");
        assert!(!tally.record(&wrong));

        let (mut outputs, fs) = correct_job(&inputs, &expected);
        outputs.insert("rounds".into(), vec![Value::I64(-1)]);
        assert!(!tally.record(&expected.check(&inputs, &outputs, &fs)));

        assert_eq!((tally.failed, tally.attempted), (3, 4));
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for w in &workloads::ALL {
            assert!(committed_digest(w.name).is_some(), "{}", w.name);
        }
    }
}
