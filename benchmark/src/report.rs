//! The metrics of one run, in the order they were measured, and their
//! text and JSON renderings.

use crate::stats;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value`: 1 for an exact count read off the engine, 0
    /// when the workload has no meaningful input for the metric.
    pub n: usize,
    /// Quartiles of the samples, when `value` is their median.
    pub quartiles: Option<(f64, f64)>,
    /// The samples themselves, kept for the end-to-end timings so that any
    /// other statistic can be re-derived from the result file.
    pub samples: Vec<f64>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one value standing for `n` samples.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        assert!(stats::valid_name(name), "illegal metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
            quartiles: None,
            samples: Vec::new(),
        });
    }

    /// Records an exact reading: a counter the engine returns, or a value
    /// derived from recorded ones.
    pub fn put_exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.put(name, value, unit, 1);
    }

    /// Records that the workload has no meaningful input for this metric
    /// (the program lacks the operator, or no bag of it is large enough):
    /// value 0 over 0 samples, since the result object admits only numbers.
    pub fn put_not_applicable(&mut self, name: &'static str, unit: &'static str) {
        self.put(name, 0.0, unit, 0);
    }

    /// Records the median of `samples`, keeping their quartiles and count.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let median = stats::median(samples).unwrap_or_else(|| panic!("no samples for `{name}`"));
        self.put(name, median, unit, samples.len());
        let m = self.metrics.last_mut().expect("just pushed");
        m.quartiles = stats::quartiles(samples);
    }

    /// [`Report::put_median`] for an end-to-end timing: the samples are
    /// kept too.
    pub fn put_timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.put_median(name, samples, unit);
        self.metrics.last_mut().expect("just pushed").samples = samples.to_vec();
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
            .value
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            if m.n == 0 {
                let _ = writeln!(out, "{:<34} {:>16} {:<8} n=0", m.name, "n/a", m.unit);
                continue;
            }
            let _ = write!(
                out,
                "{:<34} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.n
            );
            if let Some((q1, q3)) = m.quartiles {
                let _ = write!(out, "  q1={q1:.6} q3={q3:.6}");
            }
            out.push('\n');
        }
        out
    }

    /// `{"name":{"value":..,"unit":".."},..}` over the metrics `keep`
    /// selects; with `detail`, also `n` and the quartiles.
    pub fn json(&self, keep: impl Fn(&str) -> bool, detail: bool) -> String {
        let mut out = String::from("{");
        for m in self.metrics.iter().filter(|m| keep(m.name)) {
            if out.len() > 1 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                num(m.value),
                m.unit
            );
            if detail {
                let _ = write!(out, ",\"n\":{}", m.n);
                if let Some((q1, q3)) = m.quartiles {
                    let _ = write!(out, ",\"q1\":{},\"q3\":{}", num(q1), num(q3));
                }
                if !m.samples.is_empty() {
                    let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
                    let _ = write!(out, ",\"samples\":[{}]", samples.join(","));
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A finite float as a JSON number, with every digit measured (`{:?}`
/// prints the shortest text that reads back as the same float).
fn num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_selected_metrics_with_all_digits() {
        let mut r = Report::default();
        r.put_timing("sim_job_ms", &[1.25, 3.5, 2.0625], "ms");
        r.put("flow.elements", 40005.0, "count", 1);
        r.put_not_applicable("kernel.map_melems_s", "Melem/s");
        assert_eq!(
            r.json(|n| n == "sim_job_ms", false),
            r#"{"sim_job_ms":{"value":2.0625,"unit":"ms"}}"#
        );
        let all = r.json(|_| true, true);
        assert!(
            all.contains(r#""flow.elements":{"value":40005.0,"unit":"count","n":1}"#),
            "{all}"
        );
        assert!(
            all.contains(r#""n":3,"q1":1.25,"q3":3.5,"samples":[1.25,3.5,2.0625]"#),
            "{all}"
        );
        assert!(
            all.contains(r#""kernel.map_melems_s":{"value":0.0,"unit":"Melem/s","n":0}"#),
            "{all}"
        );
        assert!(r.text().contains("flow.elements"));
        assert!(r.text().contains("n/a"));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_is_recorded_once() {
        let mut r = Report::default();
        r.put("x", 1.0, "count", 1);
        r.put("x", 2.0, "count", 1);
    }
}
