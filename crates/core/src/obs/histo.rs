//! Per-phase control-plane latency histograms with log₂ buckets,
//! exported in Prometheus text format.
//!
//! Built post-hoc from the causal span trees ([`crate::obs::span`]):
//! for each step the control plane decomposes into four phases —
//! `broadcast` (decide → remote receipt), `assembly` (path append →
//! first bag open on that machine), `execute` (bag open → finalize),
//! and `send_resolve` (bag open → conditional-send decision). The
//! bucket layout matches [`crate::obs::metrics::LatencyStats`]: bucket
//! `i` covers `[2^(i-1), 2^i)` ns (bucket 0 = 0 ns), 32 buckets total,
//! so the `+Inf`-free upper bound is ~2.1 s.

use crate::obs::expo::{family, labels, Kind};
use crate::obs::span::{SpanKind, StepTree};

/// Number of log₂ buckets (covers 0 ns .. ~2.1 s).
pub const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram with exact sum and count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket `i` counts samples in `[2^(i-1), 2^i)` ns (bucket 0 = 0).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples in ns (not bucketized).
    pub sum_ns: u64,
    /// Largest sample seen.
    pub max_ns: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let idx = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Approximate quantile (`q` in 0..=1): the inclusive upper bound
    /// `2^i - 1` of the bucket holding the `q`-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max_ns
    }
}

/// The four control-plane phases of a step, each with a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseHistograms {
    /// Decide span → each remote Recv span (one sample per receipt).
    pub broadcast: Histogram,
    /// Path append → first bag open on the same machine.
    pub assembly: Histogram,
    /// Bag open → bag finalize (one sample per executed bag).
    pub execute: Histogram,
    /// Bag open → conditional-send resolution (the recorded latency).
    pub send_resolve: Histogram,
    /// Steps contributing samples.
    pub steps: u64,
}

impl PhaseHistograms {
    /// Derives the per-phase histograms from built step trees.
    pub fn from_trees(trees: &[StepTree]) -> PhaseHistograms {
        let mut h = PhaseHistograms {
            steps: trees.len() as u64,
            ..PhaseHistograms::default()
        };
        for tree in trees {
            let Some(root) = tree.spans.first() else {
                continue;
            };
            // Earliest exec start per machine (for the assembly phase).
            let mut append_start: Vec<(u16, u64)> = Vec::new();
            for s in &tree.spans {
                match s.kind {
                    SpanKind::Recv => {
                        h.broadcast.record(s.start_ns.saturating_sub(root.start_ns));
                    }
                    SpanKind::Append => append_start.push((s.machine, s.start_ns)),
                    SpanKind::Exec => {
                        h.execute.record(s.end_ns.saturating_sub(s.start_ns));
                    }
                    _ => {}
                }
            }
            for &(m, t0) in &append_start {
                if let Some(first_exec) = tree
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Exec && s.machine == m)
                    .map(|s| s.start_ns)
                    .min()
                {
                    h.assembly.record(first_exec.saturating_sub(t0));
                }
            }
            for s in &tree.spans {
                if s.kind != SpanKind::Send {
                    continue;
                }
                if let Some(exec) = tree.spans.iter().find(|e| e.id == s.parent) {
                    h.send_resolve
                        .record(s.start_ns.saturating_sub(exec.start_ns));
                }
            }
        }
        h
    }

    /// Iterates `(phase name, histogram)`.
    pub fn phases(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("broadcast", &self.broadcast),
            ("assembly", &self.assembly),
            ("execute", &self.execute),
            ("send_resolve", &self.send_resolve),
        ]
    }

    /// Renders the histograms in Prometheus text exposition format:
    /// cumulative `_bucket` series with `le` labels, `_sum`/`_count`,
    /// plus p50/p99/max gauges and a `mitos_steps_total` counter.
    pub fn prometheus(&self) -> String {
        let mut series = Vec::new();
        for (name, h) in self.phases() {
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cum += c;
                if c == 0 && i > 0 && (1u64 << i) > h.max_ns.max(1) * 2 {
                    break; // omit empty tail buckets
                }
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                series.push((
                    format!("_bucket{}", labels(&[("phase", &name), ("le", &le)])),
                    cum,
                ));
            }
            let phase = labels(&[("phase", &name)]);
            series.push((
                format!("_bucket{}", labels(&[("phase", &name), ("le", &"+Inf")])),
                h.count,
            ));
            series.push((format!("_sum{phase}"), h.sum_ns));
            series.push((format!("_count{phase}"), h.count));
        }
        let mut out = String::new();
        family(
            &mut out,
            "mitos_phase_latency_ns",
            "Control-plane per-step phase latency.",
            Kind::Histogram,
            series,
        );
        family(
            &mut out,
            "mitos_phase_latency_quantile_ns",
            "Per-phase latency quantiles.",
            Kind::Gauge,
            self.phases().into_iter().flat_map(|(name, h)| {
                [
                    ("0.5", h.quantile(0.5)),
                    ("0.99", h.quantile(0.99)),
                    ("max", h.max_ns),
                ]
                .map(|(q, v)| (labels(&[("phase", &name), ("q", &q)]), v))
            }),
        );
        family(
            &mut out,
            "mitos_steps_total",
            "Path positions traced.",
            Kind::Counter,
            [("", self.steps)],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_matches_latency_stats() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.buckets[0], 1);
        h.record(1);
        assert_eq!(h.buckets[1], 1);
        h.record(2);
        h.record(3);
        assert_eq!(h.buckets[2], 2);
        h.record(1024);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_ns, 1030);
        assert_eq!(h.max_ns, 1024);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 7: [64, 128)
        }
        h.record(1_000_000); // bucket 20
        assert_eq!(h.quantile(0.5), (1 << 7) - 1);
        assert_eq!(h.quantile(0.99), (1 << 7) - 1);
        assert_eq!(h.quantile(1.0), (1 << 20) - 1);
        assert_eq!(h.max_ns, 1_000_000);
    }

    #[test]
    fn prometheus_format_is_cumulative_and_closed() {
        let mut p = PhaseHistograms::default();
        p.execute.record(10);
        p.execute.record(100);
        p.steps = 1;
        let text = p.prometheus();
        assert!(text.contains("mitos_phase_latency_ns_bucket{phase=\"execute\",le=\"+Inf\"} 2"));
        assert!(text.contains("mitos_phase_latency_ns_sum{phase=\"execute\"} 110"));
        assert!(text.contains("mitos_phase_latency_ns_count{phase=\"execute\"} 2"));
        assert!(text.contains("mitos_steps_total 1"));
        // Empty phases still export a closed histogram.
        assert!(text.contains("mitos_phase_latency_ns_bucket{phase=\"broadcast\",le=\"+Inf\"} 0"));
    }
}
