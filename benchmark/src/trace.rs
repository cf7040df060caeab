//! Span recorder for the traced pass. Spans are recorded by the
//! benchmark's own code around each call into a layer, kept in memory,
//! and written as Chrome-trace JSON when the workload ends. With tracing
//! off every call is a single branch, so the end-to-end pass records
//! nothing.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spans of one job (or one replay pass) share a run id.
    pub run_id: u32,
    /// Elements, bytes or decisions crossing this boundary.
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type Open = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span with no parent
    /// starts a new run.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        if self.open.is_empty() {
            self.run_id += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            count: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span` (and anything left open inside it).
    pub fn end(&mut self, span: Open, count: u64) {
        let Some(id) = span else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].count = count;
    }

    /// Runs `f` inside a span; `f` returns its result and the span's count.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.begin(name);
        let (value, count) = f();
        self.end(open, count);
        value
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name, in first-seen order: `(name, spans, total ns, self ns)`.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0, 0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.end_ns - s.start_ns;
            row.3 += own;
        }
        rows
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, one track per run.
    pub fn chrome_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run_id\":{},\"workload\":\"{workload}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}}}}}",
                s.name,
                s.run_id,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run_id,
                s.start_ns,
                s.end_ns,
                own[i],
                s.count,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("job", || (7, 3));
        assert_eq!((v, t.len()), (7, 0));
    }

    #[test]
    fn parents_runs_counts_and_self_time() {
        let mut t = Tracer::new(true);
        let job = t.begin("job");
        t.span("lang.parse", || ((), 11));
        t.span("ir.compile", || ((), 22));
        t.end(job, 1);
        t.span("replay", || ((), 0));

        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!((s[0].run_id, s[2].run_id, s[3].run_id), (1, 1, 2));
        assert_eq!((s[0].count, s[1].count, s[2].count), (1, 11, 22));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let own = t.self_ns();
        let children = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(own[0], (s[0].end_ns - s[0].start_ns) - children);
        assert_eq!(
            t.summary()[0],
            ("job", 1, s[0].end_ns - s[0].start_ns, own[0])
        );
        assert_eq!(t.summary()[1].1, 1);

        let json = t.chrome_json("w");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
