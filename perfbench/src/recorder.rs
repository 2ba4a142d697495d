//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API: name (`layer/what`), start, end, parent span, and the id
//! of the operation the call belongs to. Spans stay in memory until the
//! run ends; self time is a span's duration minus the part its direct
//! children cover (calls are single-threaded and strictly nested, so
//! children never overlap). A disabled recorder takes no timestamps.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer/what`; the layer is the part before the `/`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id (see [`Recorder::begin_op`]).
    pub op: usize,
    /// Calls this span stands for (above 1 only for merged memo hits).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `/`.
    pub fn layer(&self) -> &'static str {
        self.name.split('/').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (a no-op handle when recording is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

const NONE: usize = usize::MAX;

/// Records spans when enabled; costs a branch per call when not.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    op_labels: Vec<&'static str>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_labels: vec!["setup"],
        }
    }

    /// Starts a new operation: later spans carry its id. Id 0 is the
    /// set-up before the first call.
    pub fn begin_op(&mut self, label: &'static str) {
        self.op_labels.push(label);
        self.op = self.op_labels.len() - 1;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            calls: 1,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end;
    }

    /// Closes every span opened since `id`, then `id` itself: recovery
    /// after a call panicked with spans still open.
    pub fn close_through(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id.0 {
                break;
            }
        }
    }

    /// Closes a leaf span under a name chosen after the call returned
    /// (e.g. whether a memo lookup hit). With `merge`, a span directly
    /// following a sibling leaf of the same name extends that sibling
    /// instead of adding a span, so a run of memo hits becomes one span
    /// whose `calls` counts them; the loop overhead between those calls
    /// is attributed to the run.
    pub fn close_as(&mut self, id: SpanId, name: &'static str, merge: bool) {
        if id.0 == NONE {
            return;
        }
        self.close(id);
        let i = id.0;
        self.spans[i].name = name;
        if merge && i == self.spans.len() - 1 && i > 0 {
            let (prev, cur) = (self.spans[i - 1], self.spans[i]);
            if prev.name == name && prev.parent == cur.parent && prev.op == cur.op {
                self.spans[i - 1].end_ns = cur.end_ns;
                self.spans[i - 1].calls += 1;
                self.spans.pop();
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, index-aligned with
    /// [`Recorder::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Sum of self times, in milliseconds, of spans passing `keep`.
    pub fn self_ms_where(&self, keep: impl Fn(&Span, &'static str) -> bool) -> f64 {
        let selfs = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| keep(s, self.op_labels[s.op]))
            .map(|(_, t)| *t)
            .sum();
        ns as f64 / 1e6
    }

    /// The spans as Chrome trace-event JSON (opens in Perfetto or
    /// `chrome://tracing`), one event per line.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"op\":{},\"op_label\":\"{}\",\"calls\":{},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                self.op_labels[s.op],
                s.calls,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::off();
        let id = r.open("a/b");
        r.close_as(id, "a/c", true);
        assert_eq!(r.span("a/d", || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::on();
        let root = r.open("bench/root");
        r.span("x/child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(root);
        let selfs = r.self_ns();
        assert_eq!(selfs[0] + r.spans()[1].dur_ns(), r.spans()[0].dur_ns());
        assert_eq!(selfs[1], r.spans()[1].dur_ns());
    }

    #[test]
    fn consecutive_hits_merge_into_one_span() {
        let mut r = Recorder::on();
        let root = r.open("bench/root");
        for _ in 0..3 {
            let id = r.open("core_system/op_cost");
            r.close_as(id, "core_system/op_cost_hit", true);
        }
        let id = r.open("core_system/op_cost");
        r.close_as(id, "tiling_flash_sim/gemv_fill", true);
        let id = r.open("core_system/op_cost");
        r.close_as(id, "core_system/op_cost_hit", true);
        r.close(root);
        let names: Vec<_> = r.spans().iter().map(|s| (s.name, s.calls)).collect();
        assert_eq!(
            names,
            vec![
                ("bench/root", 1),
                ("core_system/op_cost_hit", 3),
                ("tiling_flash_sim/gemv_fill", 1),
                ("core_system/op_cost_hit", 1),
            ]
        );
    }
}
