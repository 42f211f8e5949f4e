//! Harness-side spans: recorded around calls into the program's public
//! functions, kept in memory, written out when the workload ends.
//!
//! A disabled tracer runs the closure and records nothing, so the timed pass
//! and the traced pass execute the same workload code.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for an operation.
    pub parent: Option<usize>,
    /// Spans of one operation share its id.
    pub op_id: u64,
    /// Whether the span is a constituent re-run after its operation ended
    /// (see [`Tracer::replay_under`]), or inside one.
    pub replay: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op_id: u64,
    /// Depth of open [`Tracer::replay_under`] calls.
    replaying: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
            replaying: 0,
        }
    }

    /// Switches recording on or off between operations, so one pass can
    /// interleave traced and untraced operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` as the next operation: timed on the wall clock whether or
    /// not the tracer records, and, when it does, inside a root span named
    /// `name` whose id every span opened until the next operation shares.
    /// Returns the result, the seconds, and the span's index when recorded.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64, Option<usize>) {
        self.op_id += 1;
        let index = self.enabled.then_some(self.spans.len());
        let t0 = Instant::now();
        let out = self.span(name, f);
        (out, t0.elapsed().as_secs_f64(), index)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let replay = self.replaying > 0;
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op_id: self.op_id, replay });
        self.stack.push(id);
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    /// Like [`Tracer::span`] for a *replayed* constituent: the call runs
    /// after the operation span `parent` has ended (the operation hides its
    /// layers inside one public call, so they are re-run on the same
    /// inputs), and is recorded as that span's child.
    pub fn replay_under<R>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        self.stack.push(parent);
        self.replaying += 1;
        let out = self.span(name, f);
        self.replaying -= 1;
        self.stack.pop();
        out
    }

    /// Seconds of the constituents replayed for the operation span `id`:
    /// its replayed descendants, each counted once at its outermost level.
    /// The operation's duration minus this is the self time of the layer
    /// that hides them.
    pub fn replayed_seconds(&self, id: usize) -> f64 {
        let op_id = self.spans[id].op_id;
        self.spans[id..]
            .iter()
            .take_while(|s| s.op_id == op_id)
            .filter(|s| s.replay && s.parent.is_some_and(|p| !self.spans[p].replay))
            .map(Span::seconds)
            .sum()
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("replay", Json::Bool(s.replay)),
                ])
                .to_line()
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        // One span per line: the file is read by eye as often as by tools.
        let text = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"clock\": \"ns since the tracer was created\",\n  \"spans\": [\n    {spans}\n  ]\n}}\n"
        );
        std::fs::write(path, text)
    }
}
