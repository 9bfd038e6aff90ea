//! Spans recorded from outside the program, around the calls into each
//! layer's public functions (README, "Traced run").
//!
//! Spans are kept in memory and written when the run ends. With the tracer
//! off every call here returns at once, so the end-to-end run and the plain
//! passes of a traced run execute the same code minus the clock reads.

use std::time::Instant;

use crate::json;

/// One timed interval: a call into a layer, or a group of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (a per-layer metric's stem, e.g. `step.backward`).
    pub name: &'static str,
    /// Which of the identical-work items this is (batch or query index; 0
    /// for one-off spans). Repetitions of an item share `name` and `item`.
    pub item: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for the run's root.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder for run `run_id` (all spans of one run share it); `on`
    /// false makes every method a no-op.
    pub fn new(on: bool, run_id: u64) -> Self {
        Self {
            on,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded right now.
    #[cfg(test)]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (a traced run alternates traced and
    /// plain passes to measure its own overhead). No span may be open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.len() <= 1, "toggle only between passes");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, item: usize) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item: item as u32,
            start_ns,
            end_ns: 0,
            parent,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> T) -> T {
        self.begin(name, item);
        let out = f();
        self.end();
        out
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Quiet time of the spans called `name`: the sum over items of the
    /// minimum duration among that item's repetitions (0 if none exist).
    pub fn quiet_secs(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty f64 sum is -0.0, which would print as "-0".
        self.item_minima(name).iter().sum::<f64>() + 0.0
    }

    /// Per-item minimum durations of the spans called `name`, item order.
    pub fn item_minima(&self, name: &str) -> Vec<f64> {
        let mut min: Vec<f64> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let i = s.item as usize;
            if min.len() <= i {
                min.resize(i + 1, f64::INFINITY);
            }
            min[i] = min[i].min(s.secs());
        }
        min
    }

    /// Fraction of the time inside `parent`-named spans that their direct
    /// children cover (1.0 when there are no such spans).
    pub fn child_coverage(&self, parent: &str) -> f64 {
        let (mut total, mut covered) = (0u64, 0u64);
        let selfs = self_times_ns(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            if s.name == parent {
                let dur = s.end_ns - s.start_ns;
                total += dur;
                covered += dur - self_ns;
            }
        }
        if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Renders the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events with microsecond timestamps, each carrying
    /// its id, its parent's id, the run id and its self time.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":");
        json::push_str(&mut out, workload);
        out.push_str(",\"run\":");
        out.push_str(&self.run_id.to_string());
        out.push_str("},\"traceEvents\":[");
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            json::push_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"run\":{},\"item\":{},\"self_us\":{:.3}}}}}",
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.run_id,
                s.item,
                *self_ns as f64 * 1e-3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent are sequential
/// here (one thread), so their clipped durations add up without overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            let covered = end.saturating_sub(start);
            selfs[p as usize] = selfs[p as usize].saturating_sub(covered);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, item: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            item,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", 0, 0, 1000, None),
            span("epoch", 0, 100, 900, Some(0)),
            span("batch", 0, 100, 500, Some(1)),
            span("forward", 0, 110, 200, Some(2)),
            span("backward", 0, 200, 480, Some(2)),
            span("batch", 1, 500, 880, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 1000 - 800);
        assert_eq!(selfs[1], 800 - 400 - 380);
        assert_eq!(selfs[2], 400 - 90 - 280);
        assert_eq!(selfs[3], 90);
        assert_eq!(selfs[4], 280);
        assert_eq!(selfs[5], 380);
        // Self times partition the root's interval.
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span("p", 0, 100, 200, None),
            span("c", 0, 150, 260, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 110]);
    }

    #[test]
    fn recorder_nests_by_open_stack_and_computes_quiet_time() {
        let mut t = Tracer::new(true, 7);
        t.begin("run", 0);
        for rep in 0..3 {
            t.begin("epoch", rep);
            for b in 0..2 {
                t.begin("batch", b);
                t.span("forward", b, || std::hint::black_box(1 + 1));
                t.end();
            }
            t.end();
        }
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 1 + 3 * (1 + 2 * 2));
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].name, s[1].parent), ("epoch", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("batch", Some(1)));
        assert_eq!((s[3].name, s[3].parent), ("forward", Some(2)));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        // Quiet time: min over the 3 repetitions of each of the 2 items.
        let minima = t.item_minima("forward");
        assert_eq!(minima.len(), 2);
        let by_hand: f64 = (0..2u32)
            .map(|b| {
                s.iter()
                    .filter(|s| s.name == "forward" && s.item == b)
                    .map(Span::secs)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert_eq!(t.quiet_secs("forward"), by_hand);
        assert_eq!(t.quiet_secs("no-such-span"), 0.0);
        let c = t.child_coverage("batch");
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false, 1);
        t.begin("run", 0);
        assert_eq!(t.span("x", 0, || 5), 5);
        t.end();
        assert!(t.spans().is_empty());
        assert_eq!(t.child_coverage("run"), 1.0);
    }

    #[test]
    fn chrome_json_has_one_event_per_span_with_parent_links() {
        let mut t = Tracer::new(true, 42);
        t.begin("run", 0);
        t.span("a\"b", 3, || ());
        t.end();
        let js = t.to_chrome_json("w");
        assert_eq!(js.matches("\"ph\":\"X\"").count(), 2);
        assert!(js.contains("\"name\":\"a\\\"b\""));
        assert!(js.contains("\"parent\":null"));
        assert!(js.contains("\"parent\":0,\"run\":42,\"item\":3"));
        assert!(js.starts_with('{') && js.trim_end().ends_with('}'));
    }
}
