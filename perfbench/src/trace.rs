//! Spans recorded from outside the simulator, and the wrappers that
//! record them around its three pluggable interfaces.
//!
//! A traced run wraps the policy, the job source, and the completion
//! sink; the benchmark opens spans around engine construction, each
//! simulated-hour slice, each snapshot and resume, and the final
//! `run`. Spans stay in memory; [`Tracer::write_jsonl`] writes them out
//! after the run. The wrappers forward every call unchanged, so a traced
//! run's outcome must be byte-identical to an untraced one — the
//! benchmark checks exactly that.

use epa_sched::view::{Decision, Policy, SchedView};
use epa_simcore::snap::{Fingerprint, SnapReader, SnapWriter, SnapshotError};
use epa_workload::job::Job;
use epa_workload::source::JobSource;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.policies.round`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Which repetition of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with a stack of open spans: a span begun while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    /// Facts about the scheduling rounds the policy wrapper timed.
    pub rounds: RoundStats,
}

/// A tracer shared between the benchmark and the wrappers the engine owns
/// (the source and sink must be `Send`).
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new(run: u32) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run,
            rounds: RoundStats::default(),
        }
    }

    /// Wraps a fresh tracer for sharing with the wrappers.
    #[must_use]
    pub fn shared(run: u32) -> SharedTracer {
        Arc::new(Mutex::new(Tracer::new(run)))
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let start_ns = self.ns(Instant::now());
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records an already-timed call as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        Ok(())
    }
}

/// Opens a span on a shared tracer.
pub fn begin(tracer: &SharedTracer, name: &'static str) -> u32 {
    tracer.lock().expect("tracer lock poisoned").begin(name)
}

/// Closes a span on a shared tracer.
pub fn end(tracer: &SharedTracer, id: u32) {
    tracer.lock().expect("tracer lock poisoned").end(id);
}

fn leaf(tracer: &SharedTracer, name: &'static str, start: Instant) {
    let stop = Instant::now();
    tracer
        .lock()
        .expect("tracer lock poisoned")
        .leaf(name, start, stop);
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one parent never overlap (the engine is single
/// threaded), so the covered time is the sum of their durations.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-round facts the policy wrapper keeps beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundStats {
    /// Scheduling rounds (calls to `Policy::schedule`).
    pub rounds: u64,
    /// Rounds that returned at least one decision.
    pub useful: u64,
    /// Sum of the queue lengths the rounds saw.
    pub queue_sum: u64,
    /// Longest queue a round saw.
    pub queue_max: u64,
}

impl RoundStats {
    fn record(&mut self, queue_len: usize, useful: bool) {
        let q = queue_len as u64;
        self.rounds += 1;
        self.useful += u64::from(useful);
        self.queue_sum += q;
        self.queue_max = self.queue_max.max(q);
    }
}

/// Times every `schedule` call of the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: SharedTracer,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn new(inner: Box<dyn Policy>, tracer: SharedTracer) -> Self {
        TimedPolicy { inner, tracer }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SchedView<'_>, queue: &[Job]) -> Vec<Decision> {
        let start = Instant::now();
        let decisions = self.inner.schedule(view, queue);
        let stop = Instant::now();
        let mut t = self.tracer.lock().expect("tracer lock poisoned");
        t.leaf("sched.policies.round", start, stop);
        t.rounds.record(queue.len(), !decisions.is_empty());
        decisions
    }
}

/// Times every `next_job` pull of the wrapped source; every other call
/// is forwarded untimed.
pub struct TimedSource {
    inner: Box<dyn JobSource>,
    tracer: SharedTracer,
}

impl TimedSource {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn new(inner: Box<dyn JobSource>, tracer: SharedTracer) -> Self {
        TimedSource { inner, tracer }
    }
}

impl JobSource for TimedSource {
    fn next_job(&mut self) -> Option<Job> {
        let start = Instant::now();
        let job = self.inner.next_job();
        leaf(&self.tracer, "workload.pull", start);
        job
    }

    fn emitted(&self) -> u64 {
        self.inner.emitted()
    }

    fn total_hint(&self) -> Option<u64> {
        self.inner.total_hint()
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        self.inner.fingerprint(fp);
    }

    fn snapshot_cursor(&self, w: &mut SnapWriter) {
        self.inner.snapshot_cursor(w);
    }

    fn restore_cursor(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_cursor(r)
    }
}

/// Times every write into the wrapped completion sink.
pub struct TimedSink {
    inner: Box<dyn Write + Send>,
    tracer: SharedTracer,
}

impl TimedSink {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn new(inner: Box<dyn Write + Send>, tracer: SharedTracer) -> Self {
        TimedSink { inner, tracer }
    }
}

impl Write for TimedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf);
        leaf(&self.tracer, "sched.engine.sink_write", start);
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] > hour [10,60] > round [20,30], round [40,45];
        // run > finalize [70,95] > pull [80,81].
        let spans = vec![
            span("run", 0, 100, None),
            span("hour", 10, 60, Some(0)),
            span("round", 20, 30, Some(1)),
            span("round", 40, 45, Some(1)),
            span("finalize", 70, 95, Some(0)),
            span("pull", 80, 81, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans), vec![25, 35, 10, 5, 24, 1]);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let spans = vec![
            span("run", 5, 1005, None),
            span("a", 100, 400, Some(0)),
            span("b", 150, 250, Some(1)),
            span("c", 500, 900, Some(0)),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn tracer_nests_spans_and_parents_leaves() {
        let mut t = Tracer::new(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        let now = Instant::now();
        t.leaf("leaf", now, now);
        t.end(inner);
        t.end(outer);
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("writes to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"leaf\""));
        assert!(text.contains("\"parent\":1"));
    }
}
