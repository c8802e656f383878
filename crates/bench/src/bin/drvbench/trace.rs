//! The benchmark's span recorder: spans around the calls *into* each layer
//! (name, start, end, parent, batch id), kept in memory and written on exit
//! as Chrome trace-event JSON — the format `Telemetry::dump_traces` uses, so
//! both open in Perfetto.  Spans inside the program are a later change.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Spans written to the trace file; the rest are counted in its metadata.
/// (A paced run records one span per 1-event frame: all of them are used
/// for the numbers, a prefix is enough to look at.)
const MAX_FILE_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same log.
    pub parent: Option<u32>,
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans.  A disabled log runs the timed closure and records
/// nothing, so the untraced run shares the traced run's code.
pub struct SpanLog {
    lane: String,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(lane: impl Into<String>, origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            lane: lane.into(),
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`SpanLog::close`] ends; children name it as parent.
    pub fn open(&mut self, name: &'static str, batch: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            batch,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(index) = span {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `work` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        batch: u64,
        parent: Option<u32>,
        work: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return work();
        }
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
        });
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds spent in the spans called `name` that started
    /// `within_ns` (from the log's origin).
    pub fn total_ns(&self, name: &str, within_ns: &Range<u64>) -> u64 {
        let counted = |s: &&Span| s.name == name && within_ns.contains(&s.start_ns);
        self.spans
            .iter()
            .filter(counted)
            .map(Span::duration_ns)
            .sum()
    }
}

/// Writes the logs as one Chrome trace: one lane (`tid`) per log.
pub fn write_chrome_trace(path: &Path, logs: &[SpanLog]) -> std::io::Result<()> {
    let total: usize = logs.iter().map(|log| log.spans.len()).sum();
    let mut out = String::with_capacity(256 + total.min(MAX_FILE_SPANS) * 128);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_recorded\":{total},\"spans_written\":{}}},\"traceEvents\":[",
        total.min(MAX_FILE_SPANS)
    );
    for (tid, log) in logs.iter().enumerate() {
        if tid > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            log.lane
        );
    }
    let mut budget = MAX_FILE_SPANS;
    for (tid, log) in logs.iter().enumerate() {
        for span in log.spans.iter().take(budget) {
            let parent = span
                .parent
                .map_or("", |index| log.spans[index as usize].name);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"drvbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"batch\":{},\"parent\":\"{parent}\"}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.batch
            );
        }
        budget = budget.saturating_sub(log.spans.len());
    }
    out.push_str("]}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing_and_enabled_log_nests() {
        let mut off = SpanLog::new("off", Instant::now(), false);
        assert_eq!(off.time("x", 0, None, || 7), 7);
        let root = off.open("batch", 0);
        off.close(root);
        assert!(off.spans().is_empty());

        let mut on = SpanLog::new("staged", Instant::now(), true);
        let root = on.open("batch", 3);
        on.time("lang.intern", 3, root, || std::hint::black_box(1 + 1));
        on.close(root);
        let [batch, child] = on.spans() else {
            panic!("two spans")
        };
        assert_eq!(
            (batch.name, child.name, child.parent, child.batch),
            ("batch", "lang.intern", Some(0), 3)
        );
        assert!(batch.start_ns <= child.start_ns && child.end_ns <= batch.end_ns);
        assert_eq!(
            on.total_ns("lang.intern", &(0..u64::MAX)),
            child.duration_ns()
        );
        assert_eq!(on.total_ns("lang.intern", &(0..child.start_ns)), 0);
    }

    #[test]
    fn chrome_trace_has_a_lane_per_log_and_an_event_per_span() {
        let origin = Instant::now();
        let mut a = SpanLog::new("conn-0", origin, true);
        a.time("send_batch", 1, None, || ());
        let mut b = SpanLog::new("staged", origin, true);
        let root = b.open("batch", 0);
        b.time("engine.submit", 0, root, || ());
        b.close(root);
        let path =
            std::env::temp_dir().join(format!("drvbench-trace-test-{}.json", std::process::id()));
        write_chrome_trace(&path, &[a, b]).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace read back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        assert!(text.contains("\"parent\":\"batch\"") && text.ends_with("]}"));
    }
}
