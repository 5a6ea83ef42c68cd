//! The traced run's span recorder: each span has a name, a start, an
//! end and the span that was open when it started. Spans stay in
//! memory until the run ends, then go out as JSON lines.

use crate::stats::{self_time, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call it covers, e.g. `trees.bin`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    /// Nanoseconds since the recorder started (`start` while open).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    fn interval(&self) -> Interval {
        Interval {
            start: self.start,
            end: self.end,
        }
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus children), ms.
    pub self_ms: f64,
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push(span.interval());
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ms += span.nanos() as f64 / 1e6;
            t.self_ms += self_time(span.interval(), kids) as f64 / 1e6;
        }
        out
    }

    /// Write one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `id` and `parent` (`null` at the top level).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut rec = Recorder::default();
        let outer = rec.enter("cell");
        rec.time("fit", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time("eval", || ());
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let totals = rec.totals();
        let cell = totals["cell"];
        let fit = totals["fit"];
        assert_eq!(cell.count, 1);
        assert!(fit.total_ms >= 2.0);
        let kids = fit.total_ms + totals["eval"].total_ms;
        assert!((cell.self_ms - (cell.total_ms - kids)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::default();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }
}
