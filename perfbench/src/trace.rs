//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in traced iterations; an untraced iteration
//! pays one branch per call site. The spans are kept in memory and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `sim.run`.
    pub name: &'static str,
    /// The iteration the span belongs to; spans of one iteration share it.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next iteration: a new run id, with recording on or off.
    pub fn next_run(&mut self, enabled: bool) {
        self.run += 1;
        self.enabled = enabled;
        // A panicking iteration may leave spans open; they stay unfinished.
        self.open.clear();
    }

    /// The current iteration's run id.
    pub fn run(&self) -> u32 {
        self.run
    }

    /// Opens a span nested in the innermost open one. Returns `None`
    /// when recording is off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        let Some(index) = span else { return };
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(index) {
            s.end_ns = now;
        }
        if self.open.last() == Some(&index) {
            self.open.pop();
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// For each run in `runs`, the summed duration of its finished spans
    /// named `name`, in seconds.
    pub fn per_run_secs(&self, runs: &[u32], name: &str) -> Vec<f64> {
        runs.iter()
            .map(|&run| {
                self.spans
                    .iter()
                    .filter(|s| s.run == run && s.name == name && s.end_ns > 0)
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_disabled_runs_record_nothing() {
        let mut t = Tracer::new();
        t.next_run(false);
        let off = t.begin("a");
        assert!(off.is_none());
        t.end(off);
        t.next_run(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans.iter().all(|s| s.run == 2 && s.end_ns >= s.start_ns));
        assert_eq!(t.per_run_secs(&[1, 2], "inner").len(), 2);
        assert_eq!(t.per_run_secs(&[1], "inner"), vec![0.0]);
    }
}
