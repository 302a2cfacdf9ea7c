//! In-memory spans for the traced run. Spans are recorded in the
//! benchmark's own code around each call into a layer, kept in memory
//! while the run measures, and written out as JSON lines at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub duration: f64,
}

/// Collects spans; ids are indices into the span list.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder started.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a finished interval and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        duration: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            duration,
        });
        id
    }

    /// Set the duration of a span recorded before its end was known.
    pub fn set_duration(&mut self, id: usize, duration: f64) {
        self.spans[id].duration = duration;
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let start = self.offset(t0);
        self.record(name, parent, start, t0.elapsed().as_secs_f64());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children never overlap one another here).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration;
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(s.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let line = serde_json::json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start,
                "duration_s": s.duration,
                "self_s": own,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new();
        let root = r.record("request", None, 0.0, 10.0);
        let rtt = r.record("http.round_trip", Some(root), 1.0, 9.0);
        r.record("gen.lag", Some(root), 0.0, 1.0);
        r.record("worker.compute", Some(rtt), 2.0, 5.0);
        assert_eq!(r.self_times(), vec![0.0, 4.0, 1.0, 5.0]);
        let by_name = r.self_time_by_name();
        assert_eq!(by_name["http.round_trip"], 4.0);
        // Self times of a tree add up to its root's duration.
        assert_eq!(by_name.values().sum::<f64>(), 10.0);
    }
}
