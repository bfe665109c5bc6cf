//! In-memory spans for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Every span carries the id of the request it serves and the id of its
//! parent span, so a layer's self time is its duration minus that of its
//! children. A tracer that is off records nothing, so one request path
//! serves traced and untraced runs alike.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder with one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

/// The id of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Open a span named `name` for `request`, under `parent` if given.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close an open span and return its duration in seconds (0 when the
    /// tracer is off).
    pub fn close(&mut self, id: SpanId) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: the self time of every span of that name, in seconds:
    /// its duration minus the summed durations of its children. A child may
    /// be a replay of a stage of its parent, run right after it (see
    /// `plan_warm`), so children are summed rather than clipped to the
    /// parent's interval.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            out.entry(span.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        };
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 60),
            span("c", Some(1), 20, 25),
        ];
        let selfs = t.self_times();
        assert!((selfs["root"][0] - 50e-9).abs() < 1e-15);
        assert!((selfs["a"][0] - 25e-9).abs() < 1e-15);
        assert!((selfs["b"][0] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("root", 0, None);
        assert_eq!(t.time("child", 0, Some(root), || 7), 7);
        assert_eq!(t.close(root), 0.0);
        assert_eq!(t.len(), 0);
    }
}
