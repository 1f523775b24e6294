//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer's public functions, recorded from
//! the benchmark's own code: name, start, end, parent span and run id.
//! Spans stay in memory while the benchmark runs and are written out as
//! JSON lines when it ends. Nothing inside the program is instrumented.

use mcs::simcore::codec::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed region.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.replay`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The traced iteration this span belongs to.
    pub run: u32,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans recorded from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Seconds spent in the span named `name` of the current run (summed
    /// when the name repeats); 0 when no such span was recorded.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == self.run && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(span.name.clone())),
                ("start_ns".into(), Json::UInt(span.start_ns)),
                ("end_ns".into(), Json::UInt(span.end_ns)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("run".into(), Json::UInt(u64::from(span.run))),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}
