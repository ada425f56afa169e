//! In-memory spans, written out when the run ends.
//!
//! A span is `(name, id, n, parent, start, end)`. `id` is the position
//! of a read in the workload's read sequence and is shared by every span
//! of that read: the `read` span around the real call into the fleet,
//! and the stage spans recorded when the same key is replayed through
//! one layer's public function. Stage spans name `read` as their parent.
//! `n` > 1 marks a stage timed over `n` consecutive reads starting at
//! `id`, used where one clock read costs as much as the stage itself.

use ft_cache::fleet::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans are kept for reads `0..SPAN_READS` of the sequence; later reads
/// still feed every metric. Bounds the file at a few megabytes.
pub const SPAN_READS: u64 = 4096;

struct Span {
    name: &'static str,
    id: u64,
    n: u32,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        n: u32,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if id >= SPAN_READS {
            return;
        }
        self.spans.push(Span {
            name,
            id,
            n,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write `header` (the provenance line) then one JSON object per span.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let j = Json::obj()
                .s("name", s.name)
                .u("id", s.id)
                .u("n", u64::from(s.n))
                .u("start_ns", s.start_ns)
                .u("end_ns", s.end_ns);
            let j = match s.parent {
                Some(p) => j.s("parent", p),
                None => j,
            };
            writeln!(out, "{}", j.render())?;
        }
        out.flush()
    }
}
