//! In-memory spans, written out when the run ends.
//!
//! A span has a name, a start and end, the span that caused it, and the
//! id of the request it belongs to (0 for set-up work). The benchmark
//! records them around its own calls into each layer; nothing inside
//! the program is instrumented.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn new(
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        }
    }
}

/// Write `spans` as tab-separated lines, timestamps in nanoseconds since
/// `epoch`.
pub fn write_tsv(path: &Path, epoch: Instant, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos();
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.request,
            s.name,
            ns(s.start),
            ns(s.end)
        )?;
    }
    out.flush()
}
