//! The `SLNGTRACE v1` trace format: record types, streaming writer,
//! strict and tolerant readers. See the [module docs](crate::workload)
//! for the grammar.

// The readers parse untrusted trace files and wire lines: malformed
// input must be an error, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

use crate::error::SlingError;
use crate::lifecycle::fnv1a;

/// Leading magic token of the header line.
pub const TRACE_MAGIC: &str = "SLNGTRACE";

/// The format version this module writes (and the only one it reads).
pub const TRACE_VERSION: &str = "v1";

/// The request verb a record captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceVerb {
    /// `PAIR <u> <v>` — single-pair score.
    Pair,
    /// `SOURCE <u>` — single-source vector.
    Source,
    /// `TOPK <u> <k>` — top-k most similar.
    TopK,
    /// One pair of a `BATCH` request (batches record one line per pair).
    Batch,
}

impl TraceVerb {
    /// Wire token (also the verb-mix label in reports).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceVerb::Pair => "PAIR",
            TraceVerb::Source => "SOURCE",
            TraceVerb::TopK => "TOPK",
            TraceVerb::Batch => "BATCH",
        }
    }

    fn parse(tok: &str) -> Option<TraceVerb> {
        match tok {
            "PAIR" => Some(TraceVerb::Pair),
            "SOURCE" => Some(TraceVerb::Source),
            "TOPK" => Some(TraceVerb::TopK),
            "BATCH" => Some(TraceVerb::Batch),
            _ => None,
        }
    }
}

/// The key(s) a record's request addressed, shaped by verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKey {
    /// `u,v` — a node pair (`PAIR` and per-pair `BATCH` records).
    Pair(u32, u32),
    /// `u` — a single source node (`SOURCE`).
    Node(u32),
    /// `u:k` — a source node and result count (`TOPK`).
    NodeK(u32, u32),
}

impl TraceKey {
    /// The canonicalized `(min, max)` pair this key warms in the
    /// single-pair result cache: pair keys canonicalize directly,
    /// node-addressed verbs degrade to the identity pair (which still
    /// prefetches and primes the node's entry list).
    pub fn warm_pair(self) -> (u32, u32) {
        match self {
            TraceKey::Pair(u, v) => (u.min(v), u.max(v)),
            TraceKey::Node(u) | TraceKey::NodeK(u, _) => (u, u),
        }
    }

    fn encode(self, out: &mut String) {
        match self {
            TraceKey::Pair(u, v) => {
                let _ = write!(out, "{u},{v}");
            }
            TraceKey::Node(u) => {
                let _ = write!(out, "{u}");
            }
            TraceKey::NodeK(u, k) => {
                let _ = write!(out, "{u}:{k}");
            }
        }
    }

    fn parse(verb: TraceVerb, tok: &str) -> Option<TraceKey> {
        match verb {
            TraceVerb::Pair | TraceVerb::Batch => {
                let (u, v) = tok.split_once(',')?;
                Some(TraceKey::Pair(u.parse().ok()?, v.parse().ok()?))
            }
            TraceVerb::Source => Some(TraceKey::Node(tok.parse().ok()?)),
            TraceVerb::TopK => {
                let (u, k) = tok.split_once(':')?;
                Some(TraceKey::NodeK(u.parse().ok()?, k.parse().ok()?))
            }
        }
    }
}

/// How the server answered the recorded request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceOutcome {
    /// Served a result.
    Ok,
    /// Answered `ERR` (engine or protocol failure).
    Err,
    /// Shed by overload admission control (`ERR overloaded`).
    Shed,
    /// Rejected past its deadline budget (`ERR deadline`).
    Deadline,
}

impl TraceOutcome {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Err => "err",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Deadline => "deadline",
        }
    }

    fn parse(tok: &str) -> Option<TraceOutcome> {
        match tok {
            "ok" => Some(TraceOutcome::Ok),
            "err" => Some(TraceOutcome::Err),
            "shed" => Some(TraceOutcome::Shed),
            "deadline" => Some(TraceOutcome::Deadline),
            _ => None,
        }
    }
}

/// One captured request: when (relative to the trace base), what, to
/// which key, how it ended, how long it took, and against which engine
/// epoch it ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Microseconds since the trace's `base_us` origin.
    pub t_us: u64,
    /// Request verb.
    pub verb: TraceVerb,
    /// Request key(s).
    pub key: TraceKey,
    /// How the request was answered.
    pub outcome: TraceOutcome,
    /// Served latency in microseconds.
    pub latency_us: u32,
    /// Engine generation epoch the request ran against.
    pub epoch: u64,
}

/// A fully read trace: the capture origin and its records in time order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Wall-clock origin of the capture (unix microseconds).
    pub base_us: u64,
    /// Records, ascending `t_us`.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Time span covered by the records (0 for empty traces).
    pub fn duration_us(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.t_us.saturating_sub(first.t_us),
            _ => 0,
        }
    }
}

/// Append one encoded record line (including the trailing newline) to
/// `out`. `last_t_us` is the previous record's timestamp — the line
/// stores the delta. Exposed so the server's `TRACE` wire verb and the
/// recorder share one encoder with the file writer.
pub fn encode_record(rec: &TraceRecord, last_t_us: u64, out: &mut String) {
    let start = out.len();
    let dt = rec.t_us.saturating_sub(last_t_us);
    let _ = write!(out, "+{dt} {} ", rec.verb.as_str());
    rec.key.encode(out);
    let _ = write!(
        out,
        " {} {} e{}",
        rec.outcome.as_str(),
        rec.latency_us,
        rec.epoch
    );
    let crc = fnv1a(&out.as_bytes()[start..]) as u32;
    let _ = writeln!(out, " #{crc:08x}");
}

/// Parse one record line (without its newline) against the running
/// timestamp `last_t_us`, verifying the checksum.
pub fn parse_record(line: &str, last_t_us: u64) -> Result<TraceRecord, SlingError> {
    let bad = |why: &str| SlingError::CorruptIndex(format!("trace record {line:?}: {why}"));
    let (body, crc_hex) = line
        .rsplit_once(" #")
        .ok_or_else(|| bad("missing checksum"))?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| bad("malformed checksum"))?;
    if crc_hex.len() != 8 || fnv1a(body.as_bytes()) as u32 != want {
        return Err(bad("checksum mismatch"));
    }
    let mut tokens = body.split_ascii_whitespace();
    let dt: u64 = tokens
        .next()
        .and_then(|t| t.strip_prefix('+'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("malformed dt"))?;
    let verb = tokens
        .next()
        .and_then(TraceVerb::parse)
        .ok_or_else(|| bad("unknown verb"))?;
    let key = tokens
        .next()
        .and_then(|t| TraceKey::parse(verb, t))
        .ok_or_else(|| bad("malformed key"))?;
    let outcome = tokens
        .next()
        .and_then(TraceOutcome::parse)
        .ok_or_else(|| bad("unknown outcome"))?;
    let latency_us: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("malformed latency"))?;
    let epoch: u64 = tokens
        .next()
        .and_then(|t| t.strip_prefix('e'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("malformed epoch"))?;
    if tokens.next().is_some() {
        return Err(bad("trailing tokens"));
    }
    Ok(TraceRecord {
        t_us: last_t_us + dt,
        verb,
        key,
        outcome,
        latency_us,
        epoch,
    })
}

/// Streaming trace writer: emits the header on construction, then one
/// line per [`TraceWriter::write`], delta-encoding timestamps. The
/// writer never seeks, so it composes with `BufWriter`, sockets, and
/// append-mode files alike.
pub struct TraceWriter<W: Write> {
    out: W,
    last_t_us: u64,
    records: u64,
    bytes: u64,
    line: String,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `out`, writing the `SLNGTRACE v1` header for origin
    /// `base_us` immediately.
    pub fn new(mut out: W, base_us: u64) -> io::Result<Self> {
        let header = format!("{TRACE_MAGIC} {TRACE_VERSION} base_us={base_us}\n");
        out.write_all(header.as_bytes())?;
        Ok(TraceWriter {
            out,
            last_t_us: 0,
            records: 0,
            bytes: header.len() as u64,
            line: String::new(),
        })
    }

    /// Append one record. Timestamps must be non-decreasing; a
    /// regression is clamped to the previous timestamp rather than
    /// corrupting the running delta.
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.line.clear();
        encode_record(rec, self.last_t_us, &mut self.line);
        self.out.write_all(self.line.as_bytes())?;
        self.last_t_us = self.last_t_us.max(rec.t_us);
        self.records += 1;
        self.bytes += self.line.len() as u64;
        Ok(())
    }

    /// Records written so far (header excluded).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Bytes written so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Finish and hand back the underlying writer (flushed).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// The underlying writer (for fsync before a rename publish).
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

/// Streaming strict reader: parses the header on construction, then
/// yields one `Result<TraceRecord, _>` per line. Works over any
/// [`BufRead`], so fragmented sources (sockets, chunked readers) parse
/// identically to whole files.
pub struct TraceReader<R: BufRead> {
    input: R,
    base_us: u64,
    last_t_us: u64,
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    /// Read and validate the header line.
    pub fn new(mut input: R) -> Result<Self, SlingError> {
        let mut line = String::new();
        input.read_line(&mut line).map_err(SlingError::Io)?;
        let base_us = parse_header(line.trim_end_matches(['\n', '\r']))?;
        Ok(TraceReader {
            input,
            base_us,
            last_t_us: 0,
            line,
        })
    }

    /// The capture origin from the header (unix microseconds).
    pub fn base_us(&self) -> u64 {
        self.base_us
    }
}

fn parse_header(line: &str) -> Result<u64, SlingError> {
    let bad = |why: String| SlingError::CorruptIndex(why);
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some(TRACE_MAGIC) => {}
        _ => return Err(bad(format!("not a trace: header {line:?}"))),
    }
    match tokens.next() {
        Some(TRACE_VERSION) => {}
        Some(other) => {
            return Err(bad(format!(
                "unsupported trace version {other:?} (this build reads {TRACE_VERSION})"
            )))
        }
        None => return Err(bad("trace header missing version".to_string())),
    }
    let base_us = tokens
        .next()
        .and_then(|t| t.strip_prefix("base_us="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("trace header missing base_us: {line:?}")))?;
    Ok(base_us)
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, SlingError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.line.clear();
        match self.input.read_line(&mut self.line) {
            Ok(0) => None,
            Ok(_) => {
                let line = self.line.trim_end_matches(['\n', '\r']);
                if line.is_empty() {
                    return self.next();
                }
                // A line without its newline is a torn tail from an
                // in-flight writer — corrupt for the strict reader.
                if !self.line.ends_with('\n') {
                    return Some(Err(SlingError::CorruptIndex(format!(
                        "trace truncated mid-record: {line:?}"
                    ))));
                }
                match parse_record(line, self.last_t_us) {
                    Ok(rec) => {
                        self.last_t_us = rec.t_us;
                        Some(Ok(rec))
                    }
                    Err(e) => Some(Err(e)),
                }
            }
            Err(e) => Some(Err(SlingError::Io(e))),
        }
    }
}

/// Read a whole trace strictly: any malformed, checksum-failing, or
/// truncated line is an error. Replay uses this — driving a damaged
/// trace would silently misrepresent the workload.
pub fn read_trace(input: impl BufRead) -> Result<Trace, SlingError> {
    let mut reader = TraceReader::new(input)?;
    let base_us = reader.base_us();
    let mut records = Vec::new();
    for rec in reader.by_ref() {
        records.push(rec?);
    }
    Ok(Trace { base_us, records })
}

/// [`read_trace`] over a file path.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Trace, SlingError> {
    let file = std::fs::File::open(path).map_err(SlingError::Io)?;
    read_trace(std::io::BufReader::new(file))
}

/// Read a trace tolerantly: stop at the first damaged line, returning
/// every record before it plus the count of lines dropped (the damaged
/// line and everything after it). Returns `None` if the header itself
/// is unreadable. Warm-up and `traffic-report` use this: a torn tail
/// from an in-flight recorder degrades to fewer records, never to an
/// error.
pub fn read_trace_tolerant(input: impl BufRead) -> (Option<Trace>, usize) {
    let mut reader = match TraceReader::new(input) {
        Ok(r) => r,
        Err(_) => return (None, 0),
    };
    let base_us = reader.base_us();
    let mut records = Vec::new();
    let mut dropped = 0usize;
    for rec in reader.by_ref() {
        match rec {
            Ok(rec) => records.push(rec),
            Err(_) => {
                dropped += 1;
                // Count the rest of the file as dropped without parsing
                // it: a damaged running-delta makes every later
                // timestamp wrong even if its line parses.
                dropped += reader.count();
                break;
            }
        }
    }
    (Some(Trace { base_us, records }), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t_us: 10,
                verb: TraceVerb::Pair,
                key: TraceKey::Pair(3, 77),
                outcome: TraceOutcome::Ok,
                latency_us: 12,
                epoch: 1,
            },
            TraceRecord {
                t_us: 150,
                verb: TraceVerb::Source,
                key: TraceKey::Node(5),
                outcome: TraceOutcome::Ok,
                latency_us: 340,
                epoch: 1,
            },
            TraceRecord {
                t_us: 151,
                verb: TraceVerb::TopK,
                key: TraceKey::NodeK(9, 10),
                outcome: TraceOutcome::Err,
                latency_us: 3,
                epoch: 2,
            },
            TraceRecord {
                t_us: 400,
                verb: TraceVerb::Batch,
                key: TraceKey::Pair(0, 1),
                outcome: TraceOutcome::Shed,
                latency_us: 0,
                epoch: 2,
            },
            TraceRecord {
                t_us: 400,
                verb: TraceVerb::Pair,
                key: TraceKey::Pair(8, 8),
                outcome: TraceOutcome::Deadline,
                latency_us: 0,
                epoch: 2,
            },
        ]
    }

    fn write_sample(base_us: u64) -> Vec<u8> {
        let mut writer = TraceWriter::new(Vec::new(), base_us).unwrap();
        for rec in sample_records() {
            writer.write(&rec).unwrap();
        }
        writer.into_inner().unwrap()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let bytes = write_sample(777);
        let trace = read_trace(&bytes[..]).unwrap();
        assert_eq!(trace.base_us, 777);
        assert_eq!(trace.records, sample_records());
        assert_eq!(trace.duration_us(), 390);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let writer = TraceWriter::new(Vec::new(), 42).unwrap();
        assert_eq!(writer.records_written(), 0);
        let bytes = writer.into_inner().unwrap();
        let trace = read_trace(&bytes[..]).unwrap();
        assert_eq!(trace.base_us, 42);
        assert!(trace.records.is_empty());
        assert_eq!(trace.duration_us(), 0);
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let mut writer = TraceWriter::new(Vec::new(), 0).unwrap();
        let header_bytes = writer.bytes_written();
        assert!(header_bytes > 0);
        for rec in sample_records() {
            writer.write(&rec).unwrap();
        }
        assert_eq!(writer.records_written(), 5);
        let total = writer.bytes_written();
        let bytes = writer.into_inner().unwrap();
        assert_eq!(bytes.len() as u64, total);
    }

    #[test]
    fn checksum_catches_a_flipped_byte() {
        let bytes = write_sample(0);
        let text = String::from_utf8(bytes).unwrap();
        // Corrupt a key digit in the middle of the second record.
        let corrupted = text.replacen("SOURCE 5", "SOURCE 6", 1);
        assert_ne!(text, corrupted);
        let err = read_trace(corrupted.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_tail_is_strict_error_but_tolerated() {
        let bytes = write_sample(0);
        // Chop mid-way through the final line (no trailing newline).
        let cut = bytes.len() - 5;
        let torn = &bytes[..cut];
        assert!(read_trace(torn).is_err());
        let (trace, dropped) = read_trace_tolerant(torn);
        let trace = trace.unwrap();
        assert_eq!(trace.records, sample_records()[..4].to_vec());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn tolerant_reader_stops_at_interior_damage() {
        let bytes = write_sample(0);
        let text = String::from_utf8(bytes).unwrap();
        let corrupted = text.replacen("+140", "+141", 1); // record 2's delta
        let (trace, dropped) = read_trace_tolerant(corrupted.as_bytes());
        let trace = trace.unwrap();
        assert_eq!(trace.records, sample_records()[..1].to_vec());
        // The damaged line plus the three after it.
        assert_eq!(dropped, 4);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let bytes = b"SLNGTRACE v2 base_us=0\n";
        let err = read_trace(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
        let (trace, _) = read_trace_tolerant(&bytes[..]);
        assert!(trace.is_none());
        assert!(read_trace(&b"not a trace\n"[..]).is_err());
        assert!(read_trace(&b""[..]).is_err());
    }

    #[test]
    fn wire_encoding_matches_file_encoding() {
        // `encode_record` / `parse_record` are the same functions the
        // writer and reader use, so a record relayed over the TRACE
        // wire verb reparses bit-identically.
        let rec = sample_records()[0];
        let mut line = String::new();
        encode_record(&rec, 0, &mut line);
        let parsed = parse_record(line.trim_end(), 0).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn out_of_order_timestamp_clamps_monotone() {
        let mut writer = TraceWriter::new(Vec::new(), 0).unwrap();
        let mut a = sample_records()[0];
        a.t_us = 100;
        let mut b = sample_records()[0];
        b.t_us = 40; // regressed clock
        writer.write(&a).unwrap();
        writer.write(&b).unwrap();
        let bytes = writer.into_inner().unwrap();
        let trace = read_trace(&bytes[..]).unwrap();
        assert_eq!(trace.records[1].t_us, 100, "regression clamps, not wraps");
    }
}
