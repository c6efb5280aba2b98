//! In-memory spans of the traced run, written out as JSON lines at the end.

use crate::loadgen::Record;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// One span: offsets from the run epoch, the index of its parent in the
/// same span list, and the request it belongs to.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Appends the client-side spans of one request: `request` (from the
/// scheduled send to the decoded answer) with children `encode`, `send`,
/// `receive` (waiting for the first answer bytes) and `decode`.
pub fn client_spans(record: &Record, spans: &mut Vec<Span>) {
    let root = spans.len();
    let mut push = |name, parent, start, end| {
        spans.push(Span {
            name,
            request: record.index,
            parent,
            start,
            end,
        });
    };
    let from = record.scheduled.unwrap_or(record.started);
    push("request", None, from, record.done.unwrap_or(record.sent));
    push("encode", Some(root), record.started, record.encoded);
    push("send", Some(root), record.encoded, record.sent);
    if let (Some(readable), Some(done)) = (record.readable, record.done) {
        push("receive", Some(root), record.sent, readable);
        push("decode", Some(root), readable, done);
    }
}

/// Writes one JSON object per span: `id`, `name`, `request`, `parent` (an
/// `id` or null), `start_us`, `end_us`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            span.name,
            span.request,
            span.start.as_secs_f64() * 1e6,
            span.end.as_secs_f64() * 1e6
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
