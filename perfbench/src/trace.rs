//! Spans recorded by the benchmark's own code around calls into each
//! layer: one span per user op, per transport round trip, per replayed
//! handler call and per storage (`Vfs`) call. Spans of one op share an op
//! id; a child names the span that caused it. Spans stay in memory and
//! are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Shared (behind a mutex) between the code
/// timing user ops and the transport wrapper timing round trips.
pub struct TraceLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
    open_name: &'static str,
    op: u64,
}

pub type Tracer = Arc<Mutex<TraceLog>>;

impl TraceLog {
    pub fn tracer(enabled: bool, epoch: Instant, op_base: u64) -> Tracer {
        Arc::new(Mutex::new(TraceLog {
            enabled,
            epoch,
            spans: Vec::new(),
            open: None,
            open_name: "",
            op: op_base,
        }))
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a user-op span; later child spans attach to it.
    pub fn begin_op(&mut self, name: &'static str, start: Instant) {
        self.begin_with(name, self.op + 1, start);
    }

    /// Open a span under an explicit op id (a replayed handler call
    /// carries the id of the user op that sent the request).
    pub fn begin_with(&mut self, name: &'static str, op: u64, start: Instant) {
        self.op = op;
        self.open_name = name;
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            op: self.op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.open = Some(self.spans.len() - 1);
    }

    pub fn end_op(&mut self, end: Instant) {
        self.open_name = "";
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Id of the op currently open (0 before the first op).
    pub fn op_id(&self) -> u64 {
        self.op
    }

    /// Name of the op most recently opened.
    pub fn op_name(&self) -> &'static str {
        self.open_name
    }

    /// Record a span under the open op; returns its index.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            op: self.op,
            parent: self.open,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.open = None;
        std::mem::take(&mut self.spans)
    }
}

/// Concatenate per-thread span logs, rebasing parent indices.
pub fn merge(logs: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for log in logs {
        let base = out.len();
        out.extend(log.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: the sorted self times of its spans.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut table: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        table.entry(span.name).or_default().push(own);
    }
    for v in table.values_mut() {
        v.sort_unstable();
    }
    table
}

/// Write spans as tab-separated rows (`name op id parent start end self`).
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\top\tid\tparent\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{i}\t{parent}\t{}\t{}\t{own}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", None, 0, 100),
            // Overlapping children count once; the part past the parent's
            // end is clipped.
            span("rtt", Some(0), 10, 30),
            span("rtt", Some(0), 20, 40),
            span("rtt", Some(0), 90, 120),
            // A grandchild reduces its own parent, not the op.
            span("vfs", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn childless_and_nested_spans() {
        let spans = vec![span("a", None, 5, 5), span("b", None, 0, 50)];
        assert_eq!(self_times(&spans), vec![0, 50]);
        let merged = merge(vec![
            vec![span("op", None, 0, 10), span("rtt", Some(0), 2, 4)],
            vec![span("op", None, 0, 10), span("rtt", Some(0), 1, 9)],
        ]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(self_times(&merged), vec![8, 2, 2, 8]);
        let table = self_time_table(&merged);
        assert_eq!(table["op"], vec![2, 8]);
    }

    #[test]
    fn log_attaches_children_to_the_open_op() {
        let epoch = Instant::now();
        let tracer = TraceLog::tracer(true, epoch, 0);
        let mut log = tracer.lock().unwrap();
        log.begin_op("search", epoch);
        let c = log.child("rtt", epoch, epoch).unwrap();
        log.end_op(epoch);
        assert_eq!(log.op_id(), 1);
        let spans = log.take();
        assert_eq!(spans[c].parent, Some(0));
        assert_eq!(spans[c].op, spans[0].op);
    }
}
