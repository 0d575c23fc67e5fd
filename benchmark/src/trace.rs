//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written out when the run ends.

use asterix_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every op.
pub const OP: &str = "client.op";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share its id; 0 outside any op.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// Records a finished span and returns its index, for its children to
    /// name as their parent. A root `client.op` span starts a new op; any
    /// other root (set-up, recovery, a probe) belongs to no op and has id 0.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let op = match parent {
            Some(p) => self.spans[p].op,
            None if name == OP => {
                self.ops += 1;
                self.ops
            }
            None => 0,
        };
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Records a child whose duration the engine reported (`JobProfile`'s
    /// elapsed time) but whose start the harness cannot see: it is placed at
    /// the end of its parent, clipped to it.
    pub fn reported_child(&mut self, name: &'static str, parent: usize, ns: u64) {
        let p = &self.spans[parent];
        let (end_ns, op) = (p.end_ns, p.op);
        let start_ns = end_ns - ns.min(p.ns());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name),
                    Json::U64(s.start_ns),
                    Json::U64(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    Json::U64(s.op),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "columns".into(),
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self time per span name, over the spans that belong to an op: each
/// span's duration minus the part of it its children cover. Children of one
/// parent never overlap here (one client thread), so that part is the sum of
/// their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered).filter(|(s, _)| s.op > 0) {
        *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
    }
    out
}

/// Total duration of the ops' root spans.
pub fn total_op_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.name == OP).map(Span::ns).sum()
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        // client.op [0,100] ⊃ sqlpp.parse [5,15], core.submit_wait [20,90] ⊃ hyracks.job [30,90]
        let spans = vec![
            span("client.op", 0, 100, None),
            span("sqlpp.parse", 5, 15, Some(0)),
            span("core.submit_wait", 20, 90, Some(0)),
            span("hyracks.job", 30, 90, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["client.op"], 20);
        assert_eq!(st["sqlpp.parse"], 10);
        assert_eq!(st["core.submit_wait"], 10);
        assert_eq!(st["hyracks.job"], 60);
        assert_eq!(st.values().sum::<u64>(), total_op_ns(&spans));
    }

    #[test]
    fn spans_of_one_name_accumulate() {
        let spans = vec![
            span("client.op", 0, 10, None),
            span("adm.parse", 1, 4, Some(0)),
            span("client.op", 10, 30, None),
            span("adm.parse", 12, 20, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["adm.parse"], 11);
        assert_eq!(st["client.op"], 19);
    }

    #[test]
    fn reported_child_is_clipped_to_its_parent() {
        let mut t = Tracer::new();
        let now = Instant::now();
        let op = t.record(OP, now, now, None);
        let wait = t.record("core.submit_wait", now, now, Some(op));
        (t.spans[op].start_ns, t.spans[op].end_ns) = (90, 150);
        (t.spans[wait].start_ns, t.spans[wait].end_ns) = (100, 150);
        t.reported_child("hyracks.job", wait, 80);
        let job = t.spans.last().expect("child recorded");
        assert_eq!(
            (job.start_ns, job.end_ns, job.parent, job.op),
            (100, 150, Some(wait), 1)
        );
        let st = self_times(&t.spans);
        assert_eq!(
            (st[OP], st["core.submit_wait"], st["hyracks.job"]),
            (10, 0, 50)
        );
    }

    #[test]
    fn spans_outside_any_op_are_left_out_of_the_self_times() {
        let mut t = Tracer::new();
        let now = Instant::now();
        t.record(
            "core.flush_all",
            now,
            now + std::time::Duration::from_millis(5),
            None,
        );
        assert_eq!(t.spans[0].op, 0);
        assert!(self_times(&t.spans).is_empty());
    }

    #[test]
    fn layer_is_the_prefix_before_the_dot() {
        assert_eq!(layer("core.txn_commit"), "core");
        assert_eq!(layer("client"), "client");
    }
}
