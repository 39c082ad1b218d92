//! Exclusive self-times from a drained trace journal.
//!
//! Spans recorded on one track (thread) nest: a kernel span lies inside
//! the statement transfer that called it, which lies inside its engine
//! run. A span's self-time is its duration minus the part of it covered
//! by its direct children, so the self-times of all spans on a track add
//! up to the duration of that track's outermost spans.

use psa_rsg::trace::{TraceEvent, TraceKind};

/// The span kinds the journal records, in report order.
pub const SPAN_KINDS: [TraceKind; 8] = [
    TraceKind::Run,
    TraceKind::StmtTransfer,
    TraceKind::Join,
    TraceKind::Compress,
    TraceKind::Divide,
    TraceKind::Prune,
    TraceKind::Canon,
    TraceKind::Subsume,
];

/// Self-time per span kind plus the total covered by outermost spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimes {
    /// Nanoseconds of self-time, indexed like [`SPAN_KINDS`].
    pub self_ns: [u64; SPAN_KINDS.len()],
    /// Summed duration of the outermost spans of every track.
    pub root_ns: u64,
}

impl SelfTimes {
    /// Self-time of one kind in nanoseconds.
    pub fn ns(&self, kind: TraceKind) -> u64 {
        SPAN_KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.self_ns[i])
    }

    /// Self-time of one kind in milliseconds.
    pub fn ms(&self, kind: TraceKind) -> f64 {
        self.ns(kind) as f64 / 1e6
    }

    /// Sum of every kind's self-time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

/// Attribute every span's duration to itself minus its direct children.
pub fn self_times(events: &[TraceEvent]) -> SelfTimes {
    let mut spans: Vec<&TraceEvent> = events.iter().filter(|e| e.dur_ns > 0).collect();
    // Parents before children: by track, start time, then longest first.
    spans.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut covered = vec![0u64; spans.len()];
    let mut out = SelfTimes::default();
    // Stack of open spans (index, end) on the current track.
    let mut open: Vec<(usize, u64)> = Vec::new();
    let mut track = None;
    for (i, e) in spans.iter().enumerate() {
        if track != Some(e.tid) {
            open.clear();
            track = Some(e.tid);
        }
        let end = e.ts_ns + e.dur_ns;
        while open.last().is_some_and(|&(_, pend)| pend <= e.ts_ns) {
            open.pop();
        }
        match open.last() {
            Some(&(p, pend)) => covered[p] += end.min(pend) - e.ts_ns,
            None => out.root_ns += e.dur_ns,
        }
        open.push((i, end));
    }
    for (e, cov) in spans.iter().zip(covered) {
        if let Some(k) = SPAN_KINDS.iter().position(|k| *k == e.kind) {
            out.self_ns[k] += e.dur_ns.saturating_sub(cov);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TraceKind, tid: u32, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            ts_ns,
            dur_ns,
            tid,
            arg: 0,
            arg2: 0,
        }
    }

    #[test]
    fn nested_spans_partition_the_root() {
        let events = [
            span(TraceKind::Run, 0, 0, 100),
            span(TraceKind::StmtTransfer, 0, 10, 50),
            span(TraceKind::Join, 0, 20, 10),
            span(TraceKind::Canon, 0, 22, 3),
            span(TraceKind::Subsume, 0, 70, 20),
            // An instant is not a span.
            span(TraceKind::InternHit, 0, 30, 0),
            // Another track is attributed on its own.
            span(TraceKind::Prune, 1, 15, 40),
        ];
        let st = self_times(&events);
        assert_eq!(st.ns(TraceKind::Run), 30);
        assert_eq!(st.ns(TraceKind::StmtTransfer), 40);
        assert_eq!(st.ns(TraceKind::Join), 7);
        assert_eq!(st.ns(TraceKind::Canon), 3);
        assert_eq!(st.ns(TraceKind::Subsume), 20);
        assert_eq!(st.ns(TraceKind::Prune), 40);
        assert_eq!(st.root_ns, 140);
        assert_eq!(st.self_ns.iter().sum::<u64>(), st.root_ns);
    }
}
