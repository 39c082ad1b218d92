//! Trace export and digestion: Chrome-trace JSON, the exclusive self-time
//! ledger, latency summaries and a compact text timeline over the journal
//! recorded by [`psa_rsg::trace::Tracer`].
//!
//! The raw journal lives in `psa-rsg` (so the interner and graph kernels
//! can record without a dependency cycle); this module owns everything
//! that *reads* the journal: the `--trace out.json` export loadable in
//! Perfetto / `chrome://tracing`, the cost ledger and the per-statement
//! and per-loop latency histograms folded into `--stats`, the JSON report
//! and traced serve responses, and the text timeline printed in the CLI
//! summary.
//!
//! The ledger is the analyzer's one account of where time went. Spans
//! recorded on one track (thread) nest: a kernel span lies inside the
//! statement transfer that called it, which lies inside its engine run. A
//! span's *self-time* is its duration minus the part covered by its direct
//! children, so the self-times of every span kind add up exactly to the
//! outermost spans (`root_ns`), and `wall_ns - root_ns` is the time no
//! span accounts for.

use crate::json::Json;
use psa_ir::FuncIr;
use psa_rsg::trace::{TraceEvent, TraceKind};
use psa_rsg::Level;
use std::collections::BTreeMap;

/// The level's 1-based ordinal, used as the `arg` of [`TraceKind::Run`]
/// and [`TraceKind::LevelStart`] events.
pub fn level_ordinal(level: Level) -> u64 {
    match level {
        Level::L1 => 1,
        Level::L2 => 2,
        Level::L3 => 3,
    }
}

/// Human-readable shared-table name for [`TraceKind::LockWait`] events
/// (wire values are the [`psa_rsg::intern::LockTable`] discriminants).
fn lock_table_name(code: u64) -> &'static str {
    match code {
        0 => "interner",
        1 => "subsume",
        2 => "transfer",
        3 => "join",
        _ => "unknown",
    }
}

/// Stream the journal as Chrome trace JSON (the JSON Object Format:
/// `{"traceEvents": [...]}`, loadable in Perfetto or `chrome://tracing`)
/// directly into `out`, one event per line.
///
/// Spans become `ph:"X"` complete events and instants `ph:"i"`
/// thread-scoped instant events; every track additionally gets a
/// `thread_name` metadata record so the viewer labels the thread lanes.
/// Timestamps and durations are microseconds (the format's native unit)
/// with nanosecond precision preserved in the fraction. No `Json` tree is
/// built: on large runs the journal holds hundreds of thousands of events,
/// and a tree plus its pretty-printing would dominate the cost of the
/// `--trace` flag.
pub fn chrome_trace_write(events: &[TraceEvent], out: &mut String) {
    use std::fmt::Write;
    out.push_str("{\"traceEvents\": [");
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
    };
    for tid in &tids {
        sep(out);
        let _ = write!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"analysis-{tid}\"}}}}"
        );
    }
    for e in events {
        sep(out);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", ",
            e.kind.name(),
            e.kind.category()
        );
        // Microseconds with the nanosecond fraction, rendered from the
        // integer nanosecond value (`{}.{:03}`) rather than `f64` precision
        // formatting, which is an order of magnitude slower and dominated
        // export time on large journals.
        if e.dur_ns == 0 {
            let _ = write!(
                out,
                "\"ph\": \"i\", \"ts\": {}.{:03}, \"s\": \"t\", ",
                e.ts_ns / 1000,
                e.ts_ns % 1000
            );
        } else {
            let _ = write!(
                out,
                "\"ph\": \"X\", \"ts\": {}.{:03}, \"dur\": {}.{:03}, ",
                e.ts_ns / 1000,
                e.ts_ns % 1000,
                e.dur_ns / 1000,
                e.dur_ns % 1000
            );
        }
        let _ = write!(out, "\"pid\": 1, \"tid\": {}, \"args\": ", e.tid);
        write_args(out, e);
        out.push('}');
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
}

/// The kind-specific `args` object of one event, naming its two raw `u64`
/// payloads.
fn write_args(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let _ = match e.kind {
        TraceKind::Run => write!(out, "{{\"level\": {}, \"iterations\": {}}}", e.arg, e.arg2),
        TraceKind::LevelStart => write!(out, "{{\"level\": {}}}", e.arg),
        TraceKind::StmtTransfer => write!(out, "{{\"stmt\": {}, \"in_width\": {}}}", e.arg, e.arg2),
        TraceKind::WorklistIter => {
            write!(out, "{{\"block\": {}, \"iteration\": {}}}", e.arg, e.arg2)
        }
        TraceKind::Join
        | TraceKind::Compress
        | TraceKind::Divide
        | TraceKind::Prune
        | TraceKind::ForceCompress => write!(out, "{{\"stmt\": {}}}", e.arg),
        TraceKind::Canon => write!(out, "{{\"bytes\": {}, \"graphs\": {}}}", e.arg, e.arg2),
        TraceKind::Subsume => write!(out, "{{\"general\": {}, \"specific\": {}}}", e.arg, e.arg2),
        TraceKind::InternHit | TraceKind::InternMiss => write!(out, "{{\"id\": {}}}", e.arg),
        TraceKind::TransferMemoHit | TraceKind::TransferMemoMiss => {
            write!(out, "{{\"stmt\": {}, \"input\": {}}}", e.arg, e.arg2)
        }
        TraceKind::Cancel => write!(
            out,
            "{{\"cause\": \"{}\"}}",
            crate::engine::BudgetKind::stop_name(e.arg).0
        ),
        TraceKind::LockWait => write!(
            out,
            "{{\"table\": \"{}\", \"wait_ns\": {}}}",
            lock_table_name(e.arg),
            e.arg2
        ),
    };
}

/// Number of log2 latency buckets: bucket `i` counts spans with
/// `dur_ns` in `[2^i, 2^(i+1))` (bucket 0 is `[0, 2)`), covering up to
/// ~4.3 s per span.
pub const HIST_BUCKETS: usize = 32;

/// Latency aggregate over a set of spans (inclusive durations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One line of the cost ledger: a span kind's exclusive self-time and the
/// latency of its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindTime {
    /// The span kind.
    pub kind: TraceKind,
    /// Exclusive self-time in nanoseconds: the kind's span durations minus
    /// the parts covered by their direct children.
    pub self_ns: u64,
    /// Count, mean and max of the kind's (inclusive) span durations.
    pub latency: SpanStat,
}

/// The log2 bucket index of a span duration.
fn bucket(ns: u64) -> usize {
    ((64 - ns.leading_zeros() as usize).saturating_sub(1)).min(HIST_BUCKETS - 1)
}

/// Digested journal: the self-time ledger, cache/instant counts, and
/// per-statement / per-loop statement-transfer latency.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events in the journal.
    pub events: usize,
    /// Distinct recording tracks (threads).
    pub threads: usize,
    /// End of the last event minus start of the first, in nanoseconds.
    pub wall_ns: u64,
    /// Summed duration of the outermost spans of every track; the kinds'
    /// self-times add up to exactly this.
    pub root_ns: u64,
    /// `wall_ns - root_ns`: time inside the journal's extent that no span
    /// covers (saturating at 0 when parallel tracks overlap).
    pub unattributed_ns: u64,
    /// The cost ledger, one line per span kind, by descending self-time.
    pub spans: Vec<KindTime>,
    /// Instant-event counts per kind, insertion-ordered.
    pub instants: Vec<(TraceKind, u64)>,
    /// Statement-transfer latency per statement id.
    pub per_stmt: BTreeMap<u32, SpanStat>,
    /// Statement-transfer latency folded per loop (needs IR loop info;
    /// empty when `summarize` ran without an IR).
    pub per_loop: BTreeMap<u32, SpanStat>,
    /// Log2 histogram of statement-transfer durations.
    pub stmt_hist: [u64; HIST_BUCKETS],
}

/// Exclusive self-time of every span in `spans`, which this sorts parents
/// before children (by track, start, then longest first), plus the summed
/// duration of the outermost spans of every track.
fn self_times(spans: &mut [&TraceEvent]) -> (Vec<u64>, u64) {
    spans.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut covered = vec![0u64; spans.len()];
    let mut root_ns = 0;
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
            None => root_ns += e.dur_ns,
        }
        open.push((i, end));
    }
    let own = spans
        .iter()
        .zip(covered)
        .map(|(e, cov)| e.dur_ns.saturating_sub(cov))
        .collect();
    (own, root_ns)
}

/// Digest a drained journal. Pass the analyzed function to also fold
/// statement-transfer latency onto the loops containing each statement.
pub fn summarize(events: &[TraceEvent], ir: Option<&FuncIr>) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    s.threads = tids.len();
    if let (Some(first), Some(last)) = (
        events.iter().map(|e| e.ts_ns).min(),
        events.iter().map(|e| e.ts_ns + e.dur_ns).max(),
    ) {
        s.wall_ns = last - first;
    }
    let mut spans = Vec::new();
    for e in events {
        if e.dur_ns == 0 {
            match s.instants.iter_mut().find(|(k, _)| *k == e.kind) {
                Some((_, n)) => *n += 1,
                None => s.instants.push((e.kind, 1)),
            }
            continue;
        }
        spans.push(e);
        if e.kind == TraceKind::StmtTransfer {
            let stmt = e.arg as u32;
            s.per_stmt.entry(stmt).or_default().add(e.dur_ns);
            s.stmt_hist[bucket(e.dur_ns)] += 1;
            if let Some(ir) = ir {
                if let Some(info) = ir.stmts.get(stmt as usize) {
                    for l in &info.loops {
                        s.per_loop.entry(l.0).or_default().add(e.dur_ns);
                    }
                }
            }
        }
    }
    let (own, root_ns) = self_times(&mut spans);
    let mut ledger: BTreeMap<TraceKind, (u64, SpanStat)> = BTreeMap::new();
    for (e, own) in spans.iter().zip(own) {
        let (self_ns, latency) = ledger.entry(e.kind).or_default();
        *self_ns += own;
        latency.add(e.dur_ns);
    }
    s.spans = ledger
        .into_iter()
        .map(|(kind, (self_ns, latency))| KindTime {
            kind,
            self_ns,
            latency,
        })
        .collect();
    s.spans.sort_by_key(|l| std::cmp::Reverse(l.self_ns));
    s.root_ns = root_ns;
    s.unattributed_ns = s.wall_ns.saturating_sub(root_ns);
    s
}

fn stat_json(st: &SpanStat) -> Json {
    let mut j = Json::obj();
    j.set("count", st.count);
    j.set("total_ns", st.total_ns);
    j.set("max_ns", st.max_ns);
    j.set("mean_ns", st.mean_ns());
    j
}

impl TraceSummary {
    /// The summary as a JSON object (the `"trace"` section of the report
    /// and of `--stats`; the key is absent entirely when tracing is off).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("events", self.events);
        j.set("threads", self.threads);
        j.set("wall_ns", self.wall_ns);
        j.set("root_ns", self.root_ns);
        j.set("unattributed_ns", self.unattributed_ns);
        let mut spans = Json::obj();
        for l in &self.spans {
            let mut k = Json::obj();
            k.set("count", l.latency.count);
            k.set("self_ns", l.self_ns);
            k.set("mean_ns", l.latency.mean_ns());
            k.set("max_ns", l.latency.max_ns);
            spans.set(l.kind.name(), k);
        }
        j.set("spans", spans);
        let mut inst = Json::obj();
        for (k, n) in &self.instants {
            inst.set(k.name(), *n);
        }
        j.set("instants", inst);
        j.set(
            "per_stmt",
            self.per_stmt
                .iter()
                .map(|(sid, st)| {
                    let mut e = stat_json(st);
                    match &mut e {
                        Json::Obj(fields) => fields.insert(0, ("stmt".into(), Json::from(*sid))),
                        _ => unreachable!(),
                    }
                    e
                })
                .collect::<Json>(),
        );
        j.set(
            "per_loop",
            self.per_loop
                .iter()
                .map(|(lid, st)| {
                    let mut e = stat_json(st);
                    match &mut e {
                        Json::Obj(fields) => fields.insert(0, ("loop".into(), Json::from(*lid))),
                        _ => unreachable!(),
                    }
                    e
                })
                .collect::<Json>(),
        );
        // Trim trailing empty buckets so the array stays compact.
        let used = self
            .stmt_hist
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        j.set(
            "stmt_hist_log2_ns",
            self.stmt_hist[..used].iter().copied().collect::<Json>(),
        );
        j
    }

    /// Multi-line text rendering for the CLI's `--stats` output: the
    /// self-time ledger, cache counters and the statement-latency
    /// histogram.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events on {} track(s), {:.3} ms span\n",
            self.events,
            self.threads,
            ms(self.wall_ns)
        ));
        if !self.spans.is_empty() {
            out.push_str("  self time (count / self / mean / max):\n");
            for l in &self.spans {
                out.push_str(&format!(
                    "    {:<14} {:>8}  {:>10.3} ms  {:>8.1} us  {:>8.1} us\n",
                    l.kind.name(),
                    l.latency.count,
                    ms(l.self_ns),
                    l.latency.mean_ns() as f64 / 1e3,
                    l.latency.max_ns as f64 / 1e3
                ));
            }
            out.push_str(&format!(
                "    {:<14} {:>8}  {:>10.3} ms\n",
                "unattributed",
                "",
                ms(self.unattributed_ns)
            ));
        }
        if !self.instants.is_empty() {
            let parts: Vec<String> = self
                .instants
                .iter()
                .map(|(k, n)| format!("{}={}", k.name(), n))
                .collect();
            out.push_str(&format!("  instants: {}\n", parts.join(" ")));
        }
        let used = self
            .stmt_hist
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        if used > 0 {
            out.push_str("  stmt transfer latency (log2 ns buckets):\n");
            let peak = *self.stmt_hist.iter().max().unwrap_or(&1);
            for (i, &n) in self.stmt_hist[..used].iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let bar = "#".repeat(((n * 40).div_ceil(peak.max(1))) as usize);
                out.push_str(&format!("    [{:>2}] {:>8} {}\n", i, n, bar));
            }
        }
        out
    }
}

/// Category glyph for the timeline: the dominant activity in a time
/// bucket.
fn category_glyph(cat: &str) -> char {
    match cat {
        "level" => 'L',
        "stmt" => 's',
        "worklist" => 'w',
        "kernel" => 'k',
        "cache" => 'c',
        "budget" => '!',
        _ => '?',
    }
}

/// Render a compact text timeline: one lane per track, time bucketed into
/// `width` columns, each column showing the dominant activity category
/// (`s` statement transfers, `k` graph kernels, `w` worklist, `c` cache
/// traffic, `L` level markers, `!` budget events, `·` idle).
pub fn render_timeline(events: &[TraceEvent], width: usize) -> String {
    let width = width.max(8);
    if events.is_empty() {
        return "trace timeline: (no events)\n".to_string();
    }
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let t1 = events
        .iter()
        .map(|e| e.ts_ns + e.dur_ns)
        .max()
        .unwrap_or(t0 + 1)
        .max(t0 + 1);
    let span = t1 - t0;
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    // Per track, per column: span-time per category (spans) and instant
    // counts (fallback when no span time landed in the bucket).
    let col_of =
        |ts: u64| (((ts - t0) as u128 * width as u128 / span as u128) as usize).min(width - 1);
    let mut out = String::new();
    out.push_str(&format!(
        "trace timeline ({:.3} ms, {} track(s), {} events)\n",
        span as f64 / 1e6,
        tids.len(),
        events.len()
    ));
    for &tid in &tids {
        let mut span_time: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); width];
        let mut inst_count: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); width];
        for e in events.iter().filter(|e| e.tid == tid) {
            let cat = e.kind.category();
            if e.dur_ns == 0 {
                *inst_count[col_of(e.ts_ns)].entry(cat).or_default() += 1;
                continue;
            }
            // Whole-run spans would dominate every column; level extent is
            // visible from the LevelStart instants instead.
            if e.kind == TraceKind::Run {
                continue;
            }
            // Spread the span's time over the columns it covers.
            let (c0, c1) = (col_of(e.ts_ns), col_of(e.ts_ns + e.dur_ns - 1));
            let per_col = e.dur_ns / (c1 - c0 + 1) as u64;
            for col_time in &mut span_time[c0..=c1] {
                *col_time.entry(cat).or_default() += per_col.max(1);
            }
        }
        let mut lane = String::new();
        for col in 0..width {
            let best_span = span_time[col].iter().max_by_key(|(_, &ns)| ns);
            let glyph = match best_span {
                Some((cat, _)) => category_glyph(cat),
                None => match inst_count[col].iter().max_by_key(|(_, &n)| n) {
                    Some((cat, _)) => category_glyph(cat),
                    None => '·',
                },
            };
            lane.push(glyph);
        }
        out.push_str(&format!("  analysis-{tid:<3} |{lane}|\n"));
    }
    out.push_str("  legend: s=stmt k=kernel w=worklist c=cache L=level !=budget ·=idle\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, ts: u64, dur: u64, tid: u32, arg: u64, arg2: u64) -> TraceEvent {
        TraceEvent {
            kind,
            ts_ns: ts,
            dur_ns: dur,
            tid,
            arg,
            arg2,
        }
    }

    #[test]
    fn level_ordinals_are_one_based() {
        assert_eq!(level_ordinal(Level::L1), 1);
        assert_eq!(level_ordinal(Level::L2), 2);
        assert_eq!(level_ordinal(Level::L3), 3);
    }

    fn streamed(events: &[TraceEvent]) -> Json {
        let mut text = String::new();
        chrome_trace_write(events, &mut text);
        Json::parse(&text).expect("the export is valid JSON")
    }

    #[test]
    fn chrome_export_schema() {
        let events = vec![
            ev(TraceKind::StmtTransfer, 1_000, 2_500, 0, 7, 3),
            ev(TraceKind::InternHit, 1_500, 0, 1, 42, 0),
        ];
        let doc = streamed(&events);
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let te = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata records + 2 events.
        assert_eq!(te.len(), 4);
        let meta: Vec<_> = te
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0].get("name").unwrap().as_str(), Some("thread_name"));
        let span = te
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("stmt"));
        assert_eq!(span.get("cat").unwrap().as_str(), Some("stmt"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            span.get("args").unwrap().get("stmt").unwrap().as_i64(),
            Some(7)
        );
        let inst = te
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
        assert!(inst.get("dur").is_none());
    }

    #[test]
    fn streamed_events_carry_their_named_args() {
        // One event of every kind, each with the args object it must carry.
        let cases = [
            (
                ev(TraceKind::Run, 0, 9_000, 0, 2, 17),
                r#"{"level": 2, "iterations": 17}"#,
            ),
            (
                ev(TraceKind::LevelStart, 100, 0, 0, 3, 0),
                r#"{"level": 3}"#,
            ),
            (
                ev(TraceKind::StmtTransfer, 1_000, 2_500, 0, 7, 3),
                r#"{"stmt": 7, "in_width": 3}"#,
            ),
            (
                ev(TraceKind::WorklistIter, 1_200, 0, 0, 4, 11),
                r#"{"block": 4, "iteration": 11}"#,
            ),
            (ev(TraceKind::Join, 1_300, 10, 0, 5, 0), r#"{"stmt": 5}"#),
            (
                ev(TraceKind::Compress, 1_400, 10, 0, 6, 0),
                r#"{"stmt": 6}"#,
            ),
            (ev(TraceKind::Divide, 1_500, 10, 0, 7, 0), r#"{"stmt": 7}"#),
            (ev(TraceKind::Prune, 1_600, 10, 0, 8, 0), r#"{"stmt": 8}"#),
            (
                ev(TraceKind::ForceCompress, 1_700, 10, 0, 9, 0),
                r#"{"stmt": 9}"#,
            ),
            (
                ev(TraceKind::Canon, 2_000, 300, 1, 128, 2),
                r#"{"bytes": 128, "graphs": 2}"#,
            ),
            (
                ev(TraceKind::Subsume, 3_000, 400, 1, 5, 6),
                r#"{"general": 5, "specific": 6}"#,
            ),
            (
                ev(TraceKind::InternHit, 3_500, 0, 1, 42, 0),
                r#"{"id": 42}"#,
            ),
            (
                ev(TraceKind::InternMiss, 3_600, 0, 1, 43, 0),
                r#"{"id": 43}"#,
            ),
            (
                ev(TraceKind::TransferMemoHit, 3_700, 0, 1, 9, 44),
                r#"{"stmt": 9, "input": 44}"#,
            ),
            (
                ev(TraceKind::TransferMemoMiss, 3_800, 0, 1, 9, 45),
                r#"{"stmt": 9, "input": 45}"#,
            ),
            (
                ev(TraceKind::Cancel, 4_000, 0, 0, 4, 0),
                r#"{"cause": "rsgs"}"#,
            ),
            (
                ev(TraceKind::LockWait, 4_100, 0, 1, 2, 750),
                r#"{"table": "transfer", "wait_ns": 750}"#,
            ),
        ];
        let events: Vec<TraceEvent> = cases.iter().map(|(e, _)| *e).collect();
        let doc = streamed(&events);
        let te: Vec<&Json> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .collect();
        assert_eq!(te.len(), cases.len());
        for (j, (e, args)) in te.iter().zip(&cases) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(e.kind.name()));
            assert_eq!(
                j.get("args").unwrap(),
                &Json::parse(args).unwrap(),
                "{:?} args",
                e.kind
            );
        }
    }

    #[test]
    fn cancel_args_name_the_cause() {
        use crate::engine::{BudgetKind, InterprocReason};
        let deadline = BudgetKind::Deadline { limit_ms: 0 };
        let rsgs = BudgetKind::Rsgs {
            graphs: 2,
            limit: 1,
        };
        let interproc = BudgetKind::Interproc {
            reason: InterprocReason::Depth,
        };
        // Codes 1 and 3 are retired: no stop journals them.
        for (kind, code, name) in [
            (Some(deadline), 2, "deadline"),
            (Some(rsgs), 4, "rsgs"),
            (Some(interproc), 5, "interproc"),
            (None, 1, "unknown"),
            (None, 3, "unknown"),
        ] {
            if let Some(kind) = kind {
                assert_eq!(kind.stop_code(), Some(code), "{kind:?}");
            }
            let doc = streamed(&[ev(TraceKind::Cancel, 0, 0, 0, code, 0)]);
            let te = doc.get("traceEvents").unwrap().as_array().unwrap();
            let cancel = te
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some("cancel"))
                .unwrap();
            assert_eq!(
                cancel.get("args").unwrap().get("cause").unwrap().as_str(),
                Some(name),
                "code {code}"
            );
        }
    }

    #[test]
    fn summarize_aggregates() {
        let events = vec![
            ev(TraceKind::StmtTransfer, 0, 1_000, 0, 3, 1),
            ev(TraceKind::StmtTransfer, 2_000, 3_000, 0, 3, 2),
            ev(TraceKind::StmtTransfer, 2_500, 2_000, 1, 4, 1),
            ev(TraceKind::Join, 100, 50, 0, 3, 0),
            ev(TraceKind::InternHit, 200, 0, 0, 9, 0),
            ev(TraceKind::InternHit, 300, 0, 1, 9, 0),
        ];
        let s = summarize(&events, None);
        assert_eq!(s.events, 6);
        assert_eq!(s.threads, 2);
        assert_eq!(s.wall_ns, 5_000);
        let line = |k| *s.spans.iter().find(|l| l.kind == k).unwrap();
        let stmt = line(TraceKind::StmtTransfer);
        assert_eq!(stmt.latency.count, 3);
        assert_eq!(stmt.latency.max_ns, 3_000);
        assert_eq!(stmt.latency.mean_ns(), 2_000);
        // The join nested in the first transfer is not the transfer's own
        // time.
        assert_eq!(stmt.self_ns, 5_950);
        assert_eq!(line(TraceKind::Join).self_ns, 50);
        assert_eq!(s.spans[0].kind, TraceKind::StmtTransfer, "by self-time");
        assert_eq!(s.root_ns, 6_000);
        // The two tracks overlap, so the outermost spans exceed the extent.
        assert_eq!(s.unattributed_ns, 0);
        assert_eq!(s.per_stmt[&3].count, 2);
        assert_eq!(s.per_stmt[&4].count, 1);
        assert_eq!(
            s.instants
                .iter()
                .find(|(k, _)| *k == TraceKind::InternHit)
                .unwrap()
                .1,
            2
        );
        assert_eq!(s.stmt_hist.iter().sum::<u64>(), 3);
        // 1000ns → bucket 9 ([512, 1024)); 2000/3000ns → bucket 10/11.
        assert_eq!(s.stmt_hist[9], 1);
        let j = s.to_json();
        assert_eq!(j.get("events").unwrap().as_i64(), Some(6));
        assert_eq!(j.get("root_ns").unwrap().as_i64(), Some(6_000));
        let stmt_json = j.get("spans").unwrap().get("stmt").unwrap();
        assert_eq!(stmt_json.get("self_ns").unwrap().as_i64(), Some(5_950));
        assert!(stmt_json.get("total_ns").is_none());
        assert_eq!(
            j.get("per_stmt").unwrap().as_array().unwrap()[0]
                .get("stmt")
                .unwrap()
                .as_i64(),
            Some(3)
        );
        assert!(!s.render().is_empty());
    }

    #[test]
    fn nested_spans_partition_the_root() {
        let events = [
            ev(TraceKind::Run, 0, 100, 0, 1, 0),
            ev(TraceKind::StmtTransfer, 10, 50, 0, 0, 0),
            ev(TraceKind::Join, 20, 10, 0, 0, 0),
            ev(TraceKind::Canon, 22, 3, 0, 0, 0),
            ev(TraceKind::Subsume, 70, 20, 0, 0, 0),
            // An instant is not a span.
            ev(TraceKind::InternHit, 30, 0, 0, 0, 0),
            // Another track is attributed on its own.
            ev(TraceKind::Prune, 15, 40, 1, 0, 0),
        ];
        let s = summarize(&events, None);
        let self_ns = |k| s.spans.iter().find(|l| l.kind == k).unwrap().self_ns;
        assert_eq!(self_ns(TraceKind::Run), 30);
        assert_eq!(self_ns(TraceKind::StmtTransfer), 40);
        assert_eq!(self_ns(TraceKind::Join), 7);
        assert_eq!(self_ns(TraceKind::Canon), 3);
        assert_eq!(self_ns(TraceKind::Subsume), 20);
        assert_eq!(self_ns(TraceKind::Prune), 40);
        assert_eq!(s.root_ns, 140);
        assert_eq!(s.spans.iter().map(|l| l.self_ns).sum::<u64>(), s.root_ns);
    }

    #[test]
    fn unattributed_is_the_time_outside_every_outermost_span() {
        let events = [
            ev(TraceKind::Run, 0, 100, 0, 1, 0),
            ev(TraceKind::LevelStart, 120, 0, 0, 2, 0),
            ev(TraceKind::Run, 150, 50, 0, 2, 0),
            ev(TraceKind::Compress, 160, 10, 0, 0, 0),
        ];
        let s = summarize(&events, None);
        assert_eq!((s.wall_ns, s.root_ns, s.unattributed_ns), (200, 150, 50));
        assert_eq!(s.spans.iter().map(|l| l.self_ns).sum::<u64>(), s.root_ns);
        assert!(s.render().contains("unattributed"));
    }

    #[test]
    fn timeline_renders_lanes() {
        let events = vec![
            ev(TraceKind::StmtTransfer, 0, 10_000, 0, 1, 1),
            ev(TraceKind::Join, 10_000, 5_000, 1, 1, 0),
        ];
        let text = render_timeline(&events, 20);
        assert!(text.contains("analysis-0"));
        assert!(text.contains("analysis-1"));
        assert!(text.contains('s'));
        assert!(text.contains('k'));
        assert!(text.contains("legend"));
        assert_eq!(render_timeline(&[], 20), "trace timeline: (no events)\n");
    }

    #[test]
    fn bucket_indices() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(1023), 9);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }
}
