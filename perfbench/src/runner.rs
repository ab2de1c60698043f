//! The closed loop: one client on one thread issues each operation only
//! after the previous one returned, and times it. Everything the checks
//! and the traced breakdown need is computed outside the timed interval.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eii::data::{Batch, Result};
use eii::obs::{QueryTrace, SpanRecord};
use eii::prelude::*;

use crate::env::Env;
use crate::timing::{CallKind, ConnSpan, SpanLog};
use crate::workload::{Action, Op, Stream, Workload};
use eii_bench::fedmark::ScaleFactor;

/// What one timed operation did.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub template: &'static str,
    pub write: bool,
    /// Wall time of the `execute` or `update` call alone.
    pub wall: Duration,
    /// Sorted-row digest of a read's answer; `None` for writes.
    pub digest: Option<u64>,
    /// The call's error, if it failed.
    pub error: Option<String>,
    /// Ledger bytes shipped during the operation.
    pub bytes: u64,
    /// Simulated ms and round trips the facade reported for a read.
    pub sim_ms: f64,
    pub requests: u64,
    pub answer_rows: u64,
}

/// Per-layer wall time of one traced read, in ms. The windows tile the
/// call, so `parse + plan_self + hub_self + cache_serve + core_self +
/// record + stats + fetch + cdc` equals `wall`, less any time connector
/// calls of different kinds overlapped (counted once in the windows' self
/// times but once per kind in the call totals).
#[derive(Debug, Clone, Default)]
pub struct ReadLayers {
    pub wall: f64,
    pub parse: f64,
    pub plan_self: f64,
    pub execute: f64,
    pub hub_self: f64,
    pub cache_serve: f64,
    pub core_self: f64,
    pub record: f64,
    /// Self time per `op:*` span label.
    pub ops: BTreeMap<String, f64>,
    pub calls: CallTotals,
}

/// The connector calls one operation made: counts, and for each kind the
/// wall time during which at least one call of that kind was in flight
/// (parallel fetches overlap, so this is a union, not a sum).
#[derive(Debug, Clone, Default)]
pub struct CallTotals {
    pub stats_calls: u64,
    pub stats_ms: f64,
    pub fetch_calls: u64,
    pub fetch_ms: f64,
    pub rows_fetched: u64,
    pub rows_examined: u64,
    pub cdc_calls: u64,
    pub cdc_ms: f64,
    pub update_ms: f64,
}

impl CallTotals {
    fn of(spans: &[ConnSpan], window: (Instant, Instant)) -> CallTotals {
        let busy = |kind: CallKind| {
            let iv: Vec<(Instant, Instant)> = spans
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.start, s.end))
                .collect();
            ms(covered_in(&iv, window))
        };
        let count = |kind: CallKind| spans.iter().filter(|s| s.kind == kind).count() as u64;
        let fetches = spans.iter().filter(|s| s.kind == CallKind::Fetch);
        CallTotals {
            stats_calls: count(CallKind::Stats),
            stats_ms: busy(CallKind::Stats),
            fetch_calls: count(CallKind::Fetch),
            fetch_ms: busy(CallKind::Fetch),
            rows_fetched: fetches.clone().map(|s| s.rows).sum(),
            rows_examined: fetches.map(|s| s.rows_scanned).sum(),
            cdc_calls: count(CallKind::Cdc),
            cdc_ms: busy(CallKind::Cdc),
            update_ms: busy(CallKind::Update),
        }
    }
}

/// Per-layer wall time of one traced write, in ms.
#[derive(Debug, Clone, Default)]
pub struct WriteLayers {
    pub wall: f64,
    pub calls: CallTotals,
}

/// One span of the traced run's output, relative to the run's start.
#[derive(Debug, Clone)]
pub struct SpanOut {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// False for facade spans, whose position inside their parent is laid
    /// out from the call's start (the facade records durations only).
    pub measured: bool,
}

/// The traced run's per-operation breakdowns and spans.
#[derive(Debug, Default)]
pub struct Traced {
    pub reads: Vec<ReadLayers>,
    pub writes: Vec<WriteLayers>,
    pub spans: Vec<SpanOut>,
}

/// What one lane did over a run.
pub struct Window {
    pub records: Vec<OpRecord>,
    pub traced: Option<Traced>,
    /// System counters over the window.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Counters read from the system's own metrics before and after a window.
const COUNTERS: [&str; 6] = [
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "matview.hits",
    "ivm.refreshes",
    "ivm.delta_rows",
];

/// A system the stream runs on. With a span log (the one the system's
/// sources are decorated with), reads go through `execute_with_trace` and
/// every operation is broken down by layer.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    pub env: &'a Env,
    pub log: Option<&'a Arc<SpanLog>>,
}

/// Run the workload's stream from its start on every lane until `seconds`
/// have passed and at least `min_ops` operations ran. The stream is dealt
/// in blocks, each run on every lane in turn, the first lane alternating
/// from block to block so that lanes share the machine's slow and fast
/// moments alike. Returns the operations and one window per lane.
pub fn run_lanes(
    lanes: &[Lane],
    workload: Workload,
    sf: ScaleFactor,
    seed: u64,
    seconds: f64,
    min_ops: usize,
) -> (Vec<Op>, Vec<Window>) {
    let mut stream = Stream::new(workload, sf, seed);
    let mut windows: Vec<Window> = lanes
        .iter()
        .map(|lane| {
            if let Some(log) = lane.log {
                log.drain(); // spans of earlier work, such as the warm-up
            }
            Window {
                records: Vec::new(),
                traced: lane.log.map(|_| Traced::default()),
                counters: COUNTERS.iter().map(|c| (*c, lane.env.counter(c))).collect(),
            }
        })
        .collect();
    let mut ops: Vec<Op> = Vec::new();
    let origin = Instant::now();
    while origin.elapsed().as_secs_f64() < seconds || ops.len() < min_ops {
        let block: Vec<Op> = stream.by_ref().take(workload.block()).collect();
        let turn = (ops.len() / workload.block()) % 2;
        for i in 0..lanes.len() {
            let l = if turn == 0 { i } else { lanes.len() - 1 - i };
            let (lane, window) = (lanes[l], &mut windows[l]);
            for op in &block {
                let id = window.records.len() as u64;
                let record = match (lane.log, window.traced.as_mut()) {
                    (Some(log), Some(traced)) => run_traced(lane.env, op, id, log, origin, traced),
                    _ => run_plain(lane.env, op),
                };
                window.records.push(record);
            }
        }
        ops.extend(block);
    }
    for (lane, window) in lanes.iter().zip(&mut windows) {
        for (c, v) in window.counters.iter_mut() {
            *v = lane.env.counter(c) - *v;
        }
    }
    (ops, windows)
}

impl OpRecord {
    fn new(op: &Op, wall: Duration, bytes: u64) -> OpRecord {
        OpRecord {
            template: op.template,
            write: op.is_write(),
            wall,
            digest: None,
            error: None,
            bytes,
            sim_ms: 0.0,
            requests: 0,
            answer_rows: 0,
        }
    }

    fn read(op: &Op, wall: Duration, bytes: u64, out: Result<ExecOutcome>) -> OpRecord {
        let mut r = OpRecord::new(op, wall, bytes);
        match out.and_then(ExecOutcome::into_query_result) {
            Ok(q) => {
                r.digest = Some(digest(&q.batch));
                r.sim_ms = q.cost.sim_ms;
                r.requests = q.cost.requests as u64;
                r.answer_rows = q.batch.num_rows() as u64;
            }
            Err(e) => r.error = Some(e.to_string()),
        }
        r
    }

    fn write(op: &Op, wall: Duration, bytes: u64, res: Result<()>) -> OpRecord {
        let mut r = OpRecord::new(op, wall, bytes);
        r.error = res.err().map(|e| e.to_string());
        r
    }
}

fn run_plain(env: &Env, op: &Op) -> OpRecord {
    let bytes_before = env.shipped_bytes();
    match &op.action {
        Action::Read(sql) => {
            let t0 = Instant::now();
            let out = env.system.execute(sql);
            let wall = t0.elapsed();
            OpRecord::read(op, wall, env.shipped_bytes() - bytes_before, out)
        }
        Action::Write(source, update) => {
            let (_, wall, res) = timed_write(env, source, update);
            OpRecord::write(op, wall, env.shipped_bytes() - bytes_before, res)
        }
    }
}

/// Time `SourceHandle::update` alone; the handle is resolved first.
fn timed_write(env: &Env, source: &str, update: &UpdateOp) -> (Instant, Duration, Result<()>) {
    let handle = match env.system.federation().source(source) {
        Ok(h) => h,
        Err(e) => return (Instant::now(), Duration::ZERO, Err(e)),
    };
    let t0 = Instant::now();
    let res = handle.update(update);
    let wall = t0.elapsed();
    let res = res.and_then(|(r, _)| {
        (r.affected == 1).then_some(()).ok_or_else(|| {
            eii::data::EiiError::Execution(format!("write affected {} rows", r.affected))
        })
    });
    (t0, wall, res)
}

fn run_traced(
    env: &Env,
    op: &Op,
    id: u64,
    log: &Arc<SpanLog>,
    origin: Instant,
    traced: &mut Traced,
) -> OpRecord {
    let bytes_before = env.shipped_bytes();
    let opts = ExecOptions::default();
    match &op.action {
        Action::Read(sql) => {
            let t0 = Instant::now();
            let (out, trace) = env.system.execute_with_trace(sql, &opts);
            let t1 = Instant::now();
            let spans = log.drain();
            let layers = read_layers(&trace, &spans, t0, t1, id, origin, &mut traced.spans);
            traced.reads.push(layers);
            OpRecord::read(op, t1 - t0, env.shipped_bytes() - bytes_before, out)
        }
        Action::Write(source, update) => {
            let (t0, wall, res) = timed_write(env, source, update);
            let spans = log.drain();
            let write_id = next_id(&traced.spans);
            traced.spans.push(SpanOut {
                op: id,
                id: write_id,
                parent: None,
                name: "write".into(),
                start_us: us(t0, origin),
                end_us: us(t0 + wall, origin),
                measured: true,
            });
            for s in &spans {
                let sid = next_id(&traced.spans);
                traced
                    .spans
                    .push(conn_span_out(s, id, sid, Some(write_id), origin));
            }
            traced.writes.push(WriteLayers {
                wall: ms(wall),
                calls: CallTotals::of(&spans, (t0, t0 + wall)),
            });
            OpRecord::write(op, wall, env.shipped_bytes() - bytes_before, res)
        }
    }
}

fn next_id(spans: &[SpanOut]) -> u32 {
    spans.len() as u32
}

fn conn_span_out(s: &ConnSpan, op: u64, id: u32, parent: Option<u32>, origin: Instant) -> SpanOut {
    SpanOut {
        op,
        id,
        parent,
        name: format!("{}:{}", s.kind.name(), s.source),
        start_us: us(s.start, origin),
        end_us: us(s.end, origin),
        measured: true,
    }
}

/// Break one traced read down by layer.
///
/// The facade's `statement` span holds `parse`, `plan` and then `execute`
/// or `cache_hit`, one after another; it records their durations but not
/// their start times. They are laid end to end from the call's start, the
/// remainder of `statement` is the facade's own time, and the rest of the
/// call after `statement` is telemetry recording. Each window's self time
/// is its length minus the part the connector calls cover, so the layers
/// add up to the call's wall time.
fn read_layers(
    trace: &QueryTrace,
    calls: &[ConnSpan],
    t0: Instant,
    t1: Instant,
    op: u64,
    origin: Instant,
    out: &mut Vec<SpanOut>,
) -> ReadLayers {
    let wall = t1 - t0;
    let statement = trace.find("statement");
    let stmt_wall = statement.map_or(Duration::ZERO, |s| s.wall).min(wall);
    let phase = |name: &str| {
        statement
            .and_then(|s| s.children.iter().find(|c| c.name == name))
            .map_or(Duration::ZERO, |c| c.wall)
    };
    let mut cursor = t0;
    let mut window = |d: Duration| {
        let w = (cursor, cursor + d);
        cursor += d;
        w
    };
    let parse = window(phase("parse"));
    let plan = window(phase("plan"));
    let execute = window(phase("execute"));
    let cache_hit = window(phase("cache_hit"));
    // Children wider than their parent (timer granularity) clamp to it.
    let stmt_end = (t0 + stmt_wall).max(cursor);
    let core = (cursor, stmt_end);
    let record = (stmt_end, t1.max(stmt_end));

    let intervals: Vec<(Instant, Instant)> = calls.iter().map(|c| (c.start, c.end)).collect();
    let covered = |w: (Instant, Instant)| ms(covered_in(&intervals, w));
    let len = |w: (Instant, Instant)| ms(w.1 - w.0);
    let self_of = |w: (Instant, Instant)| len(w) - covered(w);

    let mut layers = ReadLayers {
        wall: ms(wall),
        parse: self_of(parse),
        plan_self: self_of(plan),
        execute: len(execute),
        hub_self: self_of(execute),
        cache_serve: self_of(cache_hit),
        core_self: self_of(core),
        record: self_of(record),
        ops: BTreeMap::new(),
        calls: CallTotals::of(calls, (t0, t1)),
    };
    let exec_span = statement.and_then(|s| s.children.iter().find(|c| c.name == "execute"));
    for c in exec_span.iter().flat_map(|e| &e.children) {
        op_self_times(c, &mut layers.ops);
    }

    // Spans for the output file.
    let push = |out: &mut Vec<SpanOut>, name: &str, w: (Instant, Instant), parent, measured| {
        let id = next_id(out);
        out.push(SpanOut {
            op,
            id,
            parent,
            name: name.to_string(),
            start_us: us(w.0, origin),
            end_us: us(w.1, origin),
            measured,
        });
        id
    };
    let call_id = push(out, "call", (t0, t1), None, true);
    let stmt_id = push(out, "statement", (t0, stmt_end), Some(call_id), false);
    let mut phases = Vec::new();
    for (name, w) in [
        ("parse", parse),
        ("plan", plan),
        ("execute", execute),
        ("cache_hit", cache_hit),
    ] {
        if w.1 > w.0 {
            phases.push((name, push(out, name, w, Some(stmt_id), false), w));
        }
    }
    let exec_id = phases.iter().find(|p| p.0 == "execute").map(|p| p.1);
    for c in exec_span.iter().flat_map(|e| &e.children) {
        push_op_spans(out, c, execute.0, exec_id, op, origin);
    }
    push(out, "record", record, Some(call_id), false);
    for c in calls {
        let parent = phases
            .iter()
            .find(|(_, _, w)| c.start >= w.0 && c.start < w.1)
            .map_or(stmt_id, |p| p.1);
        let id = next_id(out);
        out.push(conn_span_out(c, op, id, Some(parent), origin));
    }
    layers
}

/// Self time of each `op:*` span in a subtree. A child set whose walls sum
/// to more than the parent's ran in parallel and is counted by its longest
/// member; otherwise the children ran one after another.
fn op_self_times(span: &SpanRecord, acc: &mut BTreeMap<String, f64>) {
    let Some(label) = span.name.strip_prefix("op:") else {
        return;
    };
    let kids: Vec<&SpanRecord> = span
        .children
        .iter()
        .filter(|c| c.name.starts_with("op:"))
        .collect();
    let sum: Duration = kids.iter().map(|c| c.wall).sum();
    let covered = if sum > span.wall {
        kids.iter().map(|c| c.wall).max().unwrap_or_default()
    } else {
        sum
    };
    *acc.entry(label.to_string()).or_default() += ms(span.wall.saturating_sub(covered));
    for c in kids {
        op_self_times(c, acc);
    }
}

fn push_op_spans(
    out: &mut Vec<SpanOut>,
    span: &SpanRecord,
    start: Instant,
    parent: Option<u32>,
    op: u64,
    origin: Instant,
) {
    if !span.name.starts_with("op:") {
        return;
    }
    let id = next_id(out);
    out.push(SpanOut {
        op,
        id,
        parent,
        name: span.name.clone(),
        start_us: us(start, origin),
        end_us: us(start + span.wall, origin),
        measured: false,
    });
    for c in &span.children {
        push_op_spans(out, c, start, Some(id), op, origin);
    }
}

/// Length of the part of window `w` that the union of `intervals` covers.
fn covered_in(intervals: &[(Instant, Instant)], w: (Instant, Instant)) -> Duration {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(w.0), e.min(w.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(t: Instant, origin: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// FNV-1a digest of a batch's column names and its rows in sorted order,
/// so answers that differ only in row order agree.
pub fn digest(batch: &Batch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in batch.schema().fields() {
        feed(f.name.as_bytes());
        feed(b"\x1f");
    }
    let mut rows: Vec<&Row> = batch.rows().iter().collect();
    rows.sort();
    for r in rows {
        feed(format!("{r:?}").as_bytes());
        feed(b"\x1e");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_union_clipped_to_the_window() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let iv = [
            (at(0), at(4)),
            (at(2), at(6)),
            (at(8), at(9)),
            (at(20), at(30)),
        ];
        assert_eq!(covered_in(&iv, (at(1), at(10))), Duration::from_millis(6));
        assert_eq!(covered_in(&iv, (at(10), at(12))), Duration::ZERO);
    }
}
