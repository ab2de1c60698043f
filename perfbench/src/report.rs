//! Turning windows into metrics, tables, provenance and JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::runner::{ms, OpRecord, ReadLayers, Traced, Window};
use crate::workload::Workload;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Linear-interpolated quantile `q` of unsorted `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn walls(records: &[OpRecord], write: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.write == write)
        .map(|r| ms(r.wall))
        .collect()
}

/// The end-to-end metrics of an untraced window.
pub fn end_to_end(workload: Workload, w: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let reads = walls(&w.records, false);
    let busy: f64 = w.records.iter().map(|r| r.wall.as_secs_f64()).sum();
    let prefix = workload.bytes_prefix().min(w.records.len()).max(1);
    let bytes: u64 = w.records.iter().take(prefix).map(|r| r.bytes).sum();
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("read_p50_ms".into(), quantile(&reads, 0.5), "ms"),
        ("read_p99_ms".into(), quantile(&reads, 0.99), "ms"),
        (
            "throughput_ops_s".into(),
            w.records.len() as f64 / busy.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        (
            "shipped_bytes_per_op".into(),
            bytes as f64 / prefix as f64,
            "B",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ]
}

/// Write latencies and the error rate: printed and recorded, but not in
/// the final line (the read-only workloads have no writes, and the error
/// rate is `failed / attempted` there).
pub fn extras(w: &Window, failed: usize) -> Vec<Metric> {
    let writes = walls(&w.records, true);
    let mut m = Vec::new();
    if !writes.is_empty() {
        m.push(("write_p50_ms".into(), quantile(&writes, 0.5), "ms"));
        m.push(("write_p99_ms".into(), quantile(&writes, 0.99), "ms"));
    }
    m.push((
        "error_rate".into(),
        failed as f64 / w.records.len().max(1) as f64,
        "ratio",
    ));
    m
}

/// Operator labels reported as `exec.op.<label>.self_ms`.
const OPS: [&str; 9] = [
    "Source",
    "BindJoin",
    "HashJoin",
    "Aggregate",
    "Sort",
    "Filter",
    "Project",
    "Distinct",
    "UnionAll",
];

/// The per-layer metrics of a traced window. Read metrics are means per
/// read and write metrics means per write; a workload without writes (or
/// without a cache) reports 0 for them.
pub fn per_layer(w: &Window, overhead_pct: f64) -> Vec<Metric> {
    let t: &Traced = w.traced.as_ref().expect("traced window");
    let n = t.reads.len().max(1) as f64;
    let mean = |f: &dyn Fn(&ReadLayers) -> f64| t.reads.iter().map(f).sum::<f64>() / n;
    let reads: Vec<&OpRecord> = w.records.iter().filter(|r| !r.write).collect();
    let read_sum = |f: &dyn Fn(&OpRecord) -> f64| reads.iter().map(|r| f(r)).sum::<f64>();
    let nw = t.writes.len().max(1) as f64;
    let write_mean =
        |f: &dyn Fn(&crate::runner::WriteLayers) -> f64| t.writes.iter().map(f).sum::<f64>() / nw;
    let c = |name: &str| w.counters.get(name).copied().unwrap_or(0) as f64;
    let probes = c("cache.hits") + c("cache.misses");
    let rows_fetched = mean(&|r| r.calls.rows_fetched as f64);
    let answer_rows = read_sum(&|r| r.answer_rows as f64) / n;

    let mut m: Vec<Metric> = vec![
        ("sql.parse_ms".into(), mean(&|r| r.parse), "ms"),
        ("planner.plan_self_ms".into(), mean(&|r| r.plan_self), "ms"),
        (
            "planner.stats_calls".into(),
            mean(&|r| r.calls.stats_calls as f64),
            "count",
        ),
        ("planner.stats_ms".into(), mean(&|r| r.calls.stats_ms), "ms"),
        ("exec.execute_ms".into(), mean(&|r| r.execute), "ms"),
        ("exec.hub_self_ms".into(), mean(&|r| r.hub_self), "ms"),
    ];
    for op in OPS {
        m.push((
            format!("exec.op.{op}.self_ms"),
            mean(&|r| r.ops.get(op).copied().unwrap_or(0.0)),
            "ms",
        ));
    }
    m.extend([
        (
            "cache.hit_ratio".into(),
            if probes > 0.0 {
                c("cache.hits") / probes
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "cache.evictions_per_op".into(),
            c("cache.evictions") / w.records.len().max(1) as f64,
            "count",
        ),
        ("cache.serve_ms".into(), mean(&|r| r.cache_serve), "ms"),
        (
            "federation.fetch_calls".into(),
            mean(&|r| r.calls.fetch_calls as f64),
            "count",
        ),
        (
            "federation.fetch_ms".into(),
            mean(&|r| r.calls.fetch_ms),
            "ms",
        ),
        ("federation.rows_fetched".into(), rows_fetched, "count"),
        (
            "federation.rows_examined".into(),
            mean(&|r| r.calls.rows_examined as f64),
            "count",
        ),
        (
            "federation.answer_rows_per_fetched_row".into(),
            if rows_fetched > 0.0 {
                answer_rows / rows_fetched
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "federation.cdc_calls".into(),
            mean(&|r| r.calls.cdc_calls as f64),
            "count",
        ),
        ("federation.cdc_ms".into(), mean(&|r| r.calls.cdc_ms), "ms"),
        (
            "federation.requests".into(),
            read_sum(&|r| r.requests as f64) / n,
            "count",
        ),
        (
            "federation.sim_ms".into(),
            read_sum(&|r| r.sim_ms) / n,
            "sim_ms",
        ),
        (
            "storage.update_ms".into(),
            write_mean(&|w| w.calls.update_ms),
            "ms",
        ),
        (
            "matview.maintain_ms".into(),
            write_mean(&|w| w.wall - w.calls.update_ms),
            "ms",
        ),
        (
            "matview.delta_rows".into(),
            c("ivm.delta_rows") / nw,
            "count",
        ),
        (
            "matview.hits_per_read".into(),
            c("matview.hits") / n,
            "count",
        ),
        ("obs.record_ms".into(), mean(&|r| r.record), "ms"),
        ("core.self_ms".into(), mean(&|r| r.core_self), "ms"),
        ("trace.read_wall_ms".into(), mean(&|r| r.wall), "ms"),
        ("trace.overhead_pct".into(), overhead_pct, "%"),
    ]);
    m
}

/// The self-time table of a traced window: each layer's mean per read and
/// its share of the traced wall time, with what is left unattributed.
pub fn self_time_table(w: &Window) -> String {
    let t = w.traced.as_ref().expect("traced window");
    let n = t.reads.len().max(1) as f64;
    let mean = |f: fn(&ReadLayers) -> f64| t.reads.iter().map(f).sum::<f64>() / n;
    let wall = mean(|r| r.wall);
    let rows: [(&str, f64); 9] = [
        ("sql.parse_ms", mean(|r| r.parse)),
        (
            "planner.plan_self_ms (incl. cache probe)",
            mean(|r| r.plan_self),
        ),
        (
            "planner.stats_ms (Connector::statistics)",
            mean(|r| r.calls.stats_ms),
        ),
        ("exec.hub_self_ms", mean(|r| r.hub_self)),
        ("cache.serve_ms", mean(|r| r.cache_serve)),
        (
            "federation.fetch_ms (Connector::execute)",
            mean(|r| r.calls.fetch_ms),
        ),
        (
            "federation.cdc_ms (Connector::changes_since)",
            mean(|r| r.calls.cdc_ms),
        ),
        ("core.self_ms", mean(|r| r.core_self)),
        ("obs.record_ms", mean(|r| r.record)),
    ];
    let unattributed = wall - rows.iter().map(|r| r.1).sum::<f64>();
    let share = |v: f64| 100.0 * v / wall.max(f64::MIN_POSITIVE);
    let mut out = format!(
        "self time per read ({} reads, traced wall {wall:.4} ms)\n",
        t.reads.len()
    );
    for (name, v) in rows.into_iter().chain([("unattributed", unattributed)]) {
        let _ = writeln!(out, "  {name:<46} {v:>10.4} ms {:>6.1}%", share(v));
    }
    let mut ops: BTreeMap<&str, f64> = BTreeMap::new();
    for r in &t.reads {
        for (k, v) in &r.ops {
            *ops.entry(k).or_default() += v / n;
        }
    }
    let _ = writeln!(
        out,
        "operator self time per read (op:* spans; Source and BindJoin include their fetches)"
    );
    for (k, v) in ops {
        let _ = writeln!(out, "  {k:<46} {v:>10.4} ms");
    }
    if !t.writes.is_empty() {
        let nw = t.writes.len() as f64;
        let wall: f64 = t.writes.iter().map(|w| w.wall).sum::<f64>() / nw;
        let update: f64 = t.writes.iter().map(|w| w.calls.update_ms).sum::<f64>() / nw;
        let _ = writeln!(
            out,
            "self time per write ({} writes, traced wall {wall:.4} ms)",
            t.writes.len()
        );
        let _ = writeln!(
            out,
            "  {:<46} {update:>10.4} ms",
            "storage.update_ms (Connector::update)"
        );
        let _ = writeln!(
            out,
            "  {:<46} {:>10.4} ms",
            "matview.maintain_ms (IVM, cache invalidation)",
            wall - update
        );
    }
    out
}

/// Per-template sample count, p50 and p99 wall time.
pub fn per_template(
    workload: Workload,
    records: &[OpRecord],
) -> Vec<(&'static str, usize, f64, f64)> {
    workload
        .templates()
        .into_iter()
        .filter_map(|t| {
            let v: Vec<f64> = records
                .iter()
                .filter(|r| r.template == t)
                .map(|r| ms(r.wall))
                .collect();
            (!v.is_empty()).then(|| (t, v.len(), quantile(&v, 0.5), quantile(&v, 0.99)))
        })
        .collect()
}

pub fn template_table(rows: &[(&str, usize, f64, f64)]) -> String {
    let mut out = format!(
        "  {:<18} {:>7} {:>11} {:>11}\n",
        "template", "n", "p50 ms", "p99 ms"
    );
    for (t, n, p50, p99) in rows {
        let _ = writeln!(out, "  {t:<18} {n:>7} {p50:>11.4} {p99:>11.4}");
    }
    out
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a record came from.
pub struct Provenance {
    pub fields: Vec<(&'static str, String)>,
}

impl Provenance {
    pub fn collect(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Provenance {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Provenance {
            fields: vec![
                ("profile", json_str(profile)),
                ("nproc", nproc.to_string()),
                (
                    "revision",
                    json_str(&git_revision().unwrap_or_else(|| "unknown".into())),
                ),
                ("source_digest", json_str(&source_digest())),
                ("workload", json_str(workload.name())),
                ("seed", seed.to_string()),
                ("seconds", num(seconds)),
                ("trace", trace.to_string()),
                ("sf", workload.sf().to_string()),
                ("data_seed", crate::workload::DATA_SEED.to_string()),
                ("planner", json_str("optimized")),
                ("result_cache", workload.cached().to_string()),
                ("views", workload.views().len().to_string()),
            ],
        }
    }

    pub fn to_json(&self) -> String {
        object(self.fields.iter().map(|(k, v)| (k.to_string(), v.clone())))
    }
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git (the benchmark may run in a tree that is not a
/// repository, where this is `None`).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a digest of the sources the benchmark builds (`Cargo.toml`,
/// `Cargo.lock`, `crates/`, `shims/` and this benchmark), relative to the
/// working directory: a revision that also identifies an uncommitted tree.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "shims",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv64:{h:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero (the sum of nothing) into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

pub fn object(pairs: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(&k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|(name, v, unit)| {
        (
            name.clone(),
            format!("{{\"value\": {}, \"unit\": {}}}", num(*v), json_str(unit)),
        )
    }))
}

pub fn templates_json(rows: &[(&str, usize, f64, f64)]) -> String {
    object(rows.iter().map(|(t, n, p50, p99)| {
        (
            t.to_string(),
            format!(
                "{{\"n\": {n}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                num(*p50),
                num(*p99)
            ),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
