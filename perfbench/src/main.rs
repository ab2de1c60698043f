//! Statement-level benchmark for the EII engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fedmark_sf8|lookup_sf32|rw_cached_sf8|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload as a closed loop with one client on one thread,
//! checks every answer against a naive twin, prints each metric with its
//! unit and, as the last line, one JSON object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer self times of a
//! traced run and its overhead over an untraced one. Records are written
//! under `--out` (default `.bench_out`, relative to the working
//! directory). See `perfbench/README.md`.

mod check;
mod env;
mod report;
mod runner;
#[cfg(test)]
mod tests;
mod timing;
mod workload;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use env::Env;
use report::{json_str, metrics_json, num, object, quantile, Metric, Provenance};
use runner::{run_lanes, Lane, Window};
use timing::SpanLog;
use workload::Workload;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload, each in a process of its own (so each peak RSS
/// belongs to one workload), forwarding their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        let last = text.lines().last().unwrap_or("null").to_string();
        results.push((w.name().to_string(), last));
    }
    println!("{}", object(results));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Build the workload's system and warm it up, returning the set-up time.
fn set_up(workload: Workload, log: Option<&std::sync::Arc<SpanLog>>) -> Result<(Env, f64)> {
    let t0 = Instant::now();
    let env = Env::build(workload, workload.sf(), log)?;
    env.warm_up(workload, workload.sf())?;
    Ok((env, t0.elapsed().as_secs_f64()))
}

fn run(workload: Workload, args: &Args) -> Result<bool> {
    let prov = Provenance::collect(workload, args.seed, args.seconds, args.trace);
    println!(
        "workload {} seed {} ({}s, trace {})",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", prov.to_json());
    let (windows, metrics, record) = if args.trace {
        run_traced(workload, args)?
    } else {
        run_untraced(workload, args)?
    };
    let attempted: usize = windows.iter().map(|(w, _)| w.records.len()).sum();
    let failed: usize = windows.iter().map(|(_, f)| f).sum();
    let correct = failed == 0;
    for (i, (w, f)) in windows.iter().enumerate() {
        let label = match (args.trace, i) {
            (false, _) => "",
            (true, 0) => "untraced window: ",
            (true, _) => "traced window: ",
        };
        for (name, v, unit) in report::extras(w, *f) {
            println!("{label}{name} {} {unit}", num(v));
        }
    }
    for (name, v, unit) in &metrics {
        println!("{name} {} {unit}", num(*v));
    }
    println!("attempted {attempted} failed {failed}");

    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let path = args.out.join(format!("{stem}.json"));
    let body = object(
        [
            ("provenance".to_string(), prov.to_json()),
            ("attempted".to_string(), attempted.to_string()),
            ("failed".to_string(), failed.to_string()),
            ("metrics".to_string(), metrics_json(&metrics)),
        ]
        .into_iter()
        .chain(record),
    );
    std::fs::write(&path, body + "\n")?;
    println!("record {}", path.display());

    println!(
        "{}",
        object([
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), attempted.max(1).to_string()),
            ("failed".to_string(), failed.to_string()),
            ("metrics".to_string(), metrics_json(&metrics)),
        ])
    );
    Ok(correct)
}

type Outcome = (Vec<(Window, usize)>, Vec<Metric>, Vec<(String, String)>);

fn run_untraced(workload: Workload, args: &Args) -> Result<Outcome> {
    let (env, first_setup) = set_up(workload, None)?;
    let lane = Lane {
        env: &env,
        log: None,
    };
    let (ops, mut windows) = run_lanes(
        &[lane],
        workload,
        workload.sf(),
        args.seed,
        args.seconds,
        workload.bytes_prefix(),
    );
    let window = windows.remove(0);
    let rss = report::peak_rss_mb();
    drop(env);
    // The other set-ups run after the window, so the measured system is
    // built in a fresh process, not in a heap that earlier systems left.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        setups.push(set_up(workload, None)?.1);
    }

    let twin = Env::naive_twin(workload.sf())?;
    let failed = check::verify(&twin, &ops, &[&window.records])[0];
    let metrics = report::end_to_end(workload, &window, quantile(&setups, 0.5), rss);
    let templates = report::per_template(workload, &window.records);
    println!(
        "per-template wall time (untraced)\n{}",
        report::template_table(&templates)
    );
    let extras = report::extras(&window, failed);
    let record = vec![
        (
            "setups_s".to_string(),
            format!(
                "[{}]",
                setups
                    .iter()
                    .map(|s| num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("extras".to_string(), metrics_json(&extras)),
        ("templates".to_string(), report::templates_json(&templates)),
        (
            "counters".to_string(),
            object(
                window
                    .counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string())),
            ),
        ),
    ];
    Ok((vec![(window, failed)], metrics, record))
}

fn run_traced(workload: Workload, args: &Args) -> Result<Outcome> {
    // The same operations run on an undecorated system and a traced one,
    // block by block, so the overhead compares like with like.
    let (plain_env, _) = set_up(workload, None)?;
    let log = SpanLog::new();
    let (traced_env, _) = set_up(workload, Some(&log))?;
    let lanes = [
        Lane {
            env: &plain_env,
            log: None,
        },
        Lane {
            env: &traced_env,
            log: Some(&log),
        },
    ];
    let (ops, mut windows) = run_lanes(
        &lanes,
        workload,
        workload.sf(),
        args.seed,
        args.seconds,
        workload.block(),
    );
    drop((plain_env, traced_env));
    let traced = windows.pop().expect("traced lane");
    let plain = windows.pop().expect("plain lane");

    let twin = Env::naive_twin(workload.sf())?;
    let failed = check::verify(&twin, &ops, &[&plain.records, &traced.records]);

    let total =
        |records: &[runner::OpRecord]| records.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>();
    let overhead_pct =
        100.0 * (total(&traced.records) / total(&plain.records).max(f64::MIN_POSITIVE) - 1.0);
    let metrics = report::per_layer(&traced, overhead_pct);

    println!("{}", report::self_time_table(&traced));
    println!("tracing overhead {overhead_pct:.2}% (wall time of the same {} operations, traced vs untraced)", ops.len());
    let templates = report::per_template(workload, &traced.records);
    println!(
        "per-template wall time (traced)\n{}",
        report::template_table(&templates)
    );
    println!(
        "per-template wall time (untraced)\n{}",
        report::template_table(&report::per_template(workload, &plain.records))
    );

    let spans_path = args
        .out
        .join(format!("{}-seed{}-spans.jsonl", workload.name(), args.seed));
    std::fs::create_dir_all(&args.out)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
    for s in &traced.traced.as_ref().expect("traced window").spans {
        writeln!(
            file,
            "{}",
            object([
                ("op".to_string(), s.op.to_string()),
                ("id".to_string(), s.id.to_string()),
                (
                    "parent".to_string(),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                ),
                ("name".to_string(), json_str(&s.name)),
                ("start_us".to_string(), num(s.start_us)),
                ("end_us".to_string(), num(s.end_us)),
                ("measured".to_string(), s.measured.to_string()),
            ])
        )?;
    }
    file.flush()?;
    println!("spans {}", spans_path.display());

    let record = vec![
        ("templates".to_string(), report::templates_json(&templates)),
        ("untraced_ops".to_string(), plain.records.len().to_string()),
    ];
    Ok((
        vec![(plain, failed[0]), (traced, failed[1])],
        metrics,
        record,
    ))
}
