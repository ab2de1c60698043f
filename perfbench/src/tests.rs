//! Whole-benchmark tests at FedMark scale factor 1, where every workload's
//! templates run in well under a second.

use crate::check::verify;
use crate::env::Env;
use crate::report;
use crate::runner::{run_lanes, Lane, Window};
use crate::timing::SpanLog;
use crate::workload::{Op, Workload};

const SF: usize = 1;

/// Operations per test window: two FedMark rounds, two blocks otherwise.
fn ops(w: Workload) -> usize {
    2 * w.block()
}

struct Run {
    ops: Vec<Op>,
    window: Window,
    clock_ms: i64,
    ledger_bytes: usize,
    ledger_sim_ms: f64,
}

fn run(w: Workload, seed: u64, traced: bool) -> Run {
    let log = SpanLog::new();
    let log = traced.then_some(&log);
    let env = Env::build(w, SF, log).expect("build");
    env.warm_up(w, SF).expect("warm-up");
    let (ops, mut windows) = run_lanes(&[Lane { env: &env, log }], w, SF, seed, 0.0, ops(w));
    let total = env.system.federation().ledger().total();
    Run {
        ops,
        window: windows.remove(0),
        clock_ms: env.system.clock().now_ms(),
        ledger_bytes: total.bytes,
        ledger_sim_ms: total.sim_ms,
    }
}

#[test]
fn decorator_and_tracing_leave_answers_bytes_and_sim_ms_bit_identical() {
    for w in Workload::ALL {
        let plain = run(w, 11, false);
        let traced = run(w, 11, true);
        let (a, b) = (&plain.window.records, &traced.window.records);
        assert_eq!(a.len(), b.len(), "{}", w.name());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let at = format!("{} op {i} ({})", w.name(), x.template);
            assert!(
                x.error.is_none() && y.error.is_none(),
                "{at}: {:?} {:?}",
                x.error,
                y.error
            );
            assert_eq!(x.digest, y.digest, "{at}: answer");
            assert_eq!(x.bytes, y.bytes, "{at}: ledger bytes");
            assert_eq!(x.sim_ms.to_bits(), y.sim_ms.to_bits(), "{at}: simulated ms");
            assert_eq!(x.requests, y.requests, "{at}: requests");
        }
        assert_eq!(
            plain.clock_ms,
            traced.clock_ms,
            "{}: simulated clock",
            w.name()
        );
        assert_eq!(
            plain.ledger_bytes,
            traced.ledger_bytes,
            "{}: ledger bytes",
            w.name()
        );
        assert_eq!(
            plain.ledger_sim_ms.to_bits(),
            traced.ledger_sim_ms.to_bits(),
            "{}: ledger simulated ms",
            w.name()
        );
    }
}

#[test]
fn same_seed_repeats_operations_and_shipped_bytes() {
    for w in Workload::ALL {
        let (a, b) = (run(w, 5, false), run(w, 5, false));
        assert_eq!(a.ops, b.ops, "{}: operation stream", w.name());
        let (a, b) = (a.window, b.window);
        let bytes = |x: &Window| -> Vec<u64> { x.records.iter().map(|r| r.bytes).collect() };
        assert_eq!(bytes(&a), bytes(&b), "{}: bytes per operation", w.name());
        let per_op = |x: &Window| {
            report::end_to_end(w, x, 0.0, 0.0)
                .into_iter()
                .find(|m| m.0 == "shipped_bytes_per_op")
                .expect("metric")
                .1
        };
        assert_eq!(per_op(&a).to_bits(), per_op(&b).to_bits(), "{}", w.name());
    }
}

#[test]
fn twin_check_passes_and_catches_a_wrong_answer() {
    for w in Workload::ALL {
        let Run { ops, window, .. } = run(w, 3, false);
        let twin = Env::naive_twin(SF).expect("twin");
        assert_eq!(
            verify(&twin, &ops, &[&window.records]),
            vec![0],
            "{}",
            w.name()
        );

        let mut wrong = window.records.clone();
        let read = wrong.iter().position(|r| !r.write).expect("a read");
        wrong[read].digest = wrong[read].digest.map(|d| d ^ 1);
        let twin = Env::naive_twin(SF).expect("twin");
        assert_eq!(verify(&twin, &ops, &[&wrong]), vec![1], "{}", w.name());
    }
}

#[test]
fn read_self_times_add_up_to_the_traced_wall_time() {
    for w in Workload::ALL {
        let window = run(w, 9, true).window;
        let traced = window.traced.expect("traced window");
        assert!(!traced.reads.is_empty());
        for r in &traced.reads {
            let parts = r.parse
                + r.plan_self
                + r.hub_self
                + r.cache_serve
                + r.core_self
                + r.record
                + r.calls.stats_ms
                + r.calls.fetch_ms
                + r.calls.cdc_ms;
            assert!(
                (parts - r.wall).abs() < 1e-6,
                "{}: {parts} vs {}",
                w.name(),
                r.wall
            );
            assert!(r.hub_self >= 0.0 && r.plan_self >= 0.0 && r.core_self >= 0.0);
        }
    }
}
