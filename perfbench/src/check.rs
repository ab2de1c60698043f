//! The answer check: replay the operations on the naive twin and compare
//! every read's sorted-row digest.

use std::collections::{BTreeMap, HashMap};

use crate::env::Env;
use crate::runner::{digest, OpRecord};
use crate::workload::{Action, Op};

/// The twin's outcome for one operation: `None` when it failed, otherwise
/// a read's digest (`Some(Some(_))`) or a write's success (`Some(None)`).
type Expected = Option<Option<u64>>;

/// Replay `ops` on the naive twin and count, per window, the operations
/// that failed or answered differently. `ops` must be at least as long as
/// the longest window, and each window a prefix of it.
pub fn verify(twin: &Env, ops: &[Op], windows: &[&[OpRecord]]) -> Vec<usize> {
    let longest = windows.iter().map(|w| w.len()).max().unwrap_or(0);
    let ops = &ops[..longest.min(ops.len())];
    let expected = if ops.iter().any(Op::is_write) {
        replay(twin, ops)
    } else {
        read_in_parallel(twin, ops)
    };
    windows
        .iter()
        .map(|records| {
            records
                .iter()
                .zip(&expected)
                .filter(|(r, e)| r.error.is_some() || **e != Some(r.digest))
                .count()
        })
        .collect()
}

fn answer(twin: &Env, sql: &str) -> Option<u64> {
    let out = twin.system.execute(sql).ok()?;
    out.rows().ok().map(digest)
}

/// Replay reads and writes in order. A read's answer depends only on the
/// tables it names, so it is computed once per version of those tables.
fn replay(twin: &Env, ops: &[Op]) -> Vec<Expected> {
    let mut writes: BTreeMap<String, u64> = BTreeMap::new();
    let mut memo: HashMap<(&str, Vec<u64>), Option<u64>> = HashMap::new();
    ops.iter()
        .map(|op| match &op.action {
            Action::Write(source, update) => {
                let ok = twin.write(source, update).is_ok();
                *writes
                    .entry(format!("{source}.{}", update.table()))
                    .or_default() += 1;
                ok.then_some(None)
            }
            Action::Read(sql) => {
                let versions: Vec<u64> = writes
                    .iter()
                    .filter(|(table, _)| sql.contains(table.as_str()))
                    .map(|(_, n)| *n)
                    .collect();
                let digest = *memo
                    .entry((sql.as_str(), versions))
                    .or_insert_with(|| answer(twin, sql));
                digest.map(Some)
            }
        })
        .collect()
}

fn sql(op: &Op) -> &str {
    match &op.action {
        Action::Read(sql) => sql,
        Action::Write(..) => unreachable!("a stream without writes"),
    }
}

/// A stream without writes leaves the twin unchanged, so its distinct
/// statements can be answered on two threads in any order.
fn read_in_parallel(twin: &Env, ops: &[Op]) -> Vec<Expected> {
    let mut distinct: Vec<&str> = ops.iter().map(sql).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let half = distinct.len().div_ceil(2);
    let answers: HashMap<&str, Option<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = distinct
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| (*q, answer(twin, q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("twin worker panicked"))
            .collect()
    });
    ops.iter().map(|op| answers[sql(op)].map(Some)).collect()
}
