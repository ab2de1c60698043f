//! Per-table change logs.
//!
//! Every mutation of a [`crate::Table`] is appended here with a monotonically
//! increasing sequence number. The warehouse's incremental ETL (extract only
//! what changed since the last refresh) and the materialized-view refresher
//! both read from this log; the EAI engine's change-notification channel is
//! built on it too.
//!
//! Logged rows are [`RowRef`]s shared with the table that wrote them, so
//! logging a write copies no values, and reading the log (`since(..)
//! .to_vec()`) only bumps reference counts.

use eii_data::RowRef;

/// What happened to a row.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOp {
    Insert { new: RowRef },
    Update { old: RowRef, new: RowRef },
    Delete { old: RowRef },
}

/// A logged change.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Monotonic sequence number, 1-based, unique per table.
    pub seq: u64,
    /// Simulated time at which the change committed.
    pub at_ms: i64,
    pub op: ChangeOp,
}

/// An append-only change log.
#[derive(Debug, Default)]
pub struct ChangeLog {
    entries: Vec<Change>,
    next_seq: u64,
}

impl ChangeLog {
    /// Empty log.
    pub fn new() -> Self {
        ChangeLog {
            entries: Vec::new(),
            next_seq: 1,
        }
    }

    /// Append a change, returning its sequence number.
    pub fn append(&mut self, at_ms: i64, op: ChangeOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Change { seq, at_ms, op });
        seq
    }

    /// All changes with `seq > after_seq`, in order.
    pub fn since(&self, after_seq: u64) -> &[Change] {
        // Sequence numbers are dense and 1-based, so the slice offset is
        // directly computable.
        let start = (after_seq as usize).min(self.entries.len());
        &self.entries[start..]
    }

    /// Highest sequence number assigned so far (0 when empty).
    pub fn high_watermark(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of logged changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::row;

    fn logged(row: eii_data::Row) -> RowRef {
        RowRef::new(row)
    }

    #[test]
    fn sequences_are_dense_and_monotonic() {
        let mut log = ChangeLog::new();
        let s1 = log.append(
            0,
            ChangeOp::Insert {
                new: logged(row![1i64]),
            },
        );
        let s2 = log.append(
            5,
            ChangeOp::Delete {
                old: logged(row![1i64]),
            },
        );
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(log.high_watermark(), 2);
    }

    #[test]
    fn since_returns_suffix() {
        let mut log = ChangeLog::new();
        for i in 0..5i64 {
            log.append(
                i,
                ChangeOp::Insert {
                    new: logged(row![i]),
                },
            );
        }
        assert_eq!(log.since(0).len(), 5);
        assert_eq!(log.since(3).len(), 2);
        assert_eq!(log.since(3)[0].seq, 4);
        assert!(log.since(5).is_empty());
        assert!(log.since(99).is_empty());
    }
}
