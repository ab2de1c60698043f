//! The traced run's instrument: a transparent [`Connector`] decorator that
//! forwards every method to the wrapped source and records a wall-clock
//! span around each call that does work (`statistics`, `execute`,
//! `execute_partition`, `update`, `changes_since`).
//!
//! Spans go into one in-memory [`SpanLog`] shared by every decorated
//! source; the benchmark drains it after each operation, so the spans it
//! takes are that operation's connector calls. The metadata calls (`name`, `tables`, `table_schema`,
//! `capabilities`, `dialect`, `supports_partitioned_scans`,
//! `breaker_status`, `last_error`) are forwarded untimed: they return
//! registered metadata and their cost stays in the calling layer.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use eii::data::{Result, SchemaRef};
use eii::federation::{
    BreakerStatus, Connector, Dialect, SourceAnswer, SourceCapabilities, SourceQuery, UpdateOp,
    UpdateResult,
};
use eii::storage::{Change, TableStats};

/// Which connector method a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `Connector::statistics` (planner cost estimates).
    Stats,
    /// `Connector::execute` or `execute_partition` (a component query).
    Fetch,
    /// `Connector::changes_since` (cache validation and IVM deltas).
    Cdc,
    /// `Connector::update` (a base-table write).
    Update,
}

impl CallKind {
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Stats => "connector:statistics",
            CallKind::Fetch => "connector:execute",
            CallKind::Cdc => "connector:changes_since",
            CallKind::Update => "connector:update",
        }
    }
}

/// One timed connector call.
#[derive(Debug, Clone)]
pub struct ConnSpan {
    pub kind: CallKind,
    pub source: Arc<str>,
    pub start: Instant,
    pub end: Instant,
    /// Rows in the returned batch (`Fetch` only).
    pub rows: u64,
    /// `SourceAnswer::rows_scanned` as the connector reported it.
    pub rows_scanned: u64,
}

/// Spans of every decorated connector, kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<ConnSpan>>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog::default())
    }

    /// Take the spans recorded so far.
    pub fn drain(&self) -> Vec<ConnSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }

    fn push(&self, span: ConnSpan) {
        self.spans.lock().expect("span log lock").push(span);
    }
}

/// A source wrapped so that its calls are timed into a [`SpanLog`].
pub struct TimedConnector {
    inner: Arc<dyn Connector>,
    source: Arc<str>,
    log: Arc<SpanLog>,
}

impl TimedConnector {
    pub fn wrap(inner: Arc<dyn Connector>, log: Arc<SpanLog>) -> Arc<dyn Connector> {
        let source = Arc::from(inner.name());
        Arc::new(TimedConnector { inner, source, log })
    }

    fn timed<T>(
        &self,
        kind: CallKind,
        call: impl FnOnce() -> Result<T>,
        counts: impl FnOnce(&T) -> (u64, u64),
    ) -> Result<T> {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let (rows, rows_scanned) = out.as_ref().map_or((0, 0), counts);
        self.log.push(ConnSpan {
            kind,
            source: Arc::clone(&self.source),
            start,
            end,
            rows,
            rows_scanned,
        });
        out
    }
}

fn answer_counts(a: &SourceAnswer) -> (u64, u64) {
    (a.batch.num_rows() as u64, a.rows_scanned as u64)
}

impl Connector for TimedConnector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<String> {
        self.inner.tables()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        self.inner.table_schema(table)
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.inner.capabilities()
    }

    fn dialect(&self) -> Dialect {
        self.inner.dialect()
    }

    fn statistics(&self, table: &str) -> Result<TableStats> {
        self.timed(CallKind::Stats, || self.inner.statistics(table), |_| (0, 0))
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        self.timed(CallKind::Fetch, || self.inner.execute(query), answer_counts)
    }

    fn supports_partitioned_scans(&self) -> bool {
        self.inner.supports_partitioned_scans()
    }

    fn execute_partition(
        &self,
        query: &SourceQuery,
        part: usize,
        of: usize,
    ) -> Result<SourceAnswer> {
        self.timed(
            CallKind::Fetch,
            || self.inner.execute_partition(query, part, of),
            answer_counts,
        )
    }

    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        self.timed(CallKind::Update, || self.inner.update(op), |_| (0, 0))
    }

    fn changes_since(&self, table: &str, after_seq: u64) -> Result<(Vec<Change>, u64)> {
        self.timed(
            CallKind::Cdc,
            || self.inner.changes_since(table, after_seq),
            |_| (0, 0),
        )
    }

    fn breaker_status(&self) -> Option<BreakerStatus> {
        self.inner.breaker_status()
    }

    fn last_error(&self) -> Option<String> {
        self.inner.last_error()
    }
}
