//! Adapter for relational sources backed by [`eii_storage::Database`].
//!
//! This is the workhorse wrapper: it pushes the dialect-supported subset of
//! filters into the source engine (index-assisted where possible), honors
//! projections, limits and bind-join batches, and routes EAI updates.

use eii_data::{EiiError, Result, SchemaRef, Value};
use eii_expr::bind;
use eii_storage::{Database, TableStats};

use crate::adapters::apply_query_locally;
use crate::capability::SourceCapabilities;
use crate::connector::{Connector, SourceAnswer, SourceQuery, UpdateOp, UpdateResult};
use crate::dialect::Dialect;

/// A wrapped relational database.
pub struct RelationalConnector {
    db: Database,
    dialect: Dialect,
    capabilities: SourceCapabilities,
}

impl RelationalConnector {
    /// Wrap `db` with a full ANSI dialect.
    pub fn new(db: Database) -> Self {
        RelationalConnector {
            db,
            dialect: Dialect::ansi_full(),
            capabilities: SourceCapabilities::relational(),
        }
    }

    /// Wrap with a specific vendor dialect (the fine-grained modeling of
    /// Draper §5 — or a deliberately degraded one for experiment E11).
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Override capabilities (e.g. mark the source non-queryable to model
    /// an administrator who refuses external queries).
    pub fn with_capabilities(mut self, caps: SourceCapabilities) -> Self {
        self.capabilities = caps;
        self
    }

    /// Access to the underlying database (for seeding and for the ETL
    /// extract path, which reads change logs directly).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Connector for RelationalConnector {
    fn name(&self) -> &str {
        self.db.name()
    }

    fn tables(&self) -> Vec<String> {
        self.db.table_names()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        Ok(self.db.table(table)?.read().schema().clone())
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.capabilities.clone()
    }

    fn dialect(&self) -> Dialect {
        self.dialect.clone()
    }

    fn statistics(&self, table: &str) -> Result<TableStats> {
        Ok(self.db.table(table)?.read().stats().clone())
    }

    fn execute(&self, query: &SourceQuery) -> Result<SourceAnswer> {
        if !self.capabilities.queryable {
            return Err(EiiError::Source(format!(
                "source {} refuses external queries",
                self.name()
            )));
        }
        // Defensive dialect check: the planner should never push an
        // unsupported predicate, but a remote engine would reject it, so we
        // do too.
        for f in &query.filters {
            if !self.dialect.supports(f) {
                return Err(EiiError::Source(format!(
                    "source {} dialect '{}' rejects predicate {f}",
                    self.name(),
                    self.dialect.name
                )));
            }
        }
        let handle = self.db.table(&query.table)?;
        let t = handle.read();
        let schema = t.schema().clone();

        // Choose the access path: a single equality binding is one
        // multi-key lookup (index probes, or one pass over the table);
        // otherwise scan.
        let (candidate_rows, rows_scanned) = match query.bindings.as_slice() {
            [(col, vals)] => {
                let col_idx = schema.index_of(None, col)?;
                let rows = t.lookup_in(col_idx, vals);
                let scanned = rows.len();
                (rows, scanned)
            }
            _ => {
                let rows = t.all_rows();
                let scanned = rows.len();
                (rows, scanned)
            }
        };
        drop(t);

        let remaining_bindings: Vec<(String, Vec<Value>)> = if query.bindings.len() == 1 {
            Vec::new() // already applied via lookup
        } else {
            query.bindings.clone()
        };
        let batch = apply_query_locally(
            &schema,
            candidate_rows,
            &query.filters,
            &remaining_bindings,
            query.projection.as_deref(),
            query.limit,
        )?;
        Ok(SourceAnswer::one_shot(batch, rows_scanned))
    }

    fn supports_partitioned_scans(&self) -> bool {
        true
    }

    fn execute_partition(&self, query: &SourceQuery, part: usize, of: usize) -> Result<SourceAnswer> {
        if of == 0 || part >= of {
            return Err(EiiError::Execution(format!(
                "bad partition {part} of {of}"
            )));
        }
        if !query.bindings.is_empty() || query.limit.is_some() {
            return Err(EiiError::Source(format!(
                "source {} only partitions unbound, unlimited scans",
                self.name()
            )));
        }
        if !self.capabilities.queryable {
            return Err(EiiError::Source(format!(
                "source {} refuses external queries",
                self.name()
            )));
        }
        for f in &query.filters {
            if !self.dialect.supports(f) {
                return Err(EiiError::Source(format!(
                    "source {} dialect '{}' rejects predicate {f}",
                    self.name(),
                    self.dialect.name
                )));
            }
        }
        let handle = self.db.table(&query.table)?;
        let t = handle.read();
        let schema = t.schema().clone();
        let rows = t.all_rows();
        drop(t);
        // Balanced contiguous ranges: partition i owns [i*n/of, (i+1)*n/of),
        // so the ranges are disjoint, cover every row, and concatenate back
        // in scan order.
        let n = rows.len();
        let (start, end) = (part * n / of, (part + 1) * n / of);
        let slice = rows[start..end].to_vec();
        let scanned = slice.len();
        let batch = apply_query_locally(
            &schema,
            slice,
            &query.filters,
            &[],
            query.projection.as_deref(),
            None,
        )?;
        Ok(SourceAnswer::one_shot(batch, scanned))
    }

    fn changes_since(
        &self,
        table: &str,
        after_seq: u64,
    ) -> Result<(Vec<eii_storage::Change>, u64)> {
        let handle = self.db.table(table)?;
        let t = handle.read();
        let log = t.changelog();
        Ok((log.since(after_seq).to_vec(), log.high_watermark()))
    }

    fn update(&self, op: &UpdateOp) -> Result<UpdateResult> {
        if !self.capabilities.updatable {
            return Err(EiiError::Source(format!(
                "source {} is read-only",
                self.name()
            )));
        }
        let handle = self.db.table(op.table())?;
        let mut t = handle.write();
        match op {
            UpdateOp::Insert { row, .. } => {
                t.insert(row.clone())?;
                Ok(UpdateResult { affected: 1 })
            }
            UpdateOp::UpdateByKey {
                key, assignments, ..
            } => {
                let schema = t.schema().clone();
                let resolved = assignments
                    .iter()
                    .map(|(col, v)| Ok((schema.index_of(None, col)?, v.clone())))
                    .collect::<Result<Vec<_>>>()?;
                let hit = t.update_by_pk(key, &resolved)?;
                Ok(UpdateResult {
                    affected: usize::from(hit),
                })
            }
            UpdateOp::DeleteByKey { key, .. } => {
                let hit = t.delete_by_pk(key);
                Ok(UpdateResult {
                    affected: usize::from(hit),
                })
            }
        }
    }
}

/// Convenience for tests and generators: evaluate an arbitrary predicate
/// locally against a table (not via the wrapper).
pub fn scan_with_predicate(
    db: &Database,
    table: &str,
    pred: &eii_expr::Expr,
) -> Result<Vec<eii_data::Row>> {
    let handle = db.table(table)?;
    let t = handle.read();
    let bound = bind(pred, t.schema())?;
    let mut out = Vec::new();
    for (_, row) in t.iter() {
        if bound.eval_predicate(row)? {
            out.push(row.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eii_data::{row, DataType, Field, Schema, SimClock};
    use eii_expr::Expr;
    use eii_storage::TableDef;
    use std::sync::Arc;

    fn setup() -> RelationalConnector {
        let db = Database::new("crm", SimClock::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]));
        let t = db
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        {
            let mut t = t.write();
            t.insert(row![1i64, "alice", "west"]).unwrap();
            t.insert(row![2i64, "bob", "east"]).unwrap();
            t.insert(row![3i64, "carol", "west"]).unwrap();
        }
        RelationalConnector::new(db)
    }

    #[test]
    fn pushes_filters_and_projection() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: Some(vec!["name".into()]),
            filters: vec![Expr::col("region").eq(Expr::lit("west"))],
            bindings: vec![],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.batch.num_rows(), 2);
        assert_eq!(ans.batch.schema().len(), 1);
        assert_eq!(ans.rows_scanned, 3, "no index help: full scan");
    }

    #[test]
    fn binding_lookup_uses_pk_index() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![],
            bindings: vec![("id".into(), vec![Value::Int(1), Value::Int(3)])],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        assert_eq!(ans.batch.num_rows(), 2);
        assert_eq!(ans.rows_scanned, 2, "point lookups, not a scan");
    }

    #[test]
    fn dialect_rejection_is_defensive() {
        let c = setup().with_dialect(Dialect::lowest_common_denominator());
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![Expr::col("id").lt(Expr::lit(2i64))],
            bindings: vec![],
            limit: None,
        };
        assert_eq!(c.execute(&q).unwrap_err().kind(), "source");
    }

    #[test]
    fn non_queryable_source_refuses() {
        let mut caps = SourceCapabilities::relational();
        caps.queryable = false;
        let c = setup().with_capabilities(caps);
        let err = c.execute(&SourceQuery::full_table("customers")).unwrap_err();
        assert_eq!(err.kind(), "source");
    }

    #[test]
    fn updates_route_to_storage() {
        let c = setup();
        c.update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![4i64, "dave", "north"],
        })
        .unwrap();
        let r = c
            .update(&UpdateOp::UpdateByKey {
                table: "customers".into(),
                key: Value::Int(4),
                assignments: vec![("region".into(), Value::str("south"))],
            })
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = c
            .update(&UpdateOp::DeleteByKey {
                table: "customers".into(),
                key: Value::Int(4),
            })
            .unwrap();
        assert_eq!(r.affected, 1);
        // Missing key affects zero rows.
        let r = c
            .update(&UpdateOp::DeleteByKey {
                table: "customers".into(),
                key: Value::Int(99),
            })
            .unwrap();
        assert_eq!(r.affected, 0);
    }

    #[test]
    fn limit_is_honored() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: None,
            filters: vec![],
            bindings: vec![],
            limit: Some(2),
        };
        assert_eq!(c.execute(&q).unwrap().batch.num_rows(), 2);
    }

    #[test]
    fn statistics_reflect_table() {
        let c = setup();
        let s = c.statistics("customers").unwrap();
        assert_eq!(s.row_count, 3);
        assert_eq!(s.columns[2].ndv, 2);
    }

    #[test]
    fn statistics_follow_every_kind_of_write() {
        let c = setup();
        assert_eq!(c.statistics("customers").unwrap().row_count, 3);
        c.update(&UpdateOp::Insert {
            table: "customers".into(),
            row: row![4i64, "dave", "north"],
        })
        .unwrap();
        let s = c.statistics("customers").unwrap();
        assert_eq!((s.row_count, s.columns[2].ndv), (4, 3), "after insert");
        c.update(&UpdateOp::UpdateByKey {
            table: "customers".into(),
            key: Value::Int(4),
            assignments: vec![("region".into(), Value::str("west"))],
        })
        .unwrap();
        assert_eq!(
            c.statistics("customers").unwrap().columns[2].ndv,
            2,
            "after update"
        );
        c.update(&UpdateOp::DeleteByKey {
            table: "customers".into(),
            key: Value::Int(2),
        })
        .unwrap();
        let s = c.statistics("customers").unwrap();
        assert_eq!((s.row_count, s.columns[2].ndv), (3, 1), "after delete");
        // A write straight to the table, bypassing the connector.
        c.database()
            .table("customers")
            .unwrap()
            .write()
            .insert(row![5i64, "erin", "south"])
            .unwrap();
        assert_eq!(
            c.statistics("customers").unwrap().row_count,
            4,
            "after a direct write"
        );
    }

    #[test]
    fn statistics_do_not_wait_for_readers() {
        let c = Arc::new(setup());
        let handle = c.database().table("customers").unwrap();
        let guard = handle.read();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&c);
        let planner = std::thread::spawn(move || {
            tx.send(reader.statistics("customers").map(|s| s.row_count))
                .expect("test thread waits for the answer");
        });
        // A timeout, not a join, so that a statistics call that blocks on
        // the held guard fails the test instead of hanging it.
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("statistics returned while a read guard was held");
        assert_eq!(got.unwrap(), 3);
        drop(guard);
        planner.join().expect("statistics thread finished");
    }

    #[test]
    fn unindexed_binding_fetch_keeps_binding_order() {
        let c = setup();
        let q = SourceQuery {
            table: "customers".into(),
            projection: Some(vec!["name".into()]),
            filters: vec![],
            bindings: vec![(
                "region".into(),
                vec![Value::str("east"), Value::str("west"), Value::str("east")],
            )],
            limit: None,
        };
        let ans = c.execute(&q).unwrap();
        let names: Vec<Value> = ans.batch.rows().iter().map(|r| r.get(0).clone()).collect();
        let expected = ["bob", "alice", "carol", "bob"].map(Value::str).to_vec();
        assert_eq!(names, expected);
        assert_eq!(ans.rows_scanned, 4, "rows_scanned counts the rows returned");
    }
}
