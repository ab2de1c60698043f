//! The warehouse: target tables, scheduled refresh, staleness accounting.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use eii_data::{Batch, EiiError, Result, Row, SimClock, Value};
use eii_federation::{Federation, SourceQuery};
use eii_storage::{ChangeOp, Database, TableDef};

use crate::etl::{EtlJob, EtlStats};

/// Simulated cost of writing one row into a warehouse table (index + page
/// writes), ms.
const LOAD_MS_PER_ROW: f64 = 0.002;

/// How a refresh acquires source data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Re-extract the whole source table (the "monthly dump").
    Full,
    /// Consume the source's change log since the last watermark (CDC).
    Incremental,
}

/// A warehouse: its own database loaded by ETL jobs from a federation.
pub struct Warehouse {
    db: Database,
    federation: Federation,
    clock: SimClock,
    jobs: BTreeMap<String, EtlJob>,
    stats: Mutex<BTreeMap<String, EtlStats>>,
}

impl Warehouse {
    /// An empty warehouse named `name`, extracting from `federation`.
    pub fn new(name: impl Into<String>, federation: Federation, clock: SimClock) -> Self {
        Warehouse {
            db: Database::new(name, clock.clone()),
            federation,
            clock,
            jobs: BTreeMap::new(),
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// The warehouse's own database (wrap it in a `RelationalConnector` to
    /// query it through the engine).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Register a job, creating its (empty) target table with the
    /// post-transform schema.
    pub fn add_job(&mut self, job: EtlJob) -> Result<()> {
        if self.jobs.contains_key(&job.name) {
            return Err(EiiError::AlreadyExists(format!("etl job {}", job.name)));
        }
        // Derive the target schema by transforming an empty extract.
        let src_schema = self.federation.table_schema(&job.source_table)?;
        let empty = Batch::empty(src_schema);
        let out_schema = job.transform(empty)?.schema().clone();
        let mut def = TableDef::new(job.target_table.clone(), out_schema.clone());
        if let Some(key) = &job.target_key {
            def = def.with_primary_key(out_schema.index_of(None, key)?);
        }
        self.db.create_table(def)?;
        self.stats.lock().insert(job.name.clone(), EtlStats::default());
        self.jobs.insert(job.name.clone(), job);
        Ok(())
    }

    /// Names of registered jobs.
    pub fn job_names(&self) -> Vec<String> {
        self.jobs.keys().cloned().collect()
    }

    /// Bookkeeping for one job.
    pub fn stats(&self, job: &str) -> Option<EtlStats> {
        self.stats.lock().get(job).copied()
    }

    /// Total simulated time spent refreshing across all jobs — the "cost of
    /// building [and maintaining] a warehouse".
    pub fn total_refresh_ms(&self) -> f64 {
        self.stats.lock().values().map(|s| s.refresh_ms).sum()
    }

    /// Simulated staleness of a job's data right now.
    pub fn staleness_ms(&self, job: &str) -> Result<i64> {
        let stats = self
            .stats(job)
            .ok_or_else(|| EiiError::NotFound(format!("etl job {job}")))?;
        Ok(self.clock.now_ms() - stats.last_refresh_at_ms)
    }

    /// Refresh one job. Returns the simulated cost in milliseconds. The
    /// shared clock advances by that cost (refreshing takes time — that is
    /// the whole tradeoff).
    pub fn refresh(&self, job_name: &str, mode: RefreshMode) -> Result<f64> {
        let job = self
            .jobs
            .get(job_name)
            .ok_or_else(|| EiiError::NotFound(format!("etl job {job_name}")))?;
        let cost_ms = match mode {
            RefreshMode::Full => self.refresh_full(job)?,
            RefreshMode::Incremental => self.refresh_incremental(job)?,
        };
        self.clock.advance_ms(cost_ms.ceil() as i64);
        let mut stats = self.stats.lock();
        let s = stats.get_mut(job_name).expect("registered");
        s.refreshes += 1;
        s.refresh_ms += cost_ms;
        s.last_refresh_at_ms = self.clock.now_ms();
        Ok(cost_ms)
    }

    /// Refresh every job.
    pub fn refresh_all(&self, mode: RefreshMode) -> Result<f64> {
        let names: Vec<String> = self.jobs.keys().cloned().collect();
        let mut total = 0.0;
        for n in names {
            total += self.refresh(&n, mode)?;
        }
        Ok(total)
    }

    fn refresh_full(&self, job: &EtlJob) -> Result<f64> {
        let (handle, table) = self.federation.resolve(&job.source_table)?;
        let (batch, cost) = handle.query(&SourceQuery::full_table(table))?;
        let transformed = job.transform(batch)?;
        let target = self.db.table(&job.target_table)?;
        let mut t = target.write();
        t.truncate();
        let n = transformed.num_rows();
        t.insert_all(transformed.into_rows())
            .map_err(|e| EiiError::Etl(format!("job {}: load failed: {e}", job.name)))?;
        let mut stats = self.stats.lock();
        let s = stats.get_mut(&job.name).expect("registered");
        s.rows_loaded += n;
        // Full refresh resets the CDC watermark to "everything seen so far".
        if let Ok((_, hw)) = handle.connector().changes_since(job.table()?, u64::MAX) {
            s.watermark = hw;
        } else if let Ok((_, hw)) = handle.connector().changes_since(job.table()?, 0) {
            s.watermark = hw;
        }
        Ok(cost.sim_ms + n as f64 * LOAD_MS_PER_ROW)
    }

    fn refresh_incremental(&self, job: &EtlJob) -> Result<f64> {
        let key = job.target_key.as_deref().ok_or_else(|| {
            EiiError::Etl(format!(
                "job {}: incremental refresh requires a target key",
                job.name
            ))
        })?;
        let (handle, table) = self.federation.resolve(&job.source_table)?;
        let watermark = self
            .stats(&job.name)
            .map(|s| s.watermark)
            .unwrap_or(0);
        let (changes, new_watermark) =
            handle.connector().changes_since(&table, watermark)?;
        let src_schema = self.federation.table_schema(&job.source_table)?;
        let target = self.db.table(&job.target_table)?;
        let key_idx = target.read().schema().index_of(None, key)?;

        let mut bytes = 0usize;
        let mut applied = 0usize;
        {
            let mut t = target.write();
            for change in &changes {
                match &change.op {
                    ChangeOp::Insert { new } => {
                        bytes += new.wire_size();
                        if let Some(row) = job.transform_row(src_schema.clone(), Row::clone(new))? {
                            // Upsert semantics: a full refresh may already
                            // hold this row.
                            let k = row.get(key_idx).clone();
                            t.delete_by_pk(&k);
                            t.insert(row).map_err(|e| {
                                EiiError::Etl(format!("job {}: {e}", job.name))
                            })?;
                            applied += 1;
                        }
                    }
                    ChangeOp::Update { old, new } => {
                        bytes += old.wire_size() + new.wire_size();
                        if let Some(old_row) =
                            job.transform_row(src_schema.clone(), Row::clone(old))?
                        {
                            t.delete_by_pk(&old_row.get(key_idx).clone());
                        }
                        if let Some(new_row) =
                            job.transform_row(src_schema.clone(), Row::clone(new))?
                        {
                            let k: Value = new_row.get(key_idx).clone();
                            t.delete_by_pk(&k);
                            t.insert(new_row).map_err(|e| {
                                EiiError::Etl(format!("job {}: {e}", job.name))
                            })?;
                        }
                        applied += 1;
                    }
                    ChangeOp::Delete { old } => {
                        bytes += old.wire_size();
                        if let Some(old_row) =
                            job.transform_row(src_schema.clone(), Row::clone(old))?
                        {
                            t.delete_by_pk(&old_row.get(key_idx).clone());
                            applied += 1;
                        }
                    }
                }
            }
        }
        // Charge the CDC shipment on the federation's ledger.
        let link = handle.link();
        let ship_ms = link.transfer_ms(bytes);
        self.federation
            .ledger()
            .record(job.source()?, bytes, changes.len(), ship_ms);
        let mut stats = self.stats.lock();
        let s = stats.get_mut(&job.name).expect("registered");
        s.rows_loaded += applied;
        s.watermark = new_watermark;
        Ok(ship_ms + applied as f64 * LOAD_MS_PER_ROW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::Transform;
    use eii_data::{row, DataType, Field, Schema};
    use eii_federation::{LinkProfile, RelationalConnector, WireFormat};
    use eii_storage::Database as SrcDb;
    use std::sync::Arc;

    fn setup() -> (Federation, SimClock, eii_storage::database::TableHandle) {
        let clock = SimClock::new();
        let crm = SrcDb::new("crm", clock.clone());
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]));
        let t = crm
            .create_table(TableDef::new("customers", schema).with_primary_key(0))
            .unwrap();
        {
            let mut t = t.write();
            t.insert(row![1i64, " Alice ", "west"]).unwrap();
            t.insert(row![2i64, "BOB", "east"]).unwrap();
        }
        let fed = Federation::new();
        fed.register(
            Arc::new(RelationalConnector::new(crm)),
            LinkProfile::lan(),
            WireFormat::Native,
        )
        .unwrap();
        (fed, clock, t)
    }

    fn job() -> EtlJob {
        EtlJob::copy("load_customers", "crm.customers", "dim_customers")
            .with_key("id")
            .with_transform(Transform::Normalize("name".into()))
    }

    #[test]
    fn full_refresh_loads_cleansed_rows() {
        let (fed, clock, _) = setup();
        let mut wh = Warehouse::new("wh", fed, clock);
        wh.add_job(job()).unwrap();
        let cost = wh.refresh("load_customers", RefreshMode::Full).unwrap();
        assert!(cost > 0.0);
        let t = wh.database().table("dim_customers").unwrap();
        assert_eq!(t.read().row_count(), 2);
        let (_, r) = t.read().get_by_pk(&Value::Int(1)).map(|(i, r)| (i, r.clone())).unwrap();
        assert_eq!(r.get(1), &Value::str("alice"));
    }

    #[test]
    fn incremental_refresh_applies_cdc() {
        let (fed, clock, src) = setup();
        let mut wh = Warehouse::new("wh", fed, clock);
        wh.add_job(job()).unwrap();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();

        // Mutate the source after the full load.
        {
            let mut t = src.write();
            t.insert(row![3i64, "Carol", "west"]).unwrap();
            t.update_by_pk(&Value::Int(2), &[(1, Value::str("Robert"))])
                .unwrap();
            t.delete_by_pk(&Value::Int(1));
        }
        wh.refresh("load_customers", RefreshMode::Incremental).unwrap();
        let t = wh.database().table("dim_customers").unwrap();
        let t = t.read();
        assert_eq!(t.row_count(), 2);
        assert!(t.get_by_pk(&Value::Int(1)).is_none(), "delete propagated");
        assert_eq!(
            t.get_by_pk(&Value::Int(2)).unwrap().1.get(1),
            &Value::str("robert"),
            "update propagated through cleansing"
        );
        assert!(t.get_by_pk(&Value::Int(3)).is_some(), "insert propagated");
    }

    #[test]
    fn incremental_without_key_is_an_etl_error() {
        let (fed, clock, _) = setup();
        let mut wh = Warehouse::new("wh", fed, clock);
        let mut j = job();
        j.target_key = None;
        j.name = "nokey".into();
        j.target_table = "t2".into();
        wh.add_job(j).unwrap();
        assert_eq!(
            wh.refresh("nokey", RefreshMode::Incremental).unwrap_err().kind(),
            "etl"
        );
    }

    #[test]
    fn staleness_grows_until_refresh() {
        let (fed, clock, _) = setup();
        let mut wh = Warehouse::new("wh", fed, clock.clone());
        wh.add_job(job()).unwrap();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();
        let s0 = wh.staleness_ms("load_customers").unwrap();
        clock.advance_ms(10_000);
        let s1 = wh.staleness_ms("load_customers").unwrap();
        assert_eq!(s1 - s0, 10_000);
        wh.refresh("load_customers", RefreshMode::Full).unwrap();
        assert!(wh.staleness_ms("load_customers").unwrap() < s1);
    }

    #[test]
    fn refresh_costs_accumulate() {
        let (fed, clock, _) = setup();
        let mut wh = Warehouse::new("wh", fed, clock);
        wh.add_job(job()).unwrap();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();
        let s = wh.stats("load_customers").unwrap();
        assert_eq!(s.refreshes, 2);
        assert_eq!(s.rows_loaded, 4);
        assert!(wh.total_refresh_ms() > 0.0);
    }

    #[test]
    fn incremental_ships_less_than_full_on_small_deltas() {
        let (fed, clock, src) = setup();
        // Grow the source so full refreshes are visibly expensive.
        {
            let mut t = src.write();
            for i in 10..1000i64 {
                t.insert(row![i, format!("name{i}"), "west"]).unwrap();
            }
        }
        let mut wh = Warehouse::new("wh", fed.clone(), clock);
        wh.add_job(job()).unwrap();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();

        // One small change.
        src.write().insert(row![5000i64, "zed", "east"]).unwrap();
        fed.ledger().reset();
        wh.refresh("load_customers", RefreshMode::Incremental).unwrap();
        let incr_bytes = fed.ledger().total().bytes;
        fed.ledger().reset();
        wh.refresh("load_customers", RefreshMode::Full).unwrap();
        let full_bytes = fed.ledger().total().bytes;
        assert!(
            incr_bytes * 10 < full_bytes,
            "incr={incr_bytes} full={full_bytes}"
        );
    }

    #[test]
    fn duplicate_job_rejected() {
        let (fed, clock, _) = setup();
        let mut wh = Warehouse::new("wh", fed, clock);
        wh.add_job(job()).unwrap();
        assert_eq!(wh.add_job(job()).unwrap_err().kind(), "already_exists");
    }
}
