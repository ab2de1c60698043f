//! Building the system under test and its naive twin.

use std::sync::Arc;

use eii::data::{EiiError, Result};
use eii::prelude::*;
use eii_bench::fedmark::{FedMark, ScaleFactor};

use crate::timing::{SpanLog, TimedConnector};
use crate::workload::{Action, Op, Workload, DATA_SEED};

/// A system ready to run a workload's operations.
pub struct Env {
    pub system: Arc<EiiSystem>,
}

impl Env {
    /// FedMark's sources at scale factor `sf` under
    /// `PlannerConfig::optimized()`, with the workload's cache and views.
    /// With a span log, every source sits behind a [`TimedConnector`].
    pub fn build(workload: Workload, sf: ScaleFactor, log: Option<&Arc<SpanLog>>) -> Result<Env> {
        let config = PlannerConfig::optimized();
        let fm = FedMark::build_with_config(sf, DATA_SEED, config.clone())?;
        // Re-register FedMark's connectors, links and wire formats on a
        // fresh system: this is where the traced run slips its decorator
        // in, so both runs are assembled the same way.
        let fed = fm.system.federation();
        let mut builder = EiiSystem::builder(fm.clock.clone()).planner_config(config);
        for name in fed.source_names() {
            let handle = fed.source(&name)?;
            let connector = match log {
                Some(log) => TimedConnector::wrap(Arc::clone(handle.connector()), Arc::clone(log)),
                None => Arc::clone(handle.connector()),
            };
            builder = builder.source(connector, handle.link(), handle.wire_format());
        }
        if workload.cached() {
            builder = builder.result_cache(CacheConfig::default());
        }
        let system = builder.build()?;
        for (name, sql) in workload.views() {
            if let Some(reason) =
                system.define_incremental_matview(name, sql, RefreshPolicy::Live)?
            {
                return Err(EiiError::Execution(format!(
                    "view {name} fell back to full recompute: {reason}"
                )));
            }
        }
        Ok(Env { system })
    }

    /// The answer-check twin: the same data under `PlannerConfig::naive()`,
    /// with no cache and no views. Its telemetry is off: recording does not
    /// change answers, and the twin replays every statement of a run.
    pub fn naive_twin(sf: ScaleFactor) -> Result<Env> {
        let fm = FedMark::build_with_config(sf, DATA_SEED, PlannerConfig::naive())?;
        fm.system.set_telemetry_enabled(false);
        Ok(Env { system: fm.system })
    }

    /// Run the workload's warm-up pass.
    pub fn warm_up(&self, workload: Workload, sf: ScaleFactor) -> Result<()> {
        for op in workload.warmup(sf) {
            self.apply(&op)?;
        }
        Ok(())
    }

    /// Apply one operation, discarding its answer.
    pub fn apply(&self, op: &Op) -> Result<()> {
        match &op.action {
            Action::Read(sql) => self.system.execute(sql).map(drop),
            Action::Write(source, update) => self.write(source, update),
        }
    }

    /// One write through `SourceHandle::update`; it must touch one row.
    pub fn write(&self, source: &str, update: &UpdateOp) -> Result<()> {
        let (res, _) = self.system.federation().source(source)?.update(update)?;
        if res.affected != 1 {
            return Err(EiiError::Execution(format!(
                "write {update:?} affected {} rows",
                res.affected
            )));
        }
        Ok(())
    }

    /// Bytes shipped so far, as the federation's ledger counts them.
    pub fn shipped_bytes(&self) -> u64 {
        self.system.federation().ledger().total().bytes as u64
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.system.metrics().counter_value(name)
    }
}
