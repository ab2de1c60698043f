//! Concrete source adapters.

pub mod csv;
pub mod document;
pub mod relational;
pub mod webservice;

use eii_data::{Batch, EiiError, Result, Row, SchemaRef, Value};
use eii_expr::{bind, Expr};
use eii_storage::KeySet;

/// Shared helper: apply a component query's filters, bindings, projection,
/// and limit to rows already materialized at the wrapper. Used by adapters
/// whose underlying store cannot evaluate these itself.
pub(crate) fn apply_query_locally(
    schema: &SchemaRef,
    rows: Vec<Row>,
    filters: &[Expr],
    bindings: &[(String, Vec<Value>)],
    projection: Option<&[String]>,
    limit: Option<usize>,
) -> Result<Batch> {
    let bound_filters = filters
        .iter()
        .map(|f| bind(f, schema))
        .collect::<Result<Vec<_>>>()?;
    let binding_cols = bindings
        .iter()
        .map(|(col, vals)| Ok((schema.index_of(None, col)?, KeySet::new(vals))))
        .collect::<Result<Vec<_>>>()?;
    let mut out = Vec::new();
    for row in rows {
        let mut keep = true;
        for (col, keys) in &binding_cols {
            if !keys.contains(row.get(*col)) {
                keep = false;
                break;
            }
        }
        if keep {
            for f in &bound_filters {
                if !f.eval_predicate(&row)? {
                    keep = false;
                    break;
                }
            }
        }
        if keep {
            out.push(row);
            if limit.is_some_and(|n| out.len() >= n) {
                break;
            }
        }
    }
    project_batch(schema, out, projection)
}

/// Project rows to the named columns (or all when `None`).
pub(crate) fn project_batch(
    schema: &SchemaRef,
    rows: Vec<Row>,
    projection: Option<&[String]>,
) -> Result<Batch> {
    match projection {
        None => Ok(Batch::new(schema.clone(), rows)),
        Some(cols) => {
            let indices = cols
                .iter()
                .map(|c| schema.index_of(None, c))
                .collect::<Result<Vec<_>>>()?;
            let out_schema = std::sync::Arc::new(eii_data::Schema::new(
                indices.iter().map(|&i| schema.field(i).clone()).collect(),
            ));
            let projected = rows.into_iter().map(|r| r.project(&indices)).collect();
            Ok(Batch::new(out_schema, projected))
        }
    }
}

/// Defensive check used by adapters that cannot evaluate filters/bindings.
pub(crate) fn reject_unsupported(
    source: &str,
    filters: &[Expr],
    bindings: &[(String, Vec<Value>)],
) -> Result<()> {
    if !filters.is_empty() || !bindings.is_empty() {
        return Err(EiiError::Source(format!(
            "source {source} cannot evaluate filters or bindings; plan must assemble locally"
        )));
    }
    Ok(())
}
