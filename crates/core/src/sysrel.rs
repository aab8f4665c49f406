//! Names and schemas of the `sys.*` system relations.
//!
//! The system relations publish live engine state (metrics, catalog,
//! locks, traces, incidents) as ordinary read-only relations, following
//! the paper's "database publishing" storage-method pattern: the data is
//! externally managed (it lives in the engine's own runtime structures),
//! and a storage method merely presents it through the generic operation
//! interfaces. This module owns the *shape* — table names, one-byte
//! storage-method descriptors, and column schemas — so that `core` can
//! publish the descriptors at open and the system storage method (in the
//! storage crate) can materialize matching rows without the two drifting
//! apart.

use dmx_types::{ColumnDef, DataType, Result, Schema};

/// Registered name of the system-relation storage method.
pub const SM_NAME: &str = "system";

/// `sm_desc` tag selecting the `sys.metrics` relation.
pub const TAG_METRICS: u8 = 1;
/// `sm_desc` tag selecting the `sys.histograms` relation.
pub const TAG_HISTOGRAMS: u8 = 2;
/// `sm_desc` tag selecting the `sys.relations` relation.
pub const TAG_RELATIONS: u8 = 3;
/// `sm_desc` tag selecting the `sys.attachments` relation.
pub const TAG_ATTACHMENTS: u8 = 4;
/// `sm_desc` tag selecting the `sys.locks` relation.
pub const TAG_LOCKS: u8 = 5;
/// `sm_desc` tag selecting the `sys.plan_cache` relation.
pub const TAG_PLAN_CACHE: u8 = 6;
/// `sm_desc` tag selecting the `sys.trace` relation.
pub const TAG_TRACE: u8 = 7;
/// `sm_desc` tag selecting the `sys.incidents` relation.
pub const TAG_INCIDENTS: u8 = 8;
/// `sm_desc` tag selecting the `sys.repairs` relation.
pub const TAG_REPAIRS: u8 = 9;
/// `sm_desc` tag selecting the `sys.statistics` relation.
pub const TAG_STATISTICS: u8 = 10;

/// The full system-relation catalog: `(name, sm_desc tag, schema)` for
/// every published `sys.*` relation, in publication order.
pub fn tables() -> Result<Vec<(&'static str, u8, Schema)>> {
    use DataType::*;
    Ok(vec![
        (
            "sys.metrics",
            TAG_METRICS,
            Schema::new(vec![
                ColumnDef::not_null("name", Str),
                ColumnDef::not_null("kind", Str),
                ColumnDef::not_null("value", Int),
            ])?,
        ),
        (
            "sys.histograms",
            TAG_HISTOGRAMS,
            Schema::new(vec![
                ColumnDef::not_null("name", Str),
                ColumnDef::not_null("bucket", Int),
                // NULL upper bound marks the overflow bucket.
                ColumnDef::new("upper_bound", Int),
                ColumnDef::not_null("count", Int),
            ])?,
        ),
        (
            "sys.relations",
            TAG_RELATIONS,
            Schema::new(vec![
                ColumnDef::not_null("id", Int),
                ColumnDef::not_null("name", Str),
                ColumnDef::not_null("storage_method", Str),
                ColumnDef::not_null("records", Int),
                ColumnDef::not_null("pages", Int),
                ColumnDef::not_null("bytes", Int),
                ColumnDef::not_null("attachments", Int),
                // NULL when healthy; the quarantine reason otherwise.
                ColumnDef::new("quarantined", Str),
            ])?,
        ),
        (
            "sys.attachments",
            TAG_ATTACHMENTS,
            Schema::new(vec![
                ColumnDef::not_null("relation", Str),
                ColumnDef::not_null("type", Str),
                ColumnDef::not_null("instance", Int),
                ColumnDef::not_null("name", Str),
                // The DDL list that created it, without the keys the
                // engine assigned (`crate::ASSIGNED_KEYS`).
                ColumnDef::not_null("params", Str),
            ])?,
        ),
        (
            "sys.locks",
            TAG_LOCKS,
            Schema::new(vec![
                ColumnDef::not_null("name", Str),
                ColumnDef::not_null("txn", Int),
                ColumnDef::not_null("mode", Str),
                ColumnDef::not_null("state", Str),
            ])?,
        ),
        (
            "sys.plan_cache",
            TAG_PLAN_CACHE,
            Schema::new(vec![
                ColumnDef::not_null("sql", Str),
                ColumnDef::not_null("valid", Bool),
            ])?,
        ),
        (
            "sys.trace",
            TAG_TRACE,
            Schema::new(vec![
                ColumnDef::not_null("seq", Int),
                ColumnDef::not_null("layer", Str),
                ColumnDef::not_null("op", Str),
                ColumnDef::not_null("target", Int),
                ColumnDef::not_null("detail", Int),
            ])?,
        ),
        (
            "sys.incidents",
            TAG_INCIDENTS,
            Schema::new(vec![
                // Monotone incident number; survives ring eviction so
                // consumers can detect gaps.
                ColumnDef::not_null("incident", Int),
                ColumnDef::not_null("item", Str),
                ColumnDef::not_null("value", Str),
            ])?,
        ),
        (
            "sys.repairs",
            TAG_REPAIRS,
            Schema::new(vec![
                ColumnDef::not_null("repair", Int),
                ColumnDef::not_null("relation", Str),
                ColumnDef::not_null("action", Str),
                ColumnDef::not_null("outcome", Str),
                ColumnDef::not_null("attempts", Int),
                ColumnDef::not_null("recovered", Int),
                ColumnDef::not_null("lost", Int),
                ColumnDef::not_null("detail", Str),
            ])?,
        ),
        (
            "sys.statistics",
            TAG_STATISTICS,
            Schema::new(vec![
                ColumnDef::not_null("relation", Str),
                ColumnDef::not_null("field", Str),
                ColumnDef::not_null("rows", Int),
                // Per-field columns are NULL for untracked (non-numeric)
                // fields and for the per-relation summary row.
                ColumnDef::new("nulls", Int),
                ColumnDef::new("distinct", Int),
                ColumnDef::new("min", Str),
                ColumnDef::new("max", Str),
                // Rendered histogram (`lo..hi: c0,c1,…`), NULL until
                // ANALYZE froze bucket bounds.
                ColumnDef::new("histogram", Str),
            ])?,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tables_are_well_formed_and_distinct() {
        let tables = tables().unwrap();
        assert_eq!(tables.len(), 10);
        let names: HashSet<&str> = tables.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names.len(), tables.len(), "names unique");
        let tags: HashSet<u8> = tables.iter().map(|(_, t, _)| *t).collect();
        assert_eq!(tags.len(), tables.len(), "tags unique");
        for (name, _, _) in &tables {
            assert!(name.starts_with("sys."), "{name} in the sys namespace");
        }
    }
}
