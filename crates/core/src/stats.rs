//! Per-relation statistics for the cost-estimation interface.
//!
//! The paper allows attachments "to maintain statistics about relations";
//! the core also keeps a baseline record/page count per relation, shared
//! (by `Arc`) between the catalog and every bound plan so cached plans see
//! fresh statistics without re-reading the catalog. The record and byte
//! counts follow the version stamps: the dispatcher adds a write's share
//! where it records the stamp, and every rollback takes back the shares
//! of the stamps it retracts, so the planner is never costed on rows of
//! rolled-back work.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use dmx_expr::stats::TableStats;
use dmx_types::sync::RwLock;

/// Mutable relation statistics with atomic counters.
#[derive(Default)]
pub struct RelationStats {
    records: AtomicI64,
    pages: AtomicI64,
    /// Sum of the encoded bytes of the records counted (`sys.relations`
    /// reports it).
    bytes: AtomicI64,
    /// Field-level statistics published by the statistics attachment
    /// (`None` until an instance exists and has observed the relation).
    /// Immutable snapshots behind an `Arc`: the estimator clones the
    /// handle and computes without holding the lock.
    field_stats: RwLock<Option<Arc<TableStats>>>,
}

impl std::fmt::Debug for RelationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationStats")
            .field("records", &self.records())
            .field("pages", &self.pages())
            .field("field_stats", &self.table_stats().is_some())
            .finish()
    }
}

impl RelationStats {
    /// Current record count (never negative).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed).max(0) as u64
    }

    /// Current page estimate (never below 1, so cost math stays sane).
    pub fn pages(&self) -> u64 {
        self.pages.load(Ordering::Relaxed).max(1) as u64
    }

    /// Adds a write's share of the record count and encoded bytes — or,
    /// negated, takes a rolled-back write's share back.
    pub fn apply(&self, records_delta: i64, bytes_delta: i64) {
        self.records.fetch_add(records_delta, Ordering::Relaxed);
        self.bytes.fetch_add(bytes_delta, Ordering::Relaxed);
    }

    /// Page-count maintenance (called by storage methods on allocation).
    pub fn on_page_allocated(&self) {
        self.pages.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrites the counters (catalog load / recomputation).
    pub fn reset(&self, records: u64, pages: u64, bytes: u64) {
        self.records.store(records as i64, Ordering::Relaxed);
        self.pages.store(pages as i64, Ordering::Relaxed);
        self.bytes.store(bytes as i64, Ordering::Relaxed);
    }

    /// The current field-level statistics snapshot, if one is published.
    pub fn table_stats(&self) -> Option<Arc<TableStats>> {
        self.field_stats.read().clone()
    }

    /// Publishes (or clears, with `None`) the field-level statistics
    /// snapshot. Called by the statistics attachment after every
    /// maintained change so cached plans estimate against fresh numbers.
    pub fn publish_table_stats(&self, stats: Option<Arc<TableStats>>) {
        *self.field_stats.write() = stats;
    }

    /// The counters as the catalog header stores them: records, pages
    /// (without [`RelationStats::pages`]'s floor, so a descriptor rebuilt
    /// from its header counts what the one it was written from did) and
    /// bytes.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        let raw = |c: &AtomicI64| c.load(Ordering::Relaxed).max(0) as u64;
        (raw(&self.records), raw(&self.pages), raw(&self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_applied_deltas() {
        let s = RelationStats::default();
        s.apply(1, 100);
        s.apply(1, 200);
        s.apply(0, -100); // an update that shrank a record
        assert_eq!(s.snapshot(), (2, 0, 200));
        s.apply(-1, -100);
        assert_eq!(s.snapshot(), (1, 0, 100));
    }

    #[test]
    fn never_negative_and_pages_floor() {
        let s = RelationStats::default();
        s.apply(-1, -50); // a spurious delete must not underflow the API
        assert_eq!(s.records(), 0);
        assert_eq!(s.pages(), 1);
        s.on_page_allocated();
        s.on_page_allocated();
        assert_eq!(s.pages(), 2);
    }

    #[test]
    fn table_stats_publication_roundtrip() {
        let s = RelationStats::default();
        assert!(s.table_stats().is_none());
        let ts = Arc::new(TableStats {
            rows: 42,
            columns: vec![None],
        });
        s.publish_table_stats(Some(ts.clone()));
        assert_eq!(s.table_stats().unwrap().rows, 42);
        s.publish_table_stats(None);
        assert!(s.table_stats().is_none());
    }

    #[test]
    fn reset_and_snapshot_roundtrip() {
        let s = RelationStats::default();
        s.reset(10, 3, 640);
        assert_eq!(s.snapshot(), (10, 3, 640));
    }
}
