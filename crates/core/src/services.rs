//! The common services environment.
//!
//! "Storage method and attachment extensions, while isolated from each
//! other by the extension architecture, are embedded in the database
//! management system execution environment and must therefore obey
//! certain conventions and make use of certain common services."
//! [`CommonServices`] bundles those services: the simulated disk and
//! buffer pool, the write-ahead log, the system lock manager, B-tree
//! latches and the predicate-evaluator function registry.

use std::sync::Arc;

use dmx_types::sync::RwLock;

use dmx_btree::LatchTable;
use dmx_expr::FunctionRegistry;
use dmx_lock::LockManager;
use dmx_page::{BufferPool, DiskManager, WalHook};
use dmx_types::obs::MetricsRegistry;
use dmx_types::{Lsn, Result};
use dmx_wal::LogManager;

/// Shared execution environment handed (via [`crate::ExecCtx`]) to every
/// generic operation.
pub struct CommonServices {
    pub disk: Arc<dyn DiskManager>,
    pub pool: Arc<BufferPool>,
    pub log: Arc<LogManager>,
    pub locks: Arc<LockManager>,
    pub latches: Arc<LatchTable>,
    /// User functions callable from filter predicates.
    pub funcs: RwLock<FunctionRegistry>,
    /// The database-wide metrics registry; extensions may register their
    /// own named counters here alongside the kernel's.
    pub metrics: Arc<MetricsRegistry>,
}

impl CommonServices {
    /// Wires the services together with a private metrics registry (used
    /// by component-level tests; the database passes a shared registry
    /// via [`CommonServices::with_metrics`]).
    pub fn new(
        disk: Arc<dyn DiskManager>,
        pool: Arc<BufferPool>,
        log: Arc<LogManager>,
        locks: Arc<LockManager>,
    ) -> Arc<Self> {
        Self::with_metrics(disk, pool, log, locks, MetricsRegistry::new())
    }

    /// Wires the services together, installing the WAL hook on the buffer
    /// pool so the write-ahead rule holds.
    pub fn with_metrics(
        disk: Arc<dyn DiskManager>,
        pool: Arc<BufferPool>,
        log: Arc<LogManager>,
        locks: Arc<LockManager>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        struct Hook(Arc<LogManager>);
        impl WalHook for Hook {
            fn force(&self, lsn: Lsn) -> Result<()> {
                self.0.force(lsn)
            }
        }
        pool.set_wal_hook(Arc::new(Hook(log.clone())));
        Arc::new(CommonServices {
            disk,
            pool,
            log,
            locks,
            latches: LatchTable::new(),
            funcs: RwLock::new(FunctionRegistry::with_builtins()),
            metrics,
        })
    }
}

#[cfg(test)]
// The unit tests build raw disks or logs beneath the fault injector.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use dmx_page::MemDisk;
    use dmx_wal::StableLog;
    use std::time::Duration;

    #[test]
    fn wiring_installs_wal_hook() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 8);
        let log = Arc::new(LogManager::open(StableLog::new()));
        let locks = Arc::new(LockManager::new(Duration::from_secs(1)));
        let svc = CommonServices::new(disk.clone(), pool.clone(), log.clone(), locks);

        // Dirty a page carrying an unforced LSN; flushing must force it.
        let f = disk.create_file().unwrap();
        let lsn = log.append(dmx_types::TxnId(1), Lsn::NULL, dmx_wal::LogBody::Begin);
        let p = pool.new_page(f).unwrap();
        drop(p.write(dmx_types::Appended::by_log(lsn)));
        drop(p);
        assert!(log.durable_lsn().is_null());
        svc.pool.flush_all().unwrap();
        assert_eq!(log.durable_lsn(), lsn);
        assert!(svc.funcs.read().contains("abs"), "builtins registered");
    }
}
