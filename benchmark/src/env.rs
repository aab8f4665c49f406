//! The crash-surviving environment a workload runs on, with the handles
//! the benchmark needs that `DatabaseEnv::fresh()` hides: the bytes on
//! the simulated disk and in the stable log.

use std::sync::Arc;

use starburst_dmx::core::{Database, DatabaseConfig, DatabaseEnv};
use starburst_dmx::page::{DiskManager, FaultDisk, IoSnapshot, MemDisk, Page};
use starburst_dmx::types::{FaultInjector, PageId};
use starburst_dmx::wal::StableLog;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Fails the run with a message; for conditions that mean the benchmark
/// itself is sized or wired wrong.
pub fn bail<T>(msg: impl Into<String>) -> Res<T> {
    Err(msg.into().into())
}

/// Names the stage an error came from.
pub fn at<T>(stage: &str, r: Res<T>) -> Res<T> {
    r.map_err(|e| format!("{stage}: {e}").into())
}

/// A disk and a log, wired exactly as `DatabaseEnv::fresh()` wires them
/// (every I/O through the pass-through fault layer).
pub struct Env {
    mem: Arc<MemDisk>,
    log: Arc<StableLog>,
}

impl Env {
    pub fn fresh() -> Env {
        Env {
            mem: Arc::new(MemDisk::new()),
            log: StableLog::with_injector(FaultInjector::passthrough()),
        }
    }

    /// Opens (running restart recovery on a used environment) with all
    /// built-in extensions.
    pub fn open(&self, pool_frames: usize) -> Res<Arc<Database>> {
        let env = DatabaseEnv {
            disk: FaultDisk::over(self.mem.clone(), FaultInjector::passthrough()),
            stable_log: self.log.clone(),
        };
        let config = DatabaseConfig {
            pool_frames,
            ..DatabaseConfig::default()
        };
        Ok(starburst_dmx::open_env(env, config)?)
    }

    /// What a crash at this instant leaves behind: a copy of the pages
    /// written back and the log frames forced so far. The buffer pool and
    /// the log's volatile tail are not in it, so recovering the copy sees
    /// exactly the flushed bytes, and the live database, which goes on to
    /// checkpoint at drop, cannot touch it.
    pub fn crash_image(&self) -> Res<Env> {
        let mem = MemDisk::new();
        let mut files = self.mem.file_ids();
        files.sort();
        let mut page = Page::new();
        for f in files {
            // File ids are handed out densely from 1; a gap means a file
            // was dropped and the copy would renumber what follows it.
            if mem.create_file()? != f {
                return bail(format!("cannot copy a disk with a deleted file before {f}"));
            }
            for n in 0..self.mem.page_count(f)? {
                let pid = mem.allocate_page(f)?;
                self.mem.read_page(PageId::new(f, n), &mut page)?;
                mem.write_page(pid, &page)?;
            }
        }
        let log = StableLog::with_injector(FaultInjector::passthrough());
        for i in 0..self.log.len() {
            self.log
                .with_frame(i, |bytes| log.append_frame(bytes.to_vec()))?;
        }
        Ok(Env {
            mem: Arc::new(mem),
            log,
        })
    }

    pub fn disk_bytes(&self) -> u64 {
        self.mem.size_bytes() as u64
    }

    pub fn wal_frames(&self) -> u64 {
        self.log.len() as u64
    }

    /// Bytes of every durable log frame.
    pub fn wal_bytes(&self) -> Res<u64> {
        let mut total = 0u64;
        for i in 0..self.log.len() {
            total += self.log.with_frame(i, |bytes| Ok(bytes.len() as u64))?;
        }
        Ok(total)
    }

    /// Page reads and writes that reached the simulated disk.
    pub fn io(&self) -> IoSnapshot {
        self.mem.stats().snapshot()
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
