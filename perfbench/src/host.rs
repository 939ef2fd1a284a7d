//! What the host is, and where a run may write.

use std::path::{Path, PathBuf};

/// Directory (relative to the working directory) that holds run
/// scratch space, traces and the untraced results traced runs compare
/// against.
pub const STATE_DIR: &str = ".perfbench";

/// A run's private scratch directory (spill files, the model
/// registry), removed when the guard drops — on success, on an early
/// `?` return and while unwinding from a panic alike.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create a fresh, empty `STATE_DIR/run-<tag>-<pid>-<n>` directory.
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(STATE_DIR).join(format!("run-{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// CPUs this process may run on (what `nproc` prints), from the
/// `Cpus_allowed_list` of `/proc/self/status`; `None` off Linux.
pub fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        count += match part.split_once('-') {
            Some((a, b)) => b.trim().parse::<usize>().ok()? + 1 - a.trim().parse::<usize>().ok()?,
            None => 1,
        };
    }
    Some(count)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    msaw_core::scale::peak_rss_mb().unwrap_or(f64::NAN)
}

/// The host record every run prints: the machine as the program saw it.
pub fn record(workload: &str, seed: u64, trace: bool, workers: usize) -> String {
    format!(
        "host workload={workload} seed={seed} trace={} nproc={} available_parallelism={} \
         simd={:?} pool_workers={workers}",
        u8::from(trace),
        nproc().map_or_else(|| "unknown".to_string(), |n| n.to_string()),
        msaw_parallel::available_workers(),
        msaw_gbdt::simd::active_level(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dir_is_removed_on_drop_and_on_unwind() {
        let kept = {
            let dir = RunDir::create("unit").unwrap();
            std::fs::write(dir.path().join("spill.mscb"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());
        let path = std::panic::catch_unwind(|| {
            let dir = RunDir::create("unit").unwrap();
            let path = dir.path().to_path_buf();
            std::fs::write(path.join("registry.msgb"), b"x").unwrap();
            std::panic::panic_any(path)
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists());
    }
}
