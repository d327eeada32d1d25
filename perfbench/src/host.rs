//! Host shape, revision and process memory, recorded with every result so
//! two results are only compared when they come from the same kind of host.

use std::path::Path;

/// What a result depends on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostShape {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
}

impl HostShape {
    /// The shape of the host this process runs on.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostShape {
            nproc: nproc(),
            cpu_model,
        }
    }
}

/// Threads the host can run at once (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The checked-out revision: `GATEST_GIT_REV` if set, else the commit
/// `.git/HEAD` names, else `unknown` (an exported tree has no `.git`).
pub fn git_revision() -> String {
    if let Ok(rev) = std::env::var("GATEST_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                // A packed ref: `<sha> <ref>` lines in `.git/packed-refs`.
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
                        .unwrap_or_default()
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// This process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
