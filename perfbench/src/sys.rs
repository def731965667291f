//! Run metadata and process measurements, read from `/proc` and the
//! checkout itself (no external commands).

use std::fs;
use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The commit the checkout is at, from `.git` under `root`, or
/// `"unknown"` when the checkout is not a git repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Forces a journal commit on the filesystem holding `dir` (one small
/// synced file, then removed), so the deletions a run just made are
/// committed, and their discards issued, before the process exits
/// rather than in the next run's timed region.
pub fn settle(dir: &Path) {
    let path = dir.join(".settle");
    if let Ok(mut f) = fs::File::create(&path) {
        use std::io::Write;
        let _ = f.write_all(b"settle").and_then(|()| f.sync_all());
    }
    let _ = fs::remove_file(&path);
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Words in the kernel's CPU mask (`cpu_set_t`, 1024 CPUs).
#[cfg(target_os = "linux")]
const CPU_MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `index`-th CPU (wrapping) of those
/// this process may run on, and returns whether the pin took. Client
/// threads left to the scheduler moved between CPUs throughout a run
/// and at times seemed to share one for a whole run, halving
/// throughput and reshaping the latency tail; pinned, each client keeps
/// a CPU of its own.
#[cfg(target_os = "linux")]
pub fn pin_thread(index: usize) -> bool {
    let mut allowed = [0u64; CPU_MASK_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: both masks are `size` bytes long; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..CPU_MASK_WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(index % cpus.len().max(1)) else {
        return false;
    };
    let mut mask = [0u64; CPU_MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_index: usize) -> bool {
    false
}
