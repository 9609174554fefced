//! The host record every result carries: parallelism, the journal
//! directory's filesystem, a raw append-plus-fsync probe on it, and the
//! process's peak resident set.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Appends probed per run (64 bytes each, `sync_data` after each).
const FSYNC_PROBES: usize = 256;

pub struct Host {
    pub parallelism: usize,
    pub fs_type: String,
    pub fsync_p50_us: f64,
    pub fsync_p99_us: f64,
    pub probes: usize,
}

pub fn record(dir: &Path) -> Host {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (p50, p99) = fsync_probe(dir).unwrap_or((f64::NAN, f64::NAN));
    Host {
        parallelism,
        fs_type: fs_type(dir).unwrap_or_else(|| "unknown".into()),
        fsync_p50_us: p50,
        fsync_p99_us: p99,
        probes: FSYNC_PROBES,
    }
}

/// p50 and p99 of a 64-byte append followed by `sync_data`, in µs.
fn fsync_probe(dir: &Path) -> std::io::Result<(f64, f64)> {
    let path = dir.join("fsync-probe");
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    let record = [0xA5u8; 64];
    let mut us = Vec::with_capacity(FSYNC_PROBES);
    for _ in 0..FSYNC_PROBES {
        let t = Instant::now();
        file.write_all(&record)?;
        file.sync_data()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Ok((stats::quantile(&mut us, 0.5), stats::quantile(&mut us, 0.99)))
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else { continue };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fs).to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// Write back the page cache's dirty data before anything is timed. On
/// ext4 an fsync commits the journal, which also flushes other files'
/// dirty data; right after a build that would land in the first fsync-bound
/// phase.
pub fn flush_dirty_pages() {
    let _ = std::process::Command::new("sync").status();
}

/// `VmHWM` of this process in MB (daemon and clients share it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
