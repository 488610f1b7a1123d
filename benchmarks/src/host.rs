//! What the benchmark reads from the machine it runs on: the host fingerprint that heads every
//! result, the process's memory and CPU counters, and the pre-fault pass.
//!
//! Everything here degrades loudly: a value that cannot be read is reported as `unknown` (or
//! fails the run when a metric depends on it), never silently replaced by a guess.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// First value of `key:` lines in a `/proc` key-value file.
fn proc_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key).then(|| value.trim())
    })
}

fn read_or_unknown(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|err| {
        eprintln!("warning: host fingerprint: cannot read {path}: {err}");
        "unknown".to_string()
    })
}

/// CPU model, core count, memory, kernel, transparent-huge-page mode, compiler and malloc
/// settings: results
/// are comparable only between runs that agree on all of them.
pub fn fingerprint() -> Value {
    let cpuinfo = read_or_unknown("/proc/cpuinfo");
    let meminfo = read_or_unknown("/proc/meminfo");
    let thp = read_or_unknown("/sys/kernel/mm/transparent_hugepage/enabled");
    // The active mode is the bracketed word of e.g. `always [madvise] never`.
    let thp_mode = thp
        .split_whitespace()
        .find_map(|w| w.strip_prefix('[').and_then(|w| w.strip_suffix(']')))
        .unwrap_or(&thp)
        .to_string();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| {
            eprintln!("warning: host fingerprint: `rustc -V` did not run");
            "unknown".to_string()
        });
    let mem_mib = proc_field(&meminfo, "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib / 1024);
    let mut map = BTreeMap::new();
    map.insert(
        "cpu_model".to_string(),
        Value::String(proc_field(&cpuinfo, "model name").unwrap_or("unknown").to_string()),
    );
    map.insert("nproc".to_string(), Value::Integer(analysis::harness::host_cores() as i128));
    map.insert("mem_mib".to_string(), Value::Integer(mem_mib as i128));
    map.insert("kernel".to_string(), Value::String(read_or_unknown("/proc/sys/kernel/osrelease")));
    map.insert("thp".to_string(), Value::String(thp_mode));
    map.insert("rustc".to_string(), Value::String(rustc));
    // `run.sh` pins glibc's malloc thresholds; a run started without it measures another
    // allocator configuration and must not be compared with one that was.
    let malloc = ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"]
        .map(|key| {
            format!("{key}={}", std::env::var(key).unwrap_or_else(|_| "default".to_string()))
        })
        .join(" ");
    map.insert("malloc".to_string(), Value::String(malloc));
    Value::Object(map)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_kib(status: &str, key: &str) -> Option<u64> {
    proc_field(status, key)?.strip_suffix("kB")?.trim().parse().ok()
}

fn status_mib(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_kib(&status, key)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    status_mib("VmHWM")
}

/// Current resident set of this process, MiB.
pub fn rss_mib() -> Result<f64, String> {
    status_mib("VmRSS")
}

/// User + system CPU seconds this process (all threads) has used, from `/proc/self/stat`
/// fields 14 and 15, which count in `USER_HZ` = 100 ticks per second on Linux.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted after its `)`.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err("malformed /proc/self/stat".to_string()),
    }
}

/// Allocates `mib` MiB, writes one byte per 4 KiB page, and frees it.
///
/// The first touch of memory the hypervisor has never backed is slow and erratic in this
/// sandbox; once touched, the pages stay backed after they are freed.  Runs as the body of the
/// `prefault` sub-process so the allocation never counts toward the workload's own peak
/// resident set.
pub fn touch_pages(mib: usize) {
    let mut block = vec![0u8; mib << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// Runs [`touch_pages`] in a child process and returns the seconds it took.
pub fn prefault(mib: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let started = Instant::now();
    let status = std::process::Command::new(exe)
        .args(["prefault", &mib.to_string()])
        .status()
        .map_err(|e| format!("cannot start the prefault pass: {e}"))?;
    if !status.success() {
        return Err(format!("prefault pass failed: {status}"));
    }
    Ok(started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tklex-benchmark\nVmPeak:\t  400000 kB\nVmHWM:\t  358912 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_kib(status, "VmHWM"), Some(358_912));
        assert_eq!(parse_vm_kib(status, "VmRSS"), Some(1_024));
        assert_eq!(parse_vm_kib(status, "VmSwap"), None);
        assert_eq!(parse_vm_kib("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn own_counters_are_readable() {
        assert!(peak_rss_mib().unwrap() >= rss_mib().unwrap() * 0.5);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
