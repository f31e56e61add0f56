//! The host record printed with every result, and peak resident memory
//! read from `/proc`.

use std::process::Command;

/// Prints the host and input description a result is only meaningful
/// with.
pub fn print_record(workload: &str, seed: u64, seconds: u64, trace: bool) {
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("# host: nproc={nproc} available_parallelism={par} cpu=\"{cpu}\" rustc=\"{rustc}\"");
    println!(
        "# run: workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// time the hypervisor ran something else while this machine wanted the
/// CPU. A run with a large steal share measured a contended host.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Threads the workloads may use: the host's available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process, in MB.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_mb("self").unwrap_or(0.0)
}

/// Peak resident set of this process plus every live child process (the
/// campaign server's self-exec workers), in MB, and the number of
/// children counted.
pub fn tree_peak_rss_mb() -> (f64, usize) {
    let me = std::process::id().to_string();
    let mut total = self_peak_rss_mb();
    let mut children = 0;
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let pid = entry.file_name().to_string_lossy().to_string();
            if !pid.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            // `pid (comm) state ppid ...`: comm may hold spaces, so split
            // after its closing parenthesis.
            let ppid = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().nth(1));
            if ppid == Some(me.as_str()) {
                if let Some(mb) = vm_hwm_mb(&pid) {
                    total += mb;
                    children += 1;
                }
            }
        }
    }
    (total, children)
}
