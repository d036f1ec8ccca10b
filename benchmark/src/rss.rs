//! Peak resident memory from `/proc/self/status`, without a dependency.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB. `None` when the line is missing or malformed.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    let num = rest.strip_suffix("kB")?.trim();
    num.parse().ok()
}

/// This process's peak resident set so far, MiB. `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}
