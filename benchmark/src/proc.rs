//! What the kernel reports about this process: peak resident set and
//! CPU time, read from `/proc/self` (no libc binding in the image).

/// Peak resident set (`VmHWM`) in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of the whole process, exited threads
/// included, at the kernel's 100 Hz tick resolution.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
