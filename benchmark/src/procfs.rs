//! Process-level measurements read from Linux `/proc`.

/// Peak resident set size (`VmHWM`) of this process, MB. Returns 0 when
/// `/proc/self/status` is unreadable (non-Linux hosts).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`) of this process, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// CPU time (user + system, all threads, exited ones included) this
/// process has consumed, seconds. `/proc/self/stat` counts in clock
/// ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
