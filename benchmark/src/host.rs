//! What the machine did to the run: peak RSS and run-queue wait, read
//! from `/proc`. Reported as `host.*` so a reader can see the box; no
//! end-to-end time depends on them.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), MB. 0 when
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&text, field)
}

fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Nanoseconds the main thread has spent runnable but waiting for a
/// CPU (second field of `/proc/self/schedstat`). Work the product hands
/// to a scoped worker thread is not covered: the kernel drops a
/// thread's counters when it exits.
pub fn runqueue_wait_ns() -> u64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat_wait(&t))
        .unwrap_or(0)
}

fn parse_schedstat_wait(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_schedstat() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    1752 kB\nVmRSS:\t 9 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(1752));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
        assert_eq!(parse_schedstat_wait("12345 58672 1\n"), Some(58672));
        assert_eq!(parse_schedstat_wait(""), None);
    }
}
