//! Host-side readers: process CPU time and peak resident set.
//!
//! Both come from procfs.  `/proc/self/stat` reports the whole thread
//! group's user + system time, including worker threads that have already
//! exited, which is what a sharded run's CPU cost must count.  Off Linux
//! the readers return `None`: such a host reports the metrics as
//! unavailable, never as zero.

/// Clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at 100
/// by the Linux ABI on every architecture this builds for).
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far, all threads.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&read("/proc/self/stat")?)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_kb(&read("/proc/self/status")?).map(|kb| kb as f64 / 1024.0)
}

#[cfg(target_os = "linux")]
fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

#[cfg(not(target_os = "linux"))]
fn read(_path: &str) -> Option<String> {
    None
}

/// `utime + stime` in seconds from a `/proc/<pid>/stat` line.  The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so utime (field 14) is
    // index 11 and stime (field 15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_paren() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (we ird) name) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 37 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(2.87));
    }

    #[test]
    fn stat_cpu_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no paren at all"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kb() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(204_800));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_readers_report_this_process() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
