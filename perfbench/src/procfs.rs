//! Peak memory and CPU time read from `/proc` with the standard library
//! only (no `libc` crate is available offline, so no `getrusage`).

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// exports these in `USER_HZ`, which is 100 on every architecture the
/// kernel ABI defines it for; reading `sysconf(_SC_CLK_TCK)` would need
/// `libc`.
const USER_HZ: f64 = 100.0;

/// Value of a `kB` field such as `VmHWM:    1234 kB` in a
/// `/proc/<pid>/status` text, in KiB.
pub fn status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User plus system CPU seconds from a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, so utime (14) and stime (15) are
    // the 12th and 13th whitespace-separated items.
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a live process in MiB. `None` once the
/// process has exited or been reaped.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kib(&status, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds a live process has used so far.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    stat_cpu_seconds(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tfigures\nVmPeak:\t  20000 kB\nVmHWM:\t   5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(5120));
        assert_eq!(status_kib(status, "VmRSS"), Some(4096));
        assert_eq!(status_kib(status, "VmSwap"), None);
        // A field whose name is a prefix of another must not match it.
        assert_eq!(status_kib("VmHWMX:\t 1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn parses_stat_times_past_a_hostile_command_name() {
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn reads_this_process() {
        let rss = peak_rss_mib("self").expect("/proc/self/status has VmHWM");
        assert!(rss > 0.0);
        assert!(cpu_seconds("self").expect("/proc/self/stat parses") >= 0.0);
        assert_eq!(peak_rss_mib("0"), None);
    }
}
