//! Readers for the few `/proc` files the benchmark takes CPU time, peak
//! memory and context switches from. Parsing is split from reading so the
//! parsers are tested on canned text.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux has
/// fixed it at 100 on every architecture this repository builds for.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime + stime` of `/proc/<pid>/stat` in nanoseconds. The command name
/// (field 2) may itself hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ns(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

/// On-CPU nanoseconds, the first field of a `schedstat` file.
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// The number on the `status` line that starts with `key` (`"VmHWM:"`,
/// `"voluntary_ctxt_switches:"`).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time of the whole process, all threads, live and exited.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_cpu_ns(&t))
        .expect("/proc/self/stat is readable on Linux")
}

/// On-CPU time of the calling thread, at nanosecond resolution.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat_run_ns(&t))
        .expect("/proc/thread-self/schedstat is readable on Linux")
}

/// Peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_field(&t, "VmHWM:"))
        .expect("/proc/self/status has VmHWM on Linux");
    kb as f64 / 1024.0
}

/// Voluntary plus involuntary context switches summed over the live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let text = "4242 (be) nch (x)) S 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    1234 56 0 0 20 0 6 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ns(text), Some((1234 + 56) * 10_000_000));
        assert_eq!(parse_stat_cpu_ns("garbage"), None);
        assert_eq!(parse_stat_cpu_ns("1 (x) S 1 2"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(
            parse_schedstat_run_ns("987654321 1234 56\n"),
            Some(987_654_321)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
    }

    #[test]
    fn status_fields_by_key() {
        let text = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\n\
                    voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_status_field(text, "VmHWM:"), Some(5120));
        assert_eq!(
            parse_status_field(text, "voluntary_ctxt_switches:"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(text, "nonvoluntary_ctxt_switches:"),
            Some(4)
        );
        assert_eq!(parse_status_field(text, "VmSwap:"), None);
    }
}
