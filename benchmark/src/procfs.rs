//! Process CPU time and resident set, read from Linux `/proc`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of `/proc/self/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// How often [`RssSampler`] reads the resident set.
const RSS_PERIOD: Duration = Duration::from_millis(5);

/// User plus system CPU seconds used so far by this process, all
/// threads included (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

fn rss_kb() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_rss_kb(&status).expect("/proc/self/status has VmRSS")
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name, which may hold
    // spaces: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Samples this process's resident set every [`RSS_PERIOD`] on a
/// thread of its own, so a run can report the peak of each pass rather
/// than the process's lifetime high-water mark.
pub struct RssSampler {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak_kb, stop) = (Arc::clone(&peak_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Relaxed: the values publish no other data.
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(RSS_PERIOD);
                }
            })
        };
        RssSampler {
            peak_kb,
            stop,
            thread: Some(thread),
        }
    }

    /// The highest resident set seen since the previous call (or the
    /// start), in MiB; the next window starts now.
    pub fn take_peak_mb(&self) -> f64 {
        let now = rss_kb();
        self.peak_kb.swap(now, Ordering::Relaxed).max(now) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // A panicking sampler only loses samples; nothing to report.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "42 (my prog) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn parses_resident_set() {
        let status = "Name:\tx\nVmHWM:\t 9 kB\nVmRSS:\t    2048 kB\n";
        assert_eq!(parse_rss_kb(status), Some(2048));
    }

    #[test]
    fn sampler_sees_a_short_allocation() {
        let sampler = RssSampler::start();
        let before = sampler.take_peak_mb();
        let block = vec![1u8; 64 << 20];
        std::thread::sleep(RSS_PERIOD * 10);
        drop(std::hint::black_box(block));
        assert!(sampler.take_peak_mb() >= before + 32.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
