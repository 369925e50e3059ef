//! Process counters read from `/proc/self` (Linux).

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = field(&status, "VmHWM:").ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// CPU time of the whole process so far (all threads, live and exited),
/// user plus system, in seconds, at nanosecond resolution
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`; `/proc/self/stat` counts
/// in 10 ms ticks, too coarse for a 0.3 s operation). Time the hypervisor
/// steals from a virtual CPU is accounted as steal, not here.
pub fn process_cpu_secs() -> Result<f64, String> {
    use std::ffi::{c_int, c_long};
    /// `struct timespec` as glibc and musl define it on Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Reset the process's peak RSS (`VmHWM`) to its current RSS, so the next
/// [`peak_rss_mb`] covers only what ran in between. Writes `5` to
/// `/proc/self/clear_refs` (Linux 4.0 and later); where that is refused
/// the peak keeps covering the process's whole life.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Bytes passed to `write`-family calls and the number of such calls,
/// from `/proc/self/io` (`wchar`, `syscw`). Deltas around a call give its
/// write traffic, page cache included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    pub wchar: u64,
    pub syscw: u64,
}

impl Io {
    pub fn now() -> Result<Io, String> {
        let io = fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
        Ok(Io {
            wchar: field(&io, "wchar:").ok_or("no wchar line in /proc/self/io")?,
            syscw: field(&io, "syscw:").ok_or("no syscw line in /proc/self/io")?,
        })
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: Io) -> Io {
        Io {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

/// The first number after `key` on the line that starts with it.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}
