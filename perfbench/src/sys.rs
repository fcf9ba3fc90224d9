//! Peak resident memory: this process's from `/proc/self/status`, its
//! children's from `getrusage(2)`.
//!
//! The harness links no libc crate, so the two calls it needs are
//! declared here. `struct rusage` on 64-bit Linux is two `timeval`s followed by
//! fourteen `long`s; `ru_maxrss` (kilobytes) is the first of those.

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Reset this process's peak resident set to its current resident set
/// (Linux `clear_refs`), so a later [`peak_rss_self_mb`] covers only what
/// runs after this call. Free heap memory is returned to the system
/// first, so the new baseline is the live data, not what earlier work
/// left behind.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MiB (`VmHWM`).
pub fn peak_rss_self_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Peak resident set of the largest child this process has waited for,
/// in MiB.
pub fn peak_rss_children_mb() -> f64 {
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a writable `struct rusage`-sized buffer with the
    // kernel's layout, and `RUSAGE_CHILDREN` is a documented selector.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut r) };
    if rc != 0 {
        return 0.0;
    }
    r.maxrss as f64 / 1024.0
}
