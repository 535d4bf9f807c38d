//! What the host charges the simulator: memory, page faults, CPU time
//! and allocations. Everything here reads `/proc/self/*` or counts in
//! the allocator; a reading the platform cannot give is `None`, never 0.

use std::alloc::GlobalAlloc;
use std::alloc::Layout;
use std::alloc::System;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

/// The system allocator with two statistics on top. The counters publish
/// no other data, so `Relaxed` is enough; the `tables` jobs allocate from
/// their own threads, hence atomics and not thread-locals.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (traced cycles only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_totals() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// The number on the `<field> <n> kB` line of a `/proc` key-value file.
fn kb_field(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    kb_field("/proc/self/status", "VmHWM:").map(|kb| kb / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS, so nothing that ran
/// before the measured work is counted in `peak_rss_mb`.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Memory the kernel could hand out without swapping, in MB.
pub fn mem_available_mb() -> Option<f64> {
    kb_field("/proc/meminfo", "MemAvailable:").map(|kb| kb / 1024.0)
}

/// Cumulative process counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
}

/// Linux reports `/proc` times in `USER_HZ` ticks, fixed at 100 for
/// user space on every supported architecture.
const USER_HZ: f64 = 100.0;

/// Reads the process counters, or `None` where `/proc` is unavailable.
pub fn proc_stat() -> Option<ProcStat> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: state is field 3, minflt 10, utime 14, stime 15.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |field: usize| f.get(field - 3)?.parse::<f64>().ok();
    Some(ProcStat {
        minflt: num(10)?,
        user_s: num(14)? / USER_HZ,
        sys_s: num(15)? / USER_HZ,
    })
}

/// Touches and releases `mb` megabytes. Run in a throw-away process
/// before the measured one: first touch of sandbox memory is served by
/// the hypervisor and costs seconds of system time that would otherwise
/// land in whichever run happens to go first.
pub fn pretouch(mb: usize) {
    let buf = vec![1u8; mb << 20];
    std::hint::black_box(&buf);
}
