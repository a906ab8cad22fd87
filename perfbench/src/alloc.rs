//! Counting global allocator: the system allocator plus a process-wide
//! tally of bytes requested. A span reads the tally before and after
//! the call it wraps, which gives the `*.alloc_mb` metrics as exact
//! byte counts whenever no other thread allocates during the call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting bytes handed out.
pub struct CountingAlloc;

/// Bytes requested since process start (frees are not subtracted). A
/// statistic that publishes no other data, hence `Relaxed`.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the only addition is an atomic counter update.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts the added bytes; a shrink counts nothing.
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes allocated so far by the whole process.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Keep freed heap memory in the process instead of handing it back to
/// the kernel. By default glibc maps large blocks (from 128 KiB, a
/// threshold it raises up to 32 MiB) on their own and unmaps them when
/// they are freed, and trims the heap top, so every run faults the same
/// pages in again. On a virtual machine those faults cost a varying
/// share of each run (in kernel mode on a 2-vCPU guest: about a third
/// of `gnn-cora`'s time and a quarter of `allreduce-fabric`'s), which
/// drowns the program's own time. Serving every block from the heap and
/// never trimming it makes every timed run start from the warm heap the
/// warm-up left.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn retain_freed_memory() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_MAX: c_int = -4;
    // SAFETY: `mallopt` is glibc's, declared with its C signature. It
    // takes the allocator's own lock and only changes tuning parameters,
    // which every later allocation and free honours; both values are in
    // range.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_MAX, 0);
    }
}

/// Other allocators keep their defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn retain_freed_memory() {}
