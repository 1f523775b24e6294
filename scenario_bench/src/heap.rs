//! Heap accounting for the benchmark binary.
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator. It keeps
//! live bytes, their high-water mark and the number of allocator calls that
//! obtain memory (`alloc`, `alloc_zeroed`, `realloc`). A [`Phase`] marks the
//! start of a measured region and reads back that region's peak growth and
//! allocation count, so setup, run and analysis are accounted separately.
//!
//! [`prepare`] sets the heap up for steady timing: freed memory stays in
//! the process, and the heap is backed by huge pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::c_void;
use std::os::raw::c_int;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

#[global_allocator]
static HEAP: Counting = Counting {
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

impl Counting {
    fn grow(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics only and never influence the pointers handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.allocs.fetch_add(1, Relaxed);
            self.grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.allocs.fetch_add(1, Relaxed);
            self.grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            self.allocs.fetch_add(1, Relaxed);
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                self.grow(new - old);
            } else {
                self.live.fetch_sub(old - new, Relaxed);
            }
        }
        new_ptr
    }
}

/// The start of a measured heap region.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    live: u64,
    allocs: u64,
}

/// What one region did to the heap.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Highest live-byte count reached inside the region, absolute.
    pub peak_live: u64,
    /// Peak growth over the live bytes at the region's start.
    pub peak_growth: u64,
    /// Allocator calls that obtained memory inside the region.
    pub allocs: u64,
}

impl Phase {
    /// Starts a region: the high-water mark restarts from the live count.
    pub fn start() -> Phase {
        let live = HEAP.live.load(Relaxed);
        HEAP.peak.store(live, Relaxed);
        Phase {
            live,
            allocs: HEAP.allocs.load(Relaxed),
        }
    }

    /// Live bytes when the region started.
    pub fn live_at_start(&self) -> u64 {
        self.live
    }

    /// Ends the region.
    pub fn usage(&self) -> Usage {
        let peak_live = HEAP.peak.load(Relaxed);
        Usage {
            peak_live,
            peak_growth: peak_live.saturating_sub(self.live),
            allocs: HEAP.allocs.load(Relaxed) - self.allocs,
        }
    }
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_MAX: c_int = -4;

/// `madvise` advice: back the range with transparent huge pages.
const MADV_HUGEPAGE: c_int = 14;

/// Heap reserved at start-up and advised as huge pages: more than any
/// workload's untraced peak (about 365 MB). A traced run may grow past it
/// onto ordinary pages. Only touched pages take memory.
const HUGE_RESERVE: usize = 1 << 30;

/// Size and alignment of one transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// Prepares the heap for steady timing. Returns whether every step took.
///
/// - The system allocator keeps freed memory in the process: no trimming
///   of the heap top, and no separately mapped large blocks (which go back
///   to the kernel when freed). After the first iteration the heap is
///   warm, and later iterations no longer fault in and zero hundreds of
///   megabytes of fresh pages, work whose cost swings with the host's
///   memory load.
/// - The first [`HUGE_RESERVE`] bytes of heap are advised as transparent
///   huge pages. Fewer page-table walks leave the run less exposed to
///   other tenants' memory traffic, and every process gets the same page
///   layout.
///
/// Live bytes, peaks and allocation counts are unaffected.
pub fn prepare() -> bool {
    // SAFETY: `mallopt` only changes allocator tuning, and runs before the
    // benchmark starts any work. The reserve is a live allocation of
    // `HUGE_RESERVE` bytes while `madvise`, which changes no contents, is
    // applied to exactly that range; then it is freed with its layout.
    unsafe {
        let kept = mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1;
        let Ok(layout) = Layout::from_size_align(HUGE_RESERVE, HUGE_PAGE) else {
            return false;
        };
        let reserve = System.alloc(layout);
        if reserve.is_null() {
            return false;
        }
        let advised = madvise(reserve.cast(), HUGE_RESERVE, MADV_HUGEPAGE) == 0;
        System.dealloc(reserve, layout);
        kept && advised
    }
}
