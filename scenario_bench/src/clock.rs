//! CPU-time clock of the benchmark process.
//!
//! The benchmark runs its workloads on one thread, so the process's CPU
//! time over a call is the time the program itself spent computing. Unlike
//! wall time it does not count the periods in which the process waited
//! for a core: other processes on the host, or the hypervisor running
//! another guest on this one's core (steal time, which Linux subtracts
//! from task run time). It sums every thread of the process, so work the
//! program moves onto other threads still counts.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Seconds of CPU time the process has used, over all its threads.
///
/// # Panics
/// Panics when the clock cannot be read, which Linux does not do for the
/// calling process's own clock.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A CPU-time stopwatch of the process.
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(process_cpu_secs())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn elapsed(&self) -> f64 {
        process_cpu_secs() - self.0
    }
}
