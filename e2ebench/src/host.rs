//! Host settings that keep the numbers about the program rather than about
//! the machine: the allocator's mmap threshold and a CPU warm-up.

use std::time::{Duration, Instant};

/// glibc's `mallopt` parameter for the mmap threshold.
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin the allocator's mmap threshold at glibc's initial 128 KiB.  By
/// default glibc raises the threshold whenever a large block is freed, so
/// whether a growing log is later copied inside the heap (both copies stay
/// resident) or moved with `mremap` (only written pages are resident)
/// depends on what was freed before — set-up builds free whole tables.
/// Pinned, large blocks always live in their own mappings, and resident
/// memory tracks the bytes actually retained.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called once,
    // before any other thread exists, with a documented parameter.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// How long every core is kept busy before a workload's set-up.
const CPU_WARMUP: Duration = Duration::from_secs(2);

/// Keep every core busy for [`CPU_WARMUP`].
///
/// On the 2-core virtual machine this benchmark was tuned on, how soon a
/// woken thread runs depends on how busy the cores were in the seconds
/// before.  `hotspot-unsharded` hands every lock over through thread
/// wake-ups, so without this it settled at about 6.5k or about 27k
/// transactions/s depending only on what had run before it; after a busy
/// period every run starts from the same state.
pub fn warm_cpus() {
    let cores = std::thread::available_parallelism().map_or(2, usize::from);
    let until = Instant::now() + CPU_WARMUP;
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(move || {
                let mut x = 0u64;
                while Instant::now() < until {
                    for _ in 0..1_000 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                }
            });
        }
    });
}
