//! Host-speed calibration.
//!
//! The benchmark shares its machine with other tenants, whose load
//! moves this process's speed by 10–20%, at times 2×, over seconds to
//! minutes. A short burst of fixed work runs between timed operations,
//! and each operation's time is scaled by `CALIBRATION_MS` over the
//! slower of the bursts just before and just after it: the time the
//! operation would have taken on a host where the burst takes
//! `CALIBRATION_MS`. (The slower of the two, because interference that
//! overlapped the operation may have ended before, or begun after,
//! either burst.)
//!
//! The burst has two parts, because tenants slow the core and the
//! memory system by different amounts, and the workloads lean on them
//! differently:
//!
//! * ChaCha's add-rotate-xor double round on a 16-word state held in
//!   registers, which tracks the core: the serve workloads;
//! * writes to 1024 fresh pages, each one a page fault and a zeroed
//!   page, which track the memory system: `verify_dcsp` faults in about
//!   80 MiB per operation, and `cluster_100k`'s fleet state is several
//!   times the core's caches. They go to 32 fresh mappings in turn, 32
//!   pages each, so that the burst adds only 128 KiB to the resident
//!   set that `peak_rss_mib` reports. (With all 1024 pages in one
//!   mapping, whether a burst met the heap at its high point moved a
//!   serve's peak by 1.4 MiB, 10%, from run to run.)
//!
//! Over ten 20 s runs of each of `serve_reactive`, `cluster_100k` and
//! `verify_dcsp`, with the memory part in one mapping, the run-to-run
//! spread of the median operation time was 11%, 11% and 20% raw; 2.5%,
//! 6% and 10% scaled by the register part alone; and 4.2%, 4.3% and
//! 4.5% scaled by the whole burst.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one burst on the reference host: 3–4 ms.
pub const CALIBRATION_MS: f64 = 3.5;

/// Double rounds of the register part: about 1 ms on a 2.0 GHz Xeon vCPU.
const DOUBLE_ROUNDS: u32 = 75_000;

/// Size of each mapping of the memory part: larger than glibc's largest
/// mmap threshold (32 MiB), so that each one is fresh from the kernel.
const MAPPING_BYTES: usize = 40 << 20;

/// Mappings per burst, and pages written in each: 2–3 ms in all.
const MAPPINGS: usize = 32;
const PAGES_PER_MAPPING: usize = 32;

const PAGE_BYTES: usize = 4096;

/// Run one burst; returns its wall time in milliseconds.
pub fn burst_ms() -> f64 {
    let t = Instant::now();
    let mut x: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        8,
        9,
        10,
        11,
        12,
    ];
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    };
    for _ in 0..black_box(DOUBLE_ROUNDS) {
        quarter(0, 4, 8, 12);
        quarter(1, 5, 9, 13);
        quarter(2, 6, 10, 14);
        quarter(3, 7, 11, 15);
        quarter(0, 5, 10, 15);
        quarter(1, 6, 11, 12);
        quarter(2, 7, 8, 13);
        quarter(3, 4, 9, 14);
    }
    black_box(x);
    for _ in 0..MAPPINGS {
        let mut fresh = vec![0u8; MAPPING_BYTES];
        for (page, byte) in fresh
            .iter_mut()
            .step_by(PAGE_BYTES)
            .take(PAGES_PER_MAPPING)
            .enumerate()
        {
            *byte = page as u8;
        }
        black_box(&fresh);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `ms` scaled to the reference host by the bursts before and after it.
pub fn normalize(ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    ms * CALIBRATION_MS / before_ms.max(after_ms)
}
