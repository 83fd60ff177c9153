//! Host speed: a fixed calibration kernel, timed next to the measured
//! work, converts wall time into reference-host time.
//!
//! On the 2-thread virtual host the benchmark was written on, a chunk of
//! the same COSMOS work, repeated, takes anywhere from 1x to 1.7x its
//! fastest time, in phases lasting from microseconds to a minute, while
//! nothing else in the guest runs. Small heap allocations slow down in
//! step with it (the publish path makes about 23 per source tuple), while
//! a register-and-L1 arithmetic loop barely moves, so the kernel below
//! allocates and frees small blocks. It does not touch the system under
//! test: a change to COSMOS moves the measured work but not the kernel,
//! while host drift moves both. Every time the benchmark reports is
//! `wall × factor`, with `factor = REFERENCE_NS / kernel_ns`: the time the
//! work would have taken on a host where the kernel takes
//! [`REFERENCE_NS`].

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (the 2-thread x86-64 host the
/// benchmark was introduced on, at its fastest), in nanoseconds.
pub const REFERENCE_NS: f64 = 2_500.0;

/// Allocate, touch and free 128 small blocks.
fn kernel() -> u64 {
    let live: Vec<Box<[u64; 6]>> = (0..128u64).map(|i| Box::new([i; 6])).collect();
    live.iter().map(|b| b[5]).sum()
}

/// One sample: the factor that converts wall time measured now into
/// reference-host time.
fn sample() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    REFERENCE_NS / t.elapsed().as_nanos().max(1) as f64
}

/// The median of 32 samples (about 0.1 ms).
pub fn factor() -> f64 {
    let samples: Vec<f64> = (0..32).map(|_| sample()).collect();
    median(&samples)
}

/// Wait until `due`, taking up to 16 samples while at least 10 µs
/// remain, so an open-loop generator measures the host's speed in the
/// gaps between its calls. Returns the median of the samples taken, if
/// any.
pub fn factor_until(due: Instant) -> Option<f64> {
    let mut samples = Vec::new();
    loop {
        let now = Instant::now();
        if now >= due {
            break;
        }
        let left = due - now;
        if left > Duration::from_millis(3) {
            std::thread::sleep(left - Duration::from_millis(2));
        } else if left > Duration::from_micros(10) && samples.len() < 16 {
            samples.push(sample());
        } else {
            std::hint::spin_loop();
        }
    }
    (!samples.is_empty()).then(|| median(&samples))
}
