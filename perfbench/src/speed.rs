//! Machine-speed calibration for the end-to-end timings.
//!
//! The speed of a small shared machine drifts while a benchmark runs:
//! on a 2-vCPU VM the same binary on the same seed read `dynamic`
//! `op_ms_p50` anywhere from 2.0 to 3.2 ms in consecutive 5 s runs.
//! That swamps the run-to-run spread the benchmark must hold. So every
//! run times a fixed kernel that uses none of the program's code, sorting
//! 2^16 seeded integers, every quarter second while the program is idle,
//! and scales its timing metrics to a reference speed: a time `t` is
//! reported as `t × REFERENCE_MS / median kernel time`. The raw figures
//! and the kernel median are printed as well.
//!
//! The kernel sorts in a buffer kept for the whole run, so it frees no
//! memory while the program runs: freeing a block of a few hundred KiB
//! that glibc had mapped would raise its mmap threshold and change how
//! the program's own large allocations are served, and so its timings.

use crate::stats::{median, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Typical median kernel time on the machine the benchmark was
/// introduced on (2-vCPU Intel Xeon VM); the normalized timings are in
/// its ms.
const REFERENCE_MS: f64 = 1.5;

const INTERVAL: Duration = Duration::from_millis(250);

pub struct Speed {
    input: Vec<u64>,
    scratch: Vec<u64>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Speed {
    pub fn new() -> Speed {
        let mut rng = Rng::new(0x5eed);
        let input: Vec<u64> = (0..1 << 16).map(|_| rng.next_u64()).collect();
        Speed {
            scratch: input.clone(),
            input,
            samples: Vec::new(),
            last: None,
        }
    }

    /// Times the kernel once.
    fn sample(&mut self) {
        let t = Instant::now();
        self.scratch.copy_from_slice(&self.input);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// The factor that scales a time measured alongside the samples to
    /// the reference speed (1 when there are none).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_MS / median(&self.samples)
        }
    }

    /// Times the kernel if a quarter second has passed since the last
    /// sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|at| at.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
