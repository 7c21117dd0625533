//! Timing at a fixed reference speed.
//!
//! The benchmark runs on shared hosts whose CPU speed changes by up to a
//! factor of two within seconds (neighbours' load on the host; the threads
//! are not descheduled, so CPU time moves with wall time). A fixed reference
//! kernel, which lives here and not in the program, is timed between the
//! measured operations. Of each measured interval, the time the measuring
//! threads spent on a CPU is scaled by how much slower or faster than nominal
//! the reference ran at the interval's two ends; time asleep or waiting
//! (sleeps, socket waits) is kept as measured. A change to the program moves
//! the scaled times in full; a change of host speed moves the reference with
//! them and cancels out.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 64;
/// Passes per calibration; the calibration is their median.
const PASSES: usize = 40;
/// Seconds one pass takes at nominal speed: about its median on the 2-core
/// x86-64 VM the bounds were set on. Scaled times read as that host's
/// wall-clock times when it runs at that speed.
pub const NOMINAL_PASS_S: f64 = 40e-6;

/// Host speed for a pass time: 1.0 is nominal, 0.5 half as fast.
pub fn speed(pass_s: f64) -> f64 {
    NOMINAL_PASS_S / pass_s
}

/// Seconds the calling thread has spent on a CPU, from
/// `/proc/thread-self/schedstat`; NaN where that is not available. The
/// kernel brings a running thread's figure up to date only at scheduler
/// ticks (4 ms apart at 250 Hz), so the thread yields first, which updates
/// it to the nanosecond.
pub fn thread_cpu_s() -> f64 {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|ns| ns.parse::<f64>().ok()))
        .map_or(f64::NAN, |ns| ns * 1e-9)
}

/// `wall` seconds, `cpu` of them on a CPU, at nominal speed when the host
/// ran at `rate`: the CPU time is scaled, the rest kept. Without a CPU time
/// all of `wall` is scaled.
pub fn scale(wall: f64, cpu: f64, rate: f64) -> f64 {
    let on_cpu = if cpu.is_finite() { cpu.clamp(0.0, wall) } else { wall };
    wall - on_cpu + on_cpu * rate
}

/// The reference kernel: a dense `N×N` matmul and a gather-scatter over the
/// same data, on buffers allocated once.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    idx: Vec<usize>,
}

impl Reference {
    pub fn new() -> Self {
        let a = (0..N * N).map(|i| ((i * 7919) % 97) as f32 * 0.01).collect();
        let b = (0..N * N).map(|i| ((i * 104_729) % 89) as f32 * 0.01).collect();
        let idx = (0..N * N).map(|i| (i * 2_654_435_761) % (N * N)).collect();
        Reference { a, b, c: vec![0.0; N * N], idx }
    }

    /// Seconds one pass takes.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let (a, b, c) = (black_box(&self.a), black_box(&self.b), &mut self.c);
        for i in 0..N {
            let row = &mut c[i * N..(i + 1) * N];
            row.fill(0.0);
            for k in 0..N {
                let x = a[i * N + k];
                for (o, y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *o += x * y;
                }
            }
        }
        for (j, &i) in self.idx.iter().enumerate() {
            c[i] += a[j] * 0.5;
        }
        black_box(&self.c);
        t0.elapsed().as_secs_f64()
    }

    /// Median seconds per pass over [`PASSES`] passes.
    pub fn calibrate(&mut self) -> f64 {
        let passes: Vec<f64> = (0..PASSES).map(|_| self.pass()).collect();
        median(&passes)
    }
}

/// A clock that reads seconds at nominal host speed, for work done on the
/// thread that reads it. It calibrates at every reading, on that thread, and
/// must stay on it.
pub struct SpeedClock {
    kernel: Reference,
    /// Seconds per pass at the last calibration.
    pass_s: f64,
    /// End of the last interval counted, and the thread's CPU time then;
    /// calibration time is not counted.
    last: Instant,
    last_cpu: f64,
    scaled: f64,
    passes: Vec<f64>,
}

impl SpeedClock {
    /// A clock calibrated once now.
    pub fn new() -> Self {
        let mut kernel = Reference::new();
        let pass_s = kernel.calibrate();
        SpeedClock {
            kernel,
            pass_s,
            last: Instant::now(),
            last_cpu: thread_cpu_s(),
            scaled: 0.0,
            passes: vec![pass_s],
        }
    }

    /// Scaled seconds since the clock was made. The interval since the last
    /// reading is scaled with the mean of the speeds calibrated at its two
    /// ends; this reading is one of them.
    pub fn now(&mut self) -> f64 {
        let wall = self.last.elapsed().as_secs_f64();
        let cpu = thread_cpu_s() - self.last_cpu;
        let before = speed(self.pass_s);
        self.pass_s = self.kernel.calibrate();
        self.passes.push(self.pass_s);
        self.scaled += scale(wall, cpu, 0.5 * (before + speed(self.pass_s)));
        self.last_cpu = thread_cpu_s();
        self.last = Instant::now();
        self.scaled
    }

    /// Median host speed over the clock's calibrations.
    pub fn speed(&self) -> f64 {
        speed(median(&self.passes))
    }
}
