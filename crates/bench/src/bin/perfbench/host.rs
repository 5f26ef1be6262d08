//! Every read of the host the benchmark makes: the wall clock, the core
//! count, the process's peak memory, and its own executable (to run each
//! workload in a process of its own). The simulator never sees any of
//! these values; they only time and size it from outside, and the
//! deterministic results are pinned separately by `sim_digest`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // snicbench: allow(wall-clock-in-sim, "perfbench times the simulator from outside; no simulated quantity reads this clock")
        // snicbench: allow(determinism-taint, "host timings are what a benchmark reports; sim_digest pins the deterministic results")
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Stopwatch::start();
    let r = f();
    (r, t.elapsed_s())
}

/// Seconds [`compute_kernel_s`] and [`queue_kernel_s`] take at the
/// reference speed: their fastest readings on a shared 2-core Xeon host.
/// Scaled times read as seconds on the clock only on that host; on any
/// other they compare with each other, not with the clock.
const REFERENCE_S: [f64; 2] = [0.0196, 0.0170];

/// How much slower than the reference speed the host runs right now: the
/// geometric mean of two fixed kernels' times over [`REFERENCE_S`]. The
/// kernels call no simulator code, so no change to the simulator moves
/// them, while they slow with the host. Neighbours on a shared host slow
/// compute and memory-bound code by different amounts at different
/// times, and the simulator is some of each. Over 15 minutes of full
/// fleet, chaos and diurnal cells and 8-search fig4 batches on that host,
/// with readings between units, the quartile spread of unit time over
/// the mean reading beside it was 16–34% raw, 9.7–18% with the compute
/// kernel alone, 7.4–14% with the queue kernel alone and 7.1–10% with
/// their geometric mean. Medians of five units spread 3.1–7.9% with the
/// geometric mean and 6.3–13% with the compute kernel alone. Pointer
/// chases over 1 MB and 16 MB tracked the units worse than either.
pub fn slowness() -> f64 {
    let compute = compute_kernel_s() / REFERENCE_S[0];
    let queue = queue_kernel_s() / REFERENCE_S[1];
    (compute * queue).sqrt()
}

/// The next value of a 64-bit linear congruential generator.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// Seconds of integer and floating-point work on a 4 KiB table, which
/// stays in L1.
fn compute_kernel_s() -> f64 {
    let mut table = [0u64; 512];
    let mut x: u64 = 0x5EED;
    let mut acc = 0.0f64;
    let t = Stopwatch::start();
    for k in 0..3_000_000u64 {
        lcg(&mut x);
        let slot = (x >> 55) as usize;
        table[slot] = table[slot].wrapping_add(x ^ k);
        acc += ((x >> 11) as f64 * 1e-16 + 1.0).ln();
    }
    std::hint::black_box((acc, &table));
    t.elapsed_s()
}

/// Seconds of popping and refilling a binary heap of 32 Ki pending
/// `(time, id)` entries (512 KiB), as an event queue does.
fn queue_kernel_s() -> f64 {
    let mut x: u64 = 9;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..32_768)
        .map(|id| Reverse((lcg(&mut x) >> 40, id)))
        .collect();
    let t = Stopwatch::start();
    for id in 0..150_000u64 {
        let Reverse((now, _)) = heap.pop().expect("every pop is refilled");
        heap.push(Reverse((now + (lcg(&mut x) >> 44), id)));
    }
    std::hint::black_box(heap.len());
    t.elapsed_s()
}

/// Measured work between two [`slowness`] readings, at least: a reading
/// follows the first unit boundary after this much.
const SEGMENT_S: f64 = 0.25;

/// Times a pass unit by unit at the reference host speed. The host's
/// speed drifts within a pass, so one reading per pass tracks it poorly:
/// on the host above, sums of 1.5–3 s of 0.1–0.4 s probes spread 8.7–11%
/// when scaled by compute-kernel readings at their ends and 3.0–3.4% when
/// each probe was scaled by the readings beside it. So the meter takes a
/// reading after every [`SEGMENT_S`] of work and scales each segment by
/// the mean of the readings before and after it. The readings themselves
/// are not timed.
#[derive(Debug)]
pub struct Meter {
    /// Every reading, the first taken when the meter starts.
    pub readings: Vec<f64>,
    /// The open segment: units run and seconds measured since the last
    /// reading.
    units: u32,
    measured_s: f64,
    /// The current pass's closed segments.
    segments: Vec<Segment>,
}

/// Units timed between two readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub units: u32,
    pub measured_s: f64,
    /// `measured_s` at the reference speed.
    pub scaled_s: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            readings: vec![slowness()],
            units: 0,
            measured_s: 0.0,
            segments: Vec::new(),
        }
    }

    /// Runs one unit of a pass, timing it.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        self.units += 1;
        self.measured_s += s;
        if self.measured_s >= SEGMENT_S {
            self.read();
        }
        r
    }

    fn read(&mut self) {
        let before = *self
            .readings
            .last()
            .expect("the meter starts with a reading");
        let after = slowness();
        self.segments.push(Segment {
            units: self.units,
            measured_s: self.measured_s,
            scaled_s: self.measured_s * 2.0 / (before + after),
        });
        self.readings.push(after);
        self.units = 0;
        self.measured_s = 0.0;
    }

    /// Ends the pass and returns its segments.
    pub fn end_pass(&mut self) -> Vec<Segment> {
        if self.units > 0 {
            self.read();
        }
        std::mem::take(&mut self.segments)
    }
}

/// Cores the host offers this process (recorded with every result: a
/// parallel number from a 1-core host is not evidence of anything).
pub fn parallelism() -> usize {
    // snicbench: allow(determinism-taint, "host_parallelism is reported beside the timings it qualifies, never fed to a simulation")
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs this executable again with `args`, stderr passed through, and
/// returns its stdout once it has exited (`Err` on a spawn failure or a
/// non-zero exit).
pub fn rerun_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning perfbench: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "perfbench {} exited with {}",
            args.join(" "),
            out.status
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child stdout is not UTF-8: {e}"))
}
