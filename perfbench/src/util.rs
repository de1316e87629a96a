//! Small helpers shared by every workload: seeded randomness, order
//! statistics, `/proc/self/status` readings and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A counting global allocator: inside [`counted`], every `alloc`,
/// `alloc_zeroed` and `realloc` bumps one process-wide counter, except on
/// a thread inside [`uncounted`]. The counter publishes no other data, so
/// `Relaxed` is enough.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Set only inside [`counted`], so the timed runs do not share one
/// counter's cache line between threads on every allocation.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set while this thread runs the benchmark's own bookkeeping.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with` so an allocation during thread teardown still counts.
    if COUNTING.load(Ordering::Relaxed) && !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with the process's allocations counted. Threads that `f`
/// hands work to through a lock or channel see the flag set.
pub fn counted<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    out
}

/// Runs `f` with this thread's allocations left out of [`allocations`]:
/// the benchmark's output checks, inputs and records are not the
/// program's work.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let outer = UNCOUNTED.with(|c| c.replace(true));
    let out = f();
    UNCOUNTED.with(|c| c.set(outer));
    out
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations the whole process has made inside [`counted`] and outside
/// [`uncounted`] so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// SplitMix64: a tiny seeded generator; the same seed gives the same
/// stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`; distinct `salt`s give independent streams.
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut r =
            Rng(seed.wrapping_mul(0x100_0000_01B3) ^ salt.wrapping_add(1) ^ 0x9E37_79B9_7F4A_7C15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Microseconds in `d`, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    us(t0.elapsed())
}

/// Nearest-rank quantile `q` of `values` (sorted in place); `None` when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64) * q).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// `quantile`, or NaN when empty (the run is then reported incorrect).
pub fn q(values: &mut [f64], p: f64) -> f64 {
    quantile(values, p).unwrap_or(f64::NAN)
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB,
/// `Threads`).
pub fn proc_status(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// File descriptors the process holds open.
pub fn open_fds() -> f64 {
    std::fs::read_dir("/proc/self/fd").map_or(0.0, |d| d.count() as f64)
}

/// Peak resident set size in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Windows a measured phase is cut into. A metric is the median of its
/// per-window values, pooled over the run's phases, so a stalled window
/// or a phase whose threads landed badly does not move it.
pub const WINDOWS: usize = 5;

/// Samples stamped with when they happened, for windowed statistics.
#[derive(Default)]
pub struct Series {
    at: Vec<f64>,
    values: Vec<f64>,
}

impl Series {
    /// Records `v`, stamped `at` seconds into the phase.
    pub fn push(&mut self, at: f64, v: f64) {
        uncounted(|| {
            self.at.push(at);
            self.values.push(v);
        });
    }

    pub fn extend(&mut self, other: Series) {
        self.at.extend(other.at);
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn windows(&self, secs: f64) -> Vec<Vec<f64>> {
        let mut w = vec![Vec::new(); WINDOWS];
        for (at, v) in self.at.iter().zip(&self.values) {
            let i = ((at / secs) * WINDOWS as f64) as usize;
            w[i.min(WINDOWS - 1)].push(*v);
        }
        w
    }

    /// Each window's quantile `p`.
    pub fn windowed(&self, secs: f64, p: f64) -> Vec<f64> {
        self.windows(secs)
            .iter_mut()
            .filter_map(|w| quantile(w, p))
            .collect()
    }

    /// Each window's samples per second.
    pub fn rate(&self, secs: f64) -> Vec<f64> {
        let len = secs / WINDOWS as f64;
        self.windows(secs)
            .iter()
            .map(|w| w.len() as f64 / len)
            .collect()
    }
}
