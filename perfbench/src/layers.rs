//! Per-layer metrics: the table of names, units and predictions, and the
//! collector the traced runs fill.
//!
//! Every layer figure is timed or counted by this benchmark's own code
//! around a call into the layer's public API (or read from a public stats
//! snapshot, or from the `obs` spans and histograms the stack already
//! records). Nothing is added to the program.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use alfredo_rosgi::ServeQueue;

use crate::util::{median, proc_status};

/// One per-layer metric: name, unit, and the end-to-end metric it should
/// move on which workload. On every other workload the prediction is no
/// change.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> LayerDef {
    LayerDef { name, unit, moves }
}

/// The per-layer metrics, in report order. `BENCHMARK.json` lists the
/// same names and units.
pub const LAYERS: &[LayerDef] = &[
    def("net.tcp_connect_us", "us", "startup_p50_us on shop_churn"),
    def(
        "alfredo.connect_us",
        "us",
        "startup_p50_us, sessions_per_s on shop_churn",
    ),
    def("alfredo.acquire_us", "us", "startup_p50_us on shop_churn"),
    def(
        "alfredo.acquire_cold_us",
        "us",
        "startup_cold_p50_us on shop_churn",
    ),
    def(
        "alfredo.phase.handshake_us",
        "us",
        "startup_* on shop_churn",
    ),
    def("alfredo.phase.lease_us", "us", "startup_* on shop_churn"),
    def(
        "alfredo.phase.tier_transfer_us",
        "us",
        "startup_* on shop_churn",
    ),
    def("alfredo.phase.render_us", "us", "startup_* on shop_churn"),
    def("ui.render_us", "us", "startup_p50_us on shop_churn"),
    def(
        "alfredo.tier_cache_hit_ratio",
        "ratio",
        "startup_cold_p50_us on shop_churn",
    ),
    def(
        "alfredo.tier_bytes_cold",
        "bytes",
        "startup_cold_p50_us on shop_churn",
    ),
    def("alfredo.close_us", "us", "sessions_per_s on shop_churn"),
    def("net.fds_per_session", "count", "peak_rss_mb on shop_churn"),
    def("net.echo_rtt_us", "us", "tap_p50_us on shop_taps"),
    def("rosgi.ping_us", "us", "tap_p50_us on shop_taps"),
    def(
        "rosgi.invoke_us",
        "us",
        "tap_p50_us, taps_per_s on shop_taps",
    ),
    def("rosgi.encode_ns", "ns", "tap_p50_us on shop_taps"),
    def("rosgi.decode_ns", "ns", "tap_p50_us on shop_taps"),
    def("osgi.service_us", "us", "tap_p50_us on shop_taps"),
    def("alfredo.controller_us", "us", "tap_p50_us on shop_taps"),
    def("rosgi.residual_us", "us", "tap_p50_us on shop_taps"),
    def(
        "rosgi.serve_depth_mean",
        "count",
        "tap_p95_us on shop_taps; fanout_p95_us on room_fanout",
    ),
    def(
        "rosgi.busy_rejected",
        "count",
        "tap_p95_us on shop_taps; fanout_p95_us on room_fanout",
    ),
    def("rosgi.bytes_per_tap", "bytes", "tap_p50_us on shop_taps"),
    def(
        "rosgi.pool_hit_ratio",
        "ratio",
        "tap_p50_us on shop_taps; startup_p50_us on shop_churn",
    ),
    def(
        "rosgi.frames_per_session",
        "count",
        "startup_p50_us on shop_churn",
    ),
    def("obs.invoke_rtt_p50_us", "us", "tap_p50_us on shop_taps"),
    def("obs.serve_p50_us", "us", "tap_p50_us on shop_taps"),
    def(
        "alfredo.room_publish_us",
        "us",
        "publish_capacity_per_s, delta_p50_us on room_fanout",
    ),
    def("rosgi.send_event_us", "us", "fanout_p95_us on room_fanout"),
    def(
        "rosgi.bytes_per_delta_member",
        "bytes",
        "fanout_p95_us on room_fanout",
    ),
    def(
        "journal.appends_per_fsync",
        "count",
        "delta_p50_us on room_fanout",
    ),
    def(
        "journal.bytes_per_delta",
        "bytes",
        "delta_p50_us on room_fanout",
    ),
    def(
        "alfredo.room_coalesced",
        "count",
        "error_ratio on room_fanout",
    ),
    def(
        "alfredo.replica_gaps",
        "count",
        "error_ratio on room_fanout",
    ),
    def(
        "alfredo.replica_dups",
        "count",
        "error_ratio on room_fanout",
    ),
    def("alloc.per_session", "count", "sessions_per_s on shop_churn"),
    def("alloc.per_tap", "count", "taps_per_s on shop_taps"),
    def(
        "alloc.per_delta",
        "count",
        "publish_capacity_per_s, delta_p50_us on room_fanout",
    ),
    def(
        "process.threads_peak",
        "count",
        "peak_rss_mb, setup_s on all",
    ),
    def(
        "harness.gen_late_p99_us",
        "us",
        "validity check on room_fanout, not a target",
    ),
];

/// Samples and single values per layer metric. A metric's reported value
/// is the median of its samples, or its single value.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    /// Metrics measured on a side fixture because this workload's own
    /// path does not reach the layer.
    side: BTreeSet<&'static str>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYERS.iter().any(|d| d.name == name), "{name}");
        self.samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYERS.iter().any(|d| d.name == name), "{name}");
        self.values.insert(name, v);
    }

    /// Moves every sample of `other` into `self` (threads of one phase).
    pub fn absorb(&mut self, other: Layers) {
        for (name, mut v) in other.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
        self.values.extend(other.values);
    }

    /// Takes from `other` the metrics `self` lacks, marking them as
    /// measured on a side fixture.
    pub fn fill_from_side(&mut self, other: Layers) {
        for def in LAYERS {
            if self.has(def.name) || !other.has(def.name) {
                continue;
            }
            if let Some(v) = other.samples.get(def.name) {
                self.samples.insert(def.name, v.clone());
            }
            if let Some(v) = other.values.get(def.name) {
                self.values.insert(def.name, *v);
            }
            self.side.insert(def.name);
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.samples.get(name).is_some_and(|v| !v.is_empty())
    }

    pub fn is_side(&self, name: &str) -> bool {
        self.side.contains(name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.samples
            .get(name)
            .map_or(usize::from(self.values.contains_key(name)), Vec::len)
    }

    /// Median of the samples, or the single value.
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.values.get(name) {
            return Some(*v);
        }
        let mut s = self.samples.get(name)?.clone();
        median(&mut s)
    }
}

/// Samples the serve queue's depth every millisecond and the process's
/// thread count every 20 ms while a traced phase runs.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<f64>, f64)>,
    rejected_before: u64,
    queue: ServeQueue,
}

impl Sampler {
    pub fn start(queue: &ServeQueue) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let q = queue.clone();
        let handle = std::thread::spawn(move || {
            let mut depth = Vec::new();
            let mut threads: f64 = 0.0;
            let mut tick = 0u64;
            while !flag.load(Ordering::SeqCst) {
                depth.push(q.stats().depth as f64);
                if tick.is_multiple_of(20) {
                    threads = threads.max(proc_status("Threads").unwrap_or(0.0));
                }
                tick += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (depth, threads)
        });
        Sampler {
            stop,
            handle,
            rejected_before: queue.stats().rejected,
            queue: queue.clone(),
        }
    }

    pub fn finish(self, layers: &mut Layers) {
        self.stop.store(true, Ordering::SeqCst);
        let (depth, threads) = self.handle.join().expect("sampler thread panicked");
        if !depth.is_empty() {
            layers.set(
                "rosgi.serve_depth_mean",
                depth.iter().sum::<f64>() / depth.len() as f64,
            );
        }
        layers.set(
            "rosgi.busy_rejected",
            (self.queue.stats().rejected - self.rejected_before) as f64,
        );
        layers.set("process.threads_peak", threads);
    }
}
