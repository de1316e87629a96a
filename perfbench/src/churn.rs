//! `shop_churn`: closed-loop session churn over loopback TCP.
//!
//! Two phone threads (a Nokia 9300i and an iPhone) each run sessions back
//! to back: `TcpTransport::connect` → `connect_transport` →
//! `acquire(SHOP_INTERFACE)` → five seeded taps → `session.close` →
//! `conn.close`. The device serves AlfredOShop through the reactor
//! (`serve_device_tcp`) behind a 2-worker `ServeQueue`. About one session
//! in eight (seeded) starts on a fresh engine, so its tier cache is cold
//! and the tiers cross the wire.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alfredo_apps::shop::COMPARE_INTERFACE;
use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{serve_device_tcp, AlfredOEngine, Placement, ServedTcpDevice};
use alfredo_net::{InMemoryNetwork, TcpNetListener, TcpTransport, Transport};
use alfredo_obs::{Obs, RingSink};
use alfredo_osgi::Framework;
use alfredo_rosgi::{ServeQueue, ServeQueueConfig};

use crate::layers::{Layers, Sampler};
use crate::shop::{
    bucket_p50, echo_rtt, echo_server, merge_buckets, merge_rtt_buckets, phase_spans, phone_engine,
    probe_tap_layers, run_tap, Expect, Tally, View,
};
use crate::util::{allocations, open_fds, uncounted, us_since, Rng, Series};
use crate::{Named, PhaseResult, Stack, Tracing};

const PHONES: usize = 2;
/// Sessions each phone runs during set-up, so caches, pools and the
/// reactor are warm before timing starts.
const WARMUP_SESSIONS: usize = 40;
/// Sessions in the single-thread window that counts allocations.
const ALLOC_SESSIONS: usize = 40;

pub struct Churn {
    device: Option<ServedTcpDevice>,
    device_fw: Framework,
    queue: ServeQueue,
    addr: SocketAddr,
    obs: Obs,
    ring: Option<Arc<RingSink>>,
    engines: Vec<AlfredOEngine>,
    expect: Expect,
    /// Per-phone TCP echo pairs for the bare transport probe (probed only).
    echo: Vec<(TcpTransport, JoinHandle<()>)>,
}

/// What one phone thread measured.
#[derive(Default)]
struct Rec {
    /// Stamped with the phase's start, so samples fall into windows.
    start: Option<Instant>,
    startup_warm: Series,
    startup_cold: Series,
    taps: Series,
    sessions: Series,
    tally: Tally,
    cache_hits: u64,
    cache_misses: u64,
    rtt_buckets: Vec<u64>,
}

impl Churn {
    pub fn setup(seed: u64, tracing: Tracing) -> Churn {
        let device_fw = Framework::new();
        register_shop(&device_fw, sample_catalog()).expect("register the shop");
        let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr();
        let queue = ServeQueue::new(ServeQueueConfig::workers(2));
        let (obs, ring) = if tracing != Tracing::Off {
            let (obs, ring) = Obs::ring(1 << 16);
            (obs, Some(ring))
        } else {
            (Obs::disabled(), None)
        };
        let device = serve_device_tcp(
            listener,
            device_fw.clone(),
            obs.clone(),
            Some(queue.clone()),
        );
        let mut churn = Churn {
            device: Some(device),
            device_fw,
            queue,
            addr,
            obs: obs.clone(),
            ring,
            engines: (0..PHONES)
                .map(|p| phone_engine(p, InMemoryNetwork::new(), obs.clone()))
                .collect(),
            expect: Expect::new(),
            echo: Vec::new(),
        };
        if tracing == Tracing::Probed {
            for _ in 0..PHONES {
                let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind echo");
                let client = TcpTransport::connect(listener.local_addr()).expect("dial echo");
                let server = listener.accept().expect("accept echo");
                churn.echo.push((client, echo_server(Box::new(server))));
            }
        }
        let mut rng = Rng::fork(seed, 0xC0DE);
        let mut engines = std::mem::take(&mut churn.engines);
        for (phone, engine) in engines.iter_mut().enumerate() {
            for i in 0..WARMUP_SESSIONS {
                let mut rec = Rec::default();
                churn.session(engine, phone, i == 0, &mut rng, &mut rec, None);
            }
        }
        churn.engines = engines;
        if let Some(ring) = &churn.ring {
            ring.drain();
        }
        churn
    }

    /// One complete session. `cold` swaps in a fresh engine first.
    fn session(
        &self,
        engine: &mut AlfredOEngine,
        phone: usize,
        cold: bool,
        rng: &mut Rng,
        rec: &mut Rec,
        mut layers: Option<&mut Layers>,
    ) {
        if cold {
            let old = std::mem::replace(
                engine,
                phone_engine(phone, InMemoryNetwork::new(), self.obs.clone()),
            );
            let stats = old.tier_cache().stats();
            rec.cache_hits += stats.hits;
            rec.cache_misses += stats.misses;
        }
        let script = uncounted(|| self.expect.session_script(rng));
        rec.tally.attempted += 1;
        let t0 = Instant::now();
        let tcp = match TcpTransport::connect(self.addr) {
            Ok(t) => t,
            Err(e) => return fail(rec, "tcp connect", &e),
        };
        let t1 = Instant::now();
        let conn = match engine.connect_transport(Box::new(tcp)) {
            Ok(c) => c,
            Err(e) => return fail(rec, "connect_transport", &e),
        };
        let t2 = Instant::now();
        let session = match conn.acquire(SHOP_INTERFACE) {
            Ok(s) => s,
            Err(e) => {
                conn.close();
                return fail(rec, "acquire", &e);
            }
        };
        let t3 = Instant::now();
        let startup = (t3 - t0).as_secs_f64() * 1e6;
        let at = |rec: &Rec| rec.start.map_or(0.0, |s| s.elapsed().as_secs_f64());
        // A warm acquire moves no tier bytes; a cold one moves some and
        // places the comparison tier on the phone either way.
        let (bytes, offloaded) = uncounted(|| {
            let placement = session.assignment().logic_placement(COMPARE_INTERFACE);
            (session.transferred_bytes(), placement == Placement::Client)
        });
        if !offloaded || (cold && bytes == 0) || (!cold && bytes != 0) {
            rec.tally.failed += 1;
            rec.tally.mismatches += 1;
        }
        if cold {
            rec.startup_cold.push(at(rec), startup);
        } else {
            rec.startup_warm.push(at(rec), startup);
        }
        if let Some(l) = layers.as_deref_mut() {
            l.add("net.tcp_connect_us", (t1 - t0).as_secs_f64() * 1e6);
            l.add("alfredo.connect_us", (t2 - t1).as_secs_f64() * 1e6);
            if cold {
                l.add("alfredo.acquire_cold_us", (t3 - t2).as_secs_f64() * 1e6);
                l.add("alfredo.tier_bytes_cold", bytes as f64);
            } else {
                l.add("alfredo.acquire_us", (t3 - t2).as_secs_f64() * 1e6);
            }
        }
        let mut view = View::default();
        for tap in script {
            let call = layers.is_some().then(|| self.expect.call(tap, &view));
            let Some(tap_us) = run_tap(&self.expect, tap, &mut view, &session, &mut rec.tally)
            else {
                continue;
            };
            rec.taps.push(at(rec), tap_us);
            if let (Some(l), Some((method, args))) = (layers.as_deref_mut(), call) {
                if !probe_tap_layers(l, conn.endpoint(), &self.device_fw, method, &args, tap_us) {
                    rec.tally.failed += 1;
                }
            }
        }
        if let Some(l) = layers.as_deref_mut() {
            if let Some((client, _)) = self.echo.get(phone) {
                if let Some(rtt) = echo_rtt(client, &[0u8; 64]) {
                    l.add("net.echo_rtt_us", rtt);
                }
            }
            merge_rtt_buckets(&mut rec.rtt_buckets, conn.endpoint());
        }
        let t4 = Instant::now();
        session.close();
        conn.close();
        if let Some(l) = layers {
            l.add("alfredo.close_us", us_since(t4));
            if let Some(ring) = &self.ring {
                phase_spans(l, ring);
            }
        }
        rec.sessions.push(at(rec), 1.0);
    }
}

/// Counts a failed session and reports the first few on standard error.
fn fail(rec: &mut Rec, stage: &str, e: &dyn std::fmt::Display) {
    static REPORTED: AtomicU64 = AtomicU64::new(0);
    rec.tally.failed += 1;
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("perfbench: shop_churn session failed at {stage}: {e}");
    }
}

impl Stack for Churn {
    /// Counts allocations over plain warm sessions on one thread, with
    /// the other phone idle, and reads the wire counters of the same
    /// sessions. The count is the program's alone: the session's inputs,
    /// output checks and records are made inside `uncounted`.
    fn count(&mut self, seed: u64, layers: &mut Layers) {
        let mut rng = Rng::fork(seed, 0xA110C);
        let mut rec = Rec::default();
        let mut engines = std::mem::take(&mut self.engines);
        let engine = &mut engines[0];
        let fds = open_fds();
        let before = allocations();
        for _ in 0..ALLOC_SESSIONS {
            self.session(engine, 0, false, &mut rng, &mut rec, None);
        }
        let allocs = allocations() - before;
        let n = ALLOC_SESSIONS as f64;
        layers.set("alloc.per_session", allocs as f64 / n);
        // A closed session should give back its sockets.
        layers.set("net.fds_per_session", (open_fds() - fds) / n);

        // One more session, read through its endpoint counters.
        let script = self.expect.session_script(&mut rng);
        if let Ok(tcp) = TcpTransport::connect(self.addr) {
            if let Ok(conn) = engine.connect_transport(Box::new(tcp)) {
                if let Ok(session) = conn.acquire(SHOP_INTERFACE) {
                    let mut view = View::default();
                    let s0 = conn.endpoint().stats();
                    let a0 = allocations();
                    let mut taps = 0u64;
                    for tap in script {
                        taps += u64::from(
                            run_tap(&self.expect, tap, &mut view, &session, &mut rec.tally)
                                .is_some(),
                        );
                    }
                    let a1 = allocations();
                    let s1 = conn.endpoint().stats();
                    let bytes =
                        (s1.bytes_sent + s1.bytes_received) - (s0.bytes_sent + s0.bytes_received);
                    layers.set("alloc.per_tap", (a1 - a0) as f64 / taps.max(1) as f64);
                    layers.set("rosgi.bytes_per_tap", bytes as f64 / taps.max(1) as f64);
                    session.close();
                    let s = conn.endpoint().stats();
                    layers.set(
                        "rosgi.frames_per_session",
                        (s.frames_sent + s.frames_received) as f64,
                    );
                    let pooled = s.pool_hits + s.pool_misses;
                    if pooled > 0 {
                        layers.set("rosgi.pool_hit_ratio", s.pool_hits as f64 / pooled as f64);
                    }
                }
                conn.close();
            }
        }
        self.engines = engines;
    }

    fn measure(&mut self, secs: f64, seed: u64, layers: Option<&mut Layers>) -> PhaseResult {
        let probed = layers.is_some();
        let sampler = probed.then(|| Sampler::start(&self.queue));
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut engines = std::mem::take(&mut self.engines);
        let this = &*self;
        let recs: Vec<(Rec, Layers)> = std::thread::scope(|s| {
            let handles: Vec<_> = engines
                .iter_mut()
                .enumerate()
                .map(|(phone, engine)| {
                    s.spawn(move || {
                        let mut rng = Rng::fork(seed, phone as u64);
                        let mut rec = Rec {
                            start: Some(start),
                            ..Rec::default()
                        };
                        let mut layers = Layers::default();
                        while Instant::now() < deadline {
                            let cold = rng.below(8) == 0;
                            let l = probed.then_some(&mut layers);
                            this.session(engine, phone, cold, &mut rng, &mut rec, l);
                        }
                        let stats = engine.tier_cache().stats();
                        rec.cache_hits += stats.hits;
                        rec.cache_misses += stats.misses;
                        (rec, layers)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("phone thread panicked"))
                .collect()
        });
        self.engines = engines;

        let mut all = Rec::default();
        let mut merged = Layers::default();
        for (rec, l) in recs {
            all.startup_warm.extend(rec.startup_warm);
            all.startup_cold.extend(rec.startup_cold);
            all.taps.extend(rec.taps);
            all.sessions.extend(rec.sessions);
            all.tally.add(&rec.tally);
            all.cache_hits += rec.cache_hits;
            all.cache_misses += rec.cache_misses;
            merge_buckets(&mut all.rtt_buckets, &rec.rtt_buckets);
            merged.absorb(l);
        }
        if let Some(layers) = layers {
            layers.absorb(merged);
            if let Some(s) = sampler {
                s.finish(layers);
            }
            let lookups = all.cache_hits + all.cache_misses;
            if lookups > 0 {
                layers.set(
                    "alfredo.tier_cache_hit_ratio",
                    all.cache_hits as f64 / lookups as f64,
                );
            }
            if let Some(p50) = bucket_p50(&all.rtt_buckets) {
                layers.set("obs.invoke_rtt_p50_us", p50);
            }
        }

        let (warm, cold, taps) = (&all.startup_warm, &all.startup_cold, &all.taps);
        let named = vec![
            Named::new(
                "sessions_per_s",
                "1/s",
                all.sessions.rate(secs),
                all.sessions.len(),
            ),
            Named::new("startup_p50_us", "us", warm.windowed(secs, 0.5), warm.len()),
            Named::new(
                "startup_p95_us",
                "us",
                warm.windowed(secs, 0.95),
                warm.len(),
            ),
            Named::new(
                "startup_cold_p50_us",
                "us",
                cold.windowed(secs, 0.5),
                cold.len(),
            ),
            Named::new("tap_p50_us", "us", taps.windowed(secs, 0.5), taps.len()),
            Named::new("tap_p95_us", "us", taps.windowed(secs, 0.95), taps.len()),
        ];
        PhaseResult {
            named,
            attempted: all.tally.attempted,
            failed: all.tally.failed,
            mismatches: all.tally.mismatches,
            notes: vec![format!(
                "{} sessions ({} cold); {} file descriptors open after the last session closed",
                all.sessions.len(),
                cold.len(),
                open_fds()
            )],
        }
    }

    fn teardown(mut self: Box<Self>) {
        for (client, server) in self.echo.drain(..) {
            client.close();
            let _ = server.join();
        }
        if let Some(device) = self.device.take() {
            device.stop();
        }
        self.queue.shutdown();
    }
}
