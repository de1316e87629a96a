//! `shop_taps`: closed-loop taps on long-lived sessions over the
//! in-memory channel fabric.
//!
//! Two phone threads each hold one AlfredOShop session and issue a seeded
//! stream of taps (refresh, select category, select product, search,
//! compare). The device serves through `serve_device_queued` behind a
//! 2-worker `ServeQueue`. Nearly all the work is the invoke path:
//! controller → proxy → codec → transport → serve queue → service →
//! binding.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{
    serve_device_queued, AlfredOConnection, AlfredOEngine, AlfredOSession, ServedDevice,
};
use alfredo_net::{ChannelTransport, InMemoryNetwork, PeerAddr, Transport};
use alfredo_obs::{Obs, RingSink};
use alfredo_osgi::Framework;
use alfredo_rosgi::{ServeQueue, ServeQueueConfig};

use crate::layers::{Layers, Sampler};
use crate::shop::{
    bucket_p50, echo_rtt, echo_server, merge_rtt_buckets, phase_spans, phone_engine,
    probe_tap_layers, run_tap, Expect, Tally, Tap, View,
};
use crate::util::{allocations, Rng, Series};
use crate::{Named, PhaseResult, Stack, Tracing};

const PHONES: usize = 2;
/// Taps each phone issues during set-up, before timing starts.
const WARMUP_TAPS: usize = 2000;
/// Taps in the single-thread window that counts allocations.
const ALLOC_TAPS: usize = 500;

struct Phone {
    // Field order is drop order: the session before its connection,
    // the connection before its engine.
    session: AlfredOSession,
    conn: AlfredOConnection,
    _engine: AlfredOEngine,
    view: View,
    rng: Rng,
}

pub struct Taps {
    device: Option<ServedDevice>,
    device_fw: Framework,
    queue: ServeQueue,
    ring: Option<Arc<RingSink>>,
    phones: Vec<Phone>,
    expect: Expect,
    echo: Vec<(ChannelTransport, JoinHandle<()>)>,
}

#[derive(Default)]
struct Rec {
    taps: Series,
    detail_taps: Series,
    tally: Tally,
}

impl Taps {
    pub fn setup(seed: u64, tracing: Tracing) -> Taps {
        let net = InMemoryNetwork::new();
        let device_fw = Framework::new();
        register_shop(&device_fw, sample_catalog()).expect("register the shop");
        let queue = ServeQueue::new(ServeQueueConfig::workers(2));
        let (obs, ring) = if tracing != Tracing::Off {
            let (obs, ring) = Obs::ring(1 << 16);
            (obs, Some(ring))
        } else {
            (Obs::disabled(), None)
        };
        let screen = PeerAddr::new("screen");
        let device = serve_device_queued(
            &net,
            device_fw.clone(),
            screen.clone(),
            obs.clone(),
            queue.clone(),
        )
        .expect("serve the shop");
        let expect = Expect::new();
        let mut tally = Tally::default();
        let phones = (0..PHONES)
            .map(|p| {
                let engine = phone_engine(p, net.clone(), obs.clone());
                let conn = engine.connect(&screen).expect("connect phone");
                let session = conn.acquire(SHOP_INTERFACE).expect("acquire the shop");
                let mut phone = Phone {
                    session,
                    conn,
                    _engine: engine,
                    view: View::default(),
                    rng: Rng::fork(seed, p as u64),
                };
                for _ in 0..WARMUP_TAPS {
                    let tap = expect.random_tap(&mut phone.rng, &phone.view);
                    run_tap(&expect, tap, &mut phone.view, &phone.session, &mut tally);
                }
                phone
            })
            .collect();
        let mut echo = Vec::new();
        if tracing == Tracing::Probed {
            for p in 0..PHONES {
                let addr = PeerAddr::new(format!("echo-{p}"));
                let listener = net.bind(addr.clone()).expect("bind echo");
                let client = net
                    .connect(PeerAddr::new(format!("echo-client-{p}")), addr)
                    .expect("dial echo");
                let server = listener.accept().expect("accept echo");
                echo.push((client, echo_server(Box::new(server))));
            }
        }
        if let Some(ring) = &ring {
            ring.drain();
        }
        Taps {
            device: Some(device),
            device_fw,
            queue,
            ring,
            phones,
            expect,
            echo,
        }
    }
}

impl Stack for Taps {
    /// Counts allocations and wire bytes over taps on one phone while the
    /// other is idle.
    fn count(&mut self, _seed: u64, layers: &mut Layers) {
        let expect = &self.expect;
        let phone = &mut self.phones[0];
        let mut tally = Tally::default();
        let s0 = phone.conn.endpoint().stats();
        let a0 = allocations();
        for _ in 0..ALLOC_TAPS {
            let tap = expect.random_tap(&mut phone.rng, &phone.view);
            run_tap(expect, tap, &mut phone.view, &phone.session, &mut tally);
        }
        let a1 = allocations();
        let s1 = phone.conn.endpoint().stats();
        let n = ALLOC_TAPS as f64;
        layers.set("alloc.per_tap", (a1 - a0) as f64 / n);
        let bytes = (s1.bytes_sent + s1.bytes_received) - (s0.bytes_sent + s0.bytes_received);
        layers.set("rosgi.bytes_per_tap", bytes as f64 / n);
        let hits = s1.pool_hits - s0.pool_hits;
        let pooled = hits + s1.pool_misses - s0.pool_misses;
        if pooled > 0 {
            layers.set("rosgi.pool_hit_ratio", hits as f64 / pooled as f64);
        }
    }

    fn measure(&mut self, secs: f64, _seed: u64, layers: Option<&mut Layers>) -> PhaseResult {
        let probed = layers.is_some();
        let sampler = probed.then(|| Sampler::start(&self.queue));
        let mut rtt_before = Vec::new();
        for phone in &self.phones {
            merge_rtt_buckets(&mut rtt_before, phone.conn.endpoint());
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let expect = &self.expect;
        let device_fw = &self.device_fw;
        let ring = self.ring.as_deref();
        let echo = &self.echo;
        let results: Vec<(Rec, Layers)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .phones
                .iter_mut()
                .enumerate()
                .map(|(p, phone)| {
                    s.spawn(move || {
                        let mut rec = Rec::default();
                        let mut layers = Layers::default();
                        while Instant::now() < deadline {
                            let tap = expect.random_tap(&mut phone.rng, &phone.view);
                            let call = probed.then(|| expect.call(tap, &phone.view));
                            let Some(tap_us) = run_tap(
                                expect,
                                tap,
                                &mut phone.view,
                                &phone.session,
                                &mut rec.tally,
                            ) else {
                                continue;
                            };
                            let at = start.elapsed().as_secs_f64();
                            rec.taps.push(at, tap_us);
                            if matches!(tap, Tap::Product(_)) {
                                rec.detail_taps.push(at, tap_us);
                            }
                            let Some((method, args)) = call else {
                                continue;
                            };
                            let ep = phone.conn.endpoint();
                            if !probe_tap_layers(&mut layers, ep, device_fw, method, &args, tap_us)
                            {
                                rec.tally.failed += 1;
                            }
                            if let Some(rtt) = echo.get(p).and_then(|(c, _)| echo_rtt(c, &[0; 64]))
                            {
                                layers.add("net.echo_rtt_us", rtt);
                            }
                            if rec.taps.len() % 64 == 0 {
                                if let Some(ring) = ring {
                                    phase_spans(&mut layers, ring);
                                }
                            }
                        }
                        (rec, layers)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("phone thread panicked"))
                .collect()
        });
        let mut all = Rec::default();
        let mut merged = Layers::default();
        for (rec, l) in results {
            all.taps.extend(rec.taps);
            all.detail_taps.extend(rec.detail_taps);
            all.tally.add(&rec.tally);
            merged.absorb(l);
        }
        if let Some(layers) = layers {
            layers.absorb(merged);
            if let Some(s) = sampler {
                s.finish(layers);
            }
            let mut rtt_after = Vec::new();
            for phone in &self.phones {
                merge_rtt_buckets(&mut rtt_after, phone.conn.endpoint());
            }
            let during: Vec<u64> = rtt_after
                .iter()
                .enumerate()
                .map(|(i, a)| a - rtt_before.get(i).copied().unwrap_or(0))
                .collect();
            if let Some(p50) = bucket_p50(&during) {
                layers.set("obs.invoke_rtt_p50_us", p50);
            }
        }

        let (taps, detail) = (&all.taps, &all.detail_taps);
        let named = vec![
            Named::new("taps_per_s", "1/s", taps.rate(secs), taps.len()),
            Named::new("tap_p50_us", "us", taps.windowed(secs, 0.5), taps.len()),
            Named::new("tap_p95_us", "us", taps.windowed(secs, 0.95), taps.len()),
            Named::new(
                "tap_detail_p50_us",
                "us",
                detail.windowed(secs, 0.5),
                detail.len(),
            ),
        ];
        PhaseResult {
            named,
            attempted: all.tally.attempted,
            failed: all.tally.failed,
            mismatches: all.tally.mismatches,
            notes: Vec::new(),
        }
    }

    fn teardown(mut self: Box<Self>) {
        for (client, server) in self.echo.drain(..) {
            client.close();
            let _ = server.join();
        }
        for phone in self.phones.drain(..) {
            phone.session.close();
            phone.conn.close();
        }
        if let Some(device) = self.device.take() {
            device.stop();
        }
    }
}
