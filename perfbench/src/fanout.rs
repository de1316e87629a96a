//! `room_fanout`: open-loop publishes into a journaled room whose eight
//! members are phones on loopback TCP.
//!
//! One generator thread calls `Room::publish` (or `retract`) at a fixed
//! offered rate with seeded keys and values, authored by a seeded member.
//! The room is journaled (`DeviceJournal::register_room`, batch fsync),
//! preloaded with 1024 keys and uses the default `RoomConfig`. Each member
//! is a device-side `EndpointRoomSink` whose events cross TCP to a
//! phone-side `RoomReplica`. Every delta is timed from when it was due,
//! not from when it was sent, so a stalled generator shows as latency.
//! Latency quantiles are taken per window of `WINDOW_DELTAS` deltas and
//! reported as the median over windows, so a few host stalls in a phase
//! lift the windows they fall in rather than the whole phase's tail; the
//! phase-wide p95 is printed beside them.
//!
//! The throughput slot is `publish_capacity_per_s`: one over the median
//! `Room::publish` / `retract` time, the rate one generator thread could
//! sustain. The delivered rate (`deliveries_per_s`) is the offered rate
//! times the members unless deliveries are lost, which `failed` already
//! counts, so it is printed but cannot show a regression.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alfredo_core::{
    room_clock_ms, room_update_topic, DeviceJournal, DeviceJournalConfig, EndpointRoomSink, Room,
    RoomConfig, RoomReplica, RoomSink, RoomUpdate,
};
use alfredo_net::{TcpNetListener, TcpTransport, Transport};
use alfredo_obs::Obs;
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{EndpointConfig, RemoteEndpoint, ServeQueue, ServeQueueConfig};

use crate::layers::{Layers, Sampler};
use crate::shop::{echo_rtt, echo_server};
use crate::util::{allocations, median, q, quantile, uncounted, us, us_since, Rng};
use crate::{Named, PhaseResult, Stack, Tracing};

/// The offered publish rate. Frozen at about half the rate at which
/// `delta_p95_us` starts to climb on a 2-core machine (the sweep is in
/// `README.md`).
const RATE_PER_S: f64 = 1000.0;
const MEMBERS: usize = 8;
const PRELOAD_KEYS: usize = 1024;
/// Keys the generator writes; a quarter of its ops remove one.
const KEY_SPACE: usize = 1280;
const ROOM: &str = "cart";
const WARMUP_DELTAS: usize = 200;
/// Deltas in the window that counts allocations.
const ALLOC_DELTAS: usize = 500;
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);
/// Deltas per window of the latency quantiles (a fifth of a second at
/// the offered rate), so a window's `fanout_p95_us` has ten samples above
/// it. A metric is the median of its windows' quantiles, pooled over the
/// run's phases.
const WINDOW_DELTAS: usize = 200;

/// Arrival instants of the deltas one member's phone applied.
type Seen = Arc<Mutex<Vec<(u64, Instant)>>>;

/// Times `EndpointRoomSink::deliver` from outside (probed runs only).
struct TimedSink {
    inner: EndpointRoomSink,
    samples: Mutex<Vec<f64>>,
}

impl RoomSink for TimedSink {
    fn deliver(&self, room: &str, update: &RoomUpdate) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.deliver(room, update);
        let d = us_since(t0);
        self.samples.lock().expect("sink samples").push(d);
        ok
    }
}

struct Member {
    name: String,
    phone: RemoteEndpoint,
    device: Arc<RemoteEndpoint>,
    replica: Arc<RoomReplica>,
    seen: Seen,
    timed: Option<Arc<TimedSink>>,
}

pub struct Fanout {
    dir: PathBuf,
    journal: Arc<DeviceJournal>,
    queue: ServeQueue,
    room: Arc<Room>,
    members: Vec<Member>,
    rng: Rng,
    connect_us: Vec<f64>,
    echo: Option<(TcpTransport, std::thread::JoinHandle<()>)>,
}

/// What one open-loop run produced.
struct Run {
    /// Seq of the first timed delta minus one.
    base: u64,
    due: Vec<Instant>,
    late_us: Vec<f64>,
    publish_us: Vec<f64>,
    failed_ops: u64,
}

impl Fanout {
    pub fn setup(seed: u64, tracing: Tracing) -> Fanout {
        let probed = tracing == Tracing::Probed;
        let obs = if tracing == Tracing::Off {
            Obs::disabled()
        } else {
            Obs::ring(1 << 16).0
        };
        let dir = std::env::current_dir()
            .expect("working directory")
            .join(".perfbench_tmp")
            .join(format!(
                "room-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos())
            ));
        std::fs::create_dir_all(&dir).expect("create the journal directory");
        let journal = DeviceJournal::open(DeviceJournalConfig::new(&dir)).expect("open journal");
        let queue = ServeQueue::new(ServeQueueConfig::workers(2));
        let room =
            journal.register_room(RoomConfig::new(ROOM), Some(queue.clone()), room_clock_ms());

        let device_fw = Framework::new();
        let listener = Arc::new(TcpNetListener::bind("127.0.0.1:0").expect("bind loopback"));
        let addr = listener.local_addr();
        let mut members = Vec::new();
        let mut connect_us = Vec::new();
        for i in 0..MEMBERS {
            let name = format!("phone-{i}");
            let phone_fw = Framework::new();
            let replica = RoomReplica::new(ROOM);
            replica.attach(phone_fw.event_admin());
            // Subscribed after the replica, so it runs once the replica
            // has applied the delta.
            let seen: Seen = Arc::default();
            let sink = Arc::clone(&seen);
            phone_fw
                .event_admin()
                .subscribe(room_update_topic(ROOM), move |event| {
                    let p = &event.properties;
                    if p.get_str("kind") == Some("delta") {
                        if let Some(seq) = p.get_i64("seq") {
                            let now = Instant::now();
                            uncounted(|| sink.lock().expect("seen").push((seq as u64, now)));
                        }
                    }
                });
            let fw = device_fw.clone();
            let l = Arc::clone(&listener);
            let device_config = EndpointConfig::named("room-device").with_obs(obs.clone());
            let accept = std::thread::spawn(move || {
                let t = l.accept().expect("accept member");
                RemoteEndpoint::establish(Box::new(t), fw, device_config).expect("device handshake")
            });
            let t0 = Instant::now();
            let tcp = TcpTransport::connect(addr).expect("dial device");
            connect_us.push(us_since(t0));
            let phone = RemoteEndpoint::establish(
                Box::new(tcp),
                phone_fw,
                EndpointConfig::named(name.clone()).with_obs(obs.clone()),
            )
            .expect("phone handshake");
            let device = Arc::new(accept.join().expect("accept thread panicked"));
            let timed = probed.then(|| {
                Arc::new(TimedSink {
                    inner: EndpointRoomSink(Arc::clone(&device)),
                    samples: Mutex::new(Vec::new()),
                })
            });
            let sink: Arc<dyn RoomSink> = match &timed {
                Some(t) => Arc::clone(t) as Arc<dyn RoomSink>,
                None => Arc::new(EndpointRoomSink(Arc::clone(&device))),
            };
            room.join(&name, sink, room_clock_ms());
            members.push(Member {
                name,
                phone,
                device,
                replica,
                seen,
                timed,
            });
        }
        let mut fanout = Fanout {
            dir,
            journal,
            queue,
            room,
            members,
            rng: Rng::fork(seed, 0xFA40),
            connect_us,
            echo: None,
        };
        for k in 0..PRELOAD_KEYS {
            let author = &fanout.members[k % MEMBERS].name;
            fanout
                .room
                .publish(author, format!("item/{k:04}"), Value::I64(k as i64))
                .expect("preload");
        }
        fanout.converge();
        fanout.open_loop(Duration::MAX, WARMUP_DELTAS);
        fanout.converge();
        if probed {
            let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind echo");
            let client = TcpTransport::connect(listener.local_addr()).expect("dial echo");
            let server = listener.accept().expect("accept echo");
            fanout.echo = Some((client, echo_server(Box::new(server))));
        }
        fanout
    }

    /// Publishes seeded ops on the open-loop schedule until `limit`
    /// elapses or `max` ops were sent. The keys and the run's records are
    /// left out of the allocation count.
    fn open_loop(&mut self, limit: Duration, max: usize) -> Run {
        let base = self.room.seq();
        let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
        let t0 = Instant::now() + Duration::from_millis(1);
        let end = t0.checked_add(limit);
        let mut run = Run {
            base,
            due: Vec::new(),
            late_us: Vec::new(),
            publish_us: Vec::new(),
            failed_ops: 0,
        };
        for i in 0..max {
            let due = t0 + period.mul_f64(i as f64);
            if end.is_some_and(|end| due >= end) {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let author = &self.members[self.rng.below(MEMBERS)].name;
            let key = uncounted(|| format!("item/{:04}", self.rng.below(KEY_SPACE)));
            let remove = self.rng.below(4) == 0;
            let value = Value::I64((self.rng.next_u64() % 1_000_000) as i64);
            let start = Instant::now();
            let result = if remove {
                self.room.retract(author, &key)
            } else {
                self.room.publish(author, key, value)
            };
            let publish = us_since(start);
            match result {
                Ok(seq) if seq == base + i as u64 + 1 => {}
                _ => run.failed_ops += 1,
            }
            uncounted(|| {
                run.late_us.push(us(start - due));
                run.publish_us.push(publish);
                run.due.push(due);
            });
        }
        run
    }

    /// Waits until every replica has applied the room's last seq.
    fn converge(&self) -> bool {
        let target = self.room.seq();
        let deadline = Instant::now() + CONVERGE_TIMEOUT;
        while Instant::now() < deadline {
            if self.members.iter().all(|m| m.replica.last_seq() >= target) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }
}

impl Stack for Fanout {
    /// Counts allocations per delta over a stretch of the open loop,
    /// every member's delivery included.
    fn count(&mut self, _seed: u64, layers: &mut Layers) {
        let a0 = allocations();
        let window = self.open_loop(Duration::MAX, ALLOC_DELTAS);
        self.converge();
        let per = (allocations() - a0) as f64 / window.due.len().max(1) as f64;
        layers.set("alloc.per_delta", per);
    }

    fn measure(&mut self, secs: f64, _seed: u64, layers: Option<&mut Layers>) -> PhaseResult {
        let probed = layers.is_some();
        for m in &self.members {
            m.seen.lock().expect("seen").clear();
            if let Some(t) = &m.timed {
                t.samples.lock().expect("sink samples").clear();
            }
        }
        let gaps0: u64 = self.members.iter().map(|m| m.replica.gaps()).sum();
        let dups0: u64 = self.members.iter().map(|m| m.replica.duplicates()).sum();
        let room0 = self.room.stats();
        let journal0 = self.journal.room_journal().stats();
        let sent0: u64 = self
            .members
            .iter()
            .map(|m| m.device.stats().bytes_sent)
            .sum();
        let sampler = probed.then(|| Sampler::start(&self.queue));

        let start = Instant::now();
        let run = self.open_loop(Duration::from_secs_f64(secs), usize::MAX);
        let converged = self.converge();

        let n = run.due.len() as u64;
        let members = self.members.len() as u64;
        // Latencies by the window of the delta's due time.
        let windows = (n as usize).div_ceil(WINDOW_DELTAS).max(1);
        let mut delta_us = vec![Vec::new(); windows];
        // Latest arrival per delta, and how many members applied it.
        let mut last = vec![(0.0f64, 0u64); n as usize];
        let mut last_arrival = start;
        let mut received = 0u64;
        for m in &self.members {
            for &(seq, arrived) in m.seen.lock().expect("seen").iter() {
                if seq <= run.base || seq > run.base + n {
                    continue;
                }
                let i = (seq - run.base - 1) as usize;
                let lat = us(arrived.saturating_duration_since(run.due[i]));
                last_arrival = last_arrival.max(arrived);
                delta_us[i / WINDOW_DELTAS].push(lat);
                received += 1;
                last[i].0 = last[i].0.max(lat);
                last[i].1 += 1;
            }
        }
        let mut fanout_us = vec![Vec::new(); windows];
        for (i, &(lat, k)) in last.iter().enumerate() {
            if k == members {
                fanout_us[i / WINDOW_DELTAS].push(lat);
            }
        }
        let gaps = self.members.iter().map(|m| m.replica.gaps()).sum::<u64>() - gaps0;
        let dups = self
            .members
            .iter()
            .map(|m| m.replica.duplicates())
            .sum::<u64>()
            - dups0;
        let expected = self.room.state_json();
        let diverged = self
            .members
            .iter()
            .filter(|m| m.replica.state_json() != expected)
            .count() as u64;
        let mismatches = diverged + u64::from(!converged);
        // A delta a member got only inside a coalesced snapshot, or never,
        // is a failed delivery.
        let missed = (n * members).saturating_sub(received);
        let failed = missed + gaps + run.failed_ops * members + mismatches;

        let room1 = self.room.stats();
        let mut late = run.late_us.clone();
        let late_p99 = q(&mut late, 0.99);
        let late_p50 = q(&mut late, 0.5);
        if let Some(layers) = layers {
            if let Some(s) = sampler {
                s.finish(layers);
            }
            for v in &run.publish_us {
                layers.add("alfredo.room_publish_us", *v);
            }
            for m in &self.members {
                if let Some(t) = &m.timed {
                    for v in t.samples.lock().expect("sink samples").iter() {
                        layers.add("rosgi.send_event_us", *v);
                    }
                }
            }
            let sent1: u64 = self
                .members
                .iter()
                .map(|m| m.device.stats().bytes_sent)
                .sum();
            let deliveries = (n * members).max(1) as f64;
            layers.set(
                "rosgi.bytes_per_delta_member",
                (sent1 - sent0) as f64 / deliveries,
            );
            let j1 = self.journal.room_journal().stats();
            let appends = j1.appends - journal0.appends;
            let fsyncs = j1.fsyncs - journal0.fsyncs;
            layers.set(
                "journal.appends_per_fsync",
                appends as f64 / fsyncs.max(1) as f64,
            );
            layers.set(
                "journal.bytes_per_delta",
                (j1.bytes_written - journal0.bytes_written) as f64 / n.max(1) as f64,
            );
            layers.set(
                "alfredo.room_coalesced",
                (room1.coalesced_snapshots - room0.coalesced_snapshots) as f64,
            );
            layers.set("alfredo.replica_gaps", gaps as f64);
            layers.set("alfredo.replica_dups", dups as f64);
            layers.set("harness.gen_late_p99_us", late_p99);
            for v in &self.connect_us {
                layers.add("net.tcp_connect_us", *v);
            }
            for m in &self.members {
                for _ in 0..25 {
                    let t0 = Instant::now();
                    if m.device.ping(Duration::from_secs(5)).is_ok() {
                        layers.add("rosgi.ping_us", us_since(t0));
                    }
                }
            }
            if let Some((client, _)) = &self.echo {
                for _ in 0..200 {
                    if let Some(rtt) = echo_rtt(client, &[0u8; 64]) {
                        layers.add("net.echo_rtt_us", rtt);
                    }
                }
            }
        }

        let span = last_arrival.saturating_duration_since(start).as_secs_f64();
        let windowed = |w: &mut [Vec<f64>], p: f64| -> Vec<f64> {
            w.iter_mut().filter_map(|w| quantile(w, p)).collect()
        };
        let fanout_n = fanout_us.iter().map(Vec::len).sum();
        let mut whole: Vec<f64> = delta_us.concat();
        let publish_p50 = median(&mut run.publish_us.clone()).unwrap_or(f64::NAN);
        let named = vec![
            Named::new(
                "publish_capacity_per_s",
                "1/s",
                vec![1e6 / publish_p50],
                run.publish_us.len(),
            ),
            // Over the span from the first due time to the last arrival.
            Named::new(
                "deliveries_per_s",
                "1/s",
                vec![received as f64 / span],
                received as usize,
            ),
            Named::new(
                "delta_p50_us",
                "us",
                windowed(&mut delta_us, 0.5),
                received as usize,
            ),
            Named::new(
                "delta_p95_us",
                "us",
                windowed(&mut delta_us, 0.95),
                received as usize,
            ),
            Named::new(
                "fanout_p95_us",
                "us",
                windowed(&mut fanout_us, 0.95),
                fanout_n,
            ),
            // The p95 over the whole phase, stalls included.
            Named::new(
                "delta_p95_phase_us",
                "us",
                vec![q(&mut whole, 0.95)],
                received as usize,
            ),
        ];
        PhaseResult {
            named,
            attempted: (n * members).max(1),
            failed,
            mismatches,
            notes: vec![format!(
                "offered rate {:.0} deltas/s to {members} members; {n} deltas; \
                     coalesced {}; generator late p50 {late_p50:.1} us, p99 (harness.gen_late_p99_us) {late_p99:.1} us",
                RATE_PER_S,
                room1.coalesced_snapshots - room0.coalesced_snapshots
            )],
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some((client, server)) = self.echo.take() {
            client.close();
            let _ = server.join();
        }
        for m in self.members.drain(..) {
            m.phone.close();
            m.device.close();
        }
        self.queue.shutdown();
        let _ = self.journal.close();
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only removes the parent when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
