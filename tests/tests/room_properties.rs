//! Room property battery: the sequenced-broadcast invariants under
//! concurrency and backpressure.
//!
//! * **Gap-free monotonic sequencing** — eight publisher threads blast a
//!   thousand events each into one room; every member must observe a
//!   strictly contiguous, per-room monotonic delta sequence (no gap, no
//!   duplicate, no reorder) and converge to the exact room state.
//! * **Snapshot equivalence** — a member that fell behind and received a
//!   coalesced snapshot at seq S plus the deltas beyond S must
//!   reconstruct *byte-identical* state (the canonical `state_json`
//!   encoding) to a member that received every delta.
//! * **Backpressure isolation** — one plugged member triggers coalescing
//!   without inflating its serve-queue lane (the drain is single-flight)
//!   and without holding any other member back. Another member is
//!   coalesced only if it really fell more than `member_buffer` updates
//!   behind its own drain, and one whose drain keeps pace never is.
//! * **Room isolation** — two rooms sharing one serve queue keep
//!   independent sequence spaces and never leak updates across.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use alfredo_core::{Room, RoomConfig, RoomReplica, RoomSink, RoomUpdate};
use alfredo_osgi::Value;
use alfredo_rosgi::{ServeQueue, ServeQueueConfig};

const PUBLISHERS: usize = 8;
const EVENTS_PER_PUBLISHER: usize = 1_000;

fn queue(workers: usize) -> ServeQueue {
    ServeQueue::new(ServeQueueConfig {
        workers,
        per_peer_depth: 1024,
        total_depth: 65_536,
        ..ServeQueueConfig::default()
    })
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A sink that feeds a replica and records the raw update stream, so the
/// test can assert the *wire-order* contract (contiguous seqs), not just
/// the converged end state.
struct RecordingSink {
    replica: Arc<RoomReplica>,
    /// `(is_snapshot, seq)` per delivered update, in delivery order.
    stream: Mutex<Vec<(bool, u64)>>,
}

impl RecordingSink {
    fn new(room: &str) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            replica: RoomReplica::new(room),
            stream: Mutex::new(Vec::new()),
        })
    }

    /// Asserts the recorded stream is in order and coalesced only when the
    /// member was really behind: after the join snapshot, each delta
    /// follows the update before it, and each snapshot lies more than
    /// `buffer` seqs past it — the member's backlog overflowed between
    /// two turns of its drain.
    fn assert_in_order_coalesced_only_when_behind(&self, who: &str, buffer: usize) {
        let stream = self.stream.lock().unwrap();
        assert!(
            matches!(stream.first(), Some((true, _))),
            "{who}: the join snapshot arrives first"
        );
        let mut last = stream[0].1;
        for (is_snapshot, seq) in &stream[1..] {
            if *is_snapshot {
                assert!(
                    *seq > last + buffer as u64,
                    "{who}: coalesced at seq {seq} only {} behind its last update {last}",
                    seq - last
                );
            } else {
                assert_eq!(
                    *seq,
                    last + 1,
                    "{who}: delta stream must be gap-free and in order"
                );
            }
            last = *seq;
        }
    }

    /// Asserts the recorded stream is one snapshot followed by strictly
    /// contiguous deltas — the "received every delta" witness.
    fn assert_contiguous(&self, who: &str) {
        let stream = self.stream.lock().unwrap();
        assert!(
            matches!(stream.first(), Some((true, _))),
            "{who}: the join snapshot arrives first"
        );
        let mut last = stream[0].1;
        for (is_snapshot, seq) in &stream[1..] {
            assert!(!is_snapshot, "{who}: healthy members are never coalesced");
            assert_eq!(
                *seq,
                last + 1,
                "{who}: delta stream must be gap-free and in order"
            );
            last = *seq;
        }
    }
}

impl RoomSink for RecordingSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        let entry = match update {
            RoomUpdate::Snapshot { seq, .. } => (true, *seq),
            RoomUpdate::Delta(d) => (false, d.seq),
        };
        self.stream.lock().unwrap().push(entry);
        self.replica.apply(update);
        true
    }
}

/// A sink that can be plugged: while plugged, `deliver` parks, wedging
/// the member's single-flight drain (and the queue worker running it).
struct PluggedSink {
    replica: Arc<RoomReplica>,
    plugged: AtomicBool,
    /// Seq of every snapshot the sink delivered, in delivery order.
    snapshot_seqs: Mutex<Vec<u64>>,
}

impl PluggedSink {
    fn new(room: &str) -> Arc<PluggedSink> {
        Arc::new(PluggedSink {
            replica: RoomReplica::new(room),
            plugged: AtomicBool::new(true),
            snapshot_seqs: Mutex::new(Vec::new()),
        })
    }

    fn unplug(&self) {
        self.plugged.store(false, Ordering::SeqCst);
    }
}

impl RoomSink for PluggedSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        while self.plugged.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let RoomUpdate::Snapshot { seq, .. } = update {
            self.snapshot_seqs.lock().unwrap().push(*seq);
        }
        self.replica.apply(update);
        true
    }
}

/// Eight concurrent publishers, three pure observers: every member's
/// stream is gap-free and monotonic, and everyone converges to the exact
/// same bytes. This is the paper-level claim that a shared session shows
/// every participant a single total order of updates.
#[test]
fn concurrent_publishers_yield_gap_free_monotonic_streams() {
    let q = queue(4);
    // A buffer deep enough that no member coalesces: this test is about
    // the ordering property, not backpressure.
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(65_536),
        q.clone(),
    );
    let observers: Vec<Arc<RecordingSink>> = (0..3)
        .map(|i| {
            let sink = RecordingSink::new("board");
            room.join(
                &format!("observer{i}"),
                Arc::clone(&sink) as Arc<dyn RoomSink>,
                0,
            );
            sink
        })
        .collect();
    let publishers: Vec<Arc<RecordingSink>> = (0..PUBLISHERS)
        .map(|i| {
            let sink = RecordingSink::new("board");
            room.join(&format!("p{i}"), Arc::clone(&sink) as Arc<dyn RoomSink>, 0);
            sink
        })
        .collect();

    let start = Arc::new(Barrier::new(PUBLISHERS));
    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|t| {
            let room = Arc::clone(&room);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..EVENTS_PER_PUBLISHER {
                    // Overlapping keys across threads: the total order is
                    // what makes the end state well-defined at all.
                    let key = format!("cell/{}", (t * 31 + i) % 97);
                    room.publish(&format!("p{t}"), key, Value::I64((t * 10_000 + i) as i64))
                        .expect("publisher is a member");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let members = PUBLISHERS + 3;
    let expected_seq = (members + PUBLISHERS * EVENTS_PER_PUBLISHER) as u64;
    assert_eq!(room.seq(), expected_seq, "one seq per presence + publish");
    let everyone = observers.iter().chain(publishers.iter());
    wait_until("all members to converge", || {
        everyone
            .clone()
            .all(|m| m.replica.last_seq() == expected_seq)
    });

    let expected = room.state_json();
    for (i, m) in everyone.enumerate() {
        m.assert_contiguous(&format!("member {i}"));
        assert_eq!(m.replica.gaps(), 0, "member {i} counted a gap");
        assert_eq!(m.replica.duplicates(), 0, "member {i} counted a duplicate");
        assert_eq!(
            m.replica.state_json(),
            expected,
            "member {i} must reconstruct the room byte for byte"
        );
    }
    let stats = room.stats();
    assert_eq!(
        stats.published,
        (PUBLISHERS * EVENTS_PER_PUBLISHER) as u64 + members as u64,
        "every publish (and presence delta) was sequenced exactly once"
    );
    assert_eq!(stats.coalesced_snapshots, 0, "nobody fell behind");
    q.shutdown();
}

/// One member is plugged mid-session: its backlog must coalesce into a
/// snapshot (bounded memory), its serve-queue lane must stay empty (the
/// drain is single-flight, so room fan-out can never flood the fairness
/// lane the member's own RPCs ride), and — the equivalence property —
/// after unplugging it must reconstruct byte-identical state from
/// "snapshot at S + deltas > S", the same bytes the other member
/// assembles. The burst is unpaced, so on a loaded host the other
/// member's drain can fall behind too; it may then be coalesced, but
/// only past a real backlog overflow, and it still converges exactly.
#[test]
fn coalesced_snapshot_plus_trailing_deltas_is_byte_identical_to_full_stream() {
    const BUFFER: usize = 8;
    const BURST: usize = 200;
    let q = queue(4);
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(BUFFER),
        q.clone(),
    );
    let full = RecordingSink::new("board");
    room.join("full", Arc::clone(&full) as Arc<dyn RoomSink>, 0);
    let plugged = PluggedSink::new("board");
    let join_seq = room.join("plugged", Arc::clone(&plugged) as Arc<dyn RoomSink>, 0);

    for i in 0..BURST {
        room.publish("full", format!("k{}", i % 13), Value::I64(i as i64))
            .expect("publisher is a member");
    }
    wait_until("coalescing to engage", || {
        room.stats().coalesced_snapshots > 0
    });
    // The healthy member is not held back by the plugged one.
    wait_until("the healthy member to converge", || {
        full.replica.last_seq() == room.seq()
    });
    // Single-flight drain: the plugged member wedges one in-flight job;
    // nothing stacks up in its per-peer serve lane behind it.
    assert!(
        q.peer_depth("plugged") <= 1,
        "a slow member's fan-out must not flood its serve lane (depth {})",
        q.peer_depth("plugged")
    );

    plugged.unplug();
    wait_until("the plugged member to converge", || {
        plugged.replica.last_seq() == room.seq()
    });

    let expected = room.state_json();
    full.assert_in_order_coalesced_only_when_behind("full", BUFFER);
    assert_eq!(full.replica.gaps(), 0, "full: no gap");
    assert_eq!(full.replica.duplicates(), 0, "full: no duplicate");
    assert_eq!(
        full.replica.state_json(),
        expected,
        "the unplugged member reconstructs the room byte for byte"
    );
    // The plugged member converged *through a coalesced snapshot*, not by
    // replaying the backlog: it saw a snapshot newer than its join and
    // far fewer deltas than were published while it was wedged. (The join
    // snapshot itself may have been coalesced away before delivery, so
    // the snapshot count can be 1 — the seq witness is what matters.)
    let snapshot_seqs = plugged.snapshot_seqs.lock().unwrap().clone();
    assert!(
        snapshot_seqs.iter().any(|&s| s > join_seq),
        "the plugged member must converge via a snapshot newer than its \
         join at seq {join_seq} (saw {snapshot_seqs:?})"
    );
    assert!(
        plugged.replica.deltas_applied() < BURST as u64 / 2,
        "the plugged member must skip most deltas ({} applied of {BURST})",
        plugged.replica.deltas_applied()
    );
    assert_eq!(plugged.replica.gaps(), 0, "snapshots cover skipped deltas");
    assert_eq!(
        plugged.replica.state_json(),
        expected,
        "snapshot at S + deltas > S must be byte-identical to the full stream"
    );
    let stats = room.stats();
    assert!(
        stats.coalesced_snapshots > 0,
        "coalescing engaged: {stats:?}"
    );
    assert_eq!(stats.busy_kicks, 0, "no drain bounced off a full lane");
    q.shutdown();
}

/// The other half of the coalescing contract: a member whose drain keeps
/// pace is never coalesced, however small its buffer and however fast
/// the publisher. An inline room drains each member before `publish`
/// returns, so every drain keeps pace by construction.
#[test]
fn a_member_whose_drain_keeps_pace_is_never_coalesced() {
    const BURST: usize = 200;
    let room = Room::new(RoomConfig::new("board").with_member_buffer(1));
    let members: Vec<Arc<RecordingSink>> = (0..3)
        .map(|i| {
            let sink = RecordingSink::new("board");
            room.join(&format!("m{i}"), Arc::clone(&sink) as Arc<dyn RoomSink>, 0);
            sink
        })
        .collect();
    for i in 0..BURST {
        room.publish("m0", format!("k{}", i % 13), Value::I64(i as i64))
            .expect("publisher is a member");
    }
    let expected = room.state_json();
    for (i, m) in members.iter().enumerate() {
        m.assert_contiguous(&format!("member {i}"));
        assert_eq!(m.replica.state_json(), expected);
    }
    assert_eq!(room.stats().coalesced_snapshots, 0);
}

/// Two rooms on one shared queue: independent seq spaces, no cross-talk.
#[test]
fn rooms_sharing_a_queue_keep_independent_sequences() {
    let q = queue(2);
    let red = Room::with_queue(RoomConfig::new("red"), q.clone());
    let blue = Room::with_queue(RoomConfig::new("blue"), q.clone());
    let in_red = RecordingSink::new("red");
    let in_blue = RecordingSink::new("blue");
    red.join("m", Arc::clone(&in_red) as Arc<dyn RoomSink>, 0);
    blue.join("m", Arc::clone(&in_blue) as Arc<dyn RoomSink>, 0);

    for i in 0..50 {
        red.publish("m", "k", Value::I64(i)).unwrap();
        if i % 2 == 0 {
            blue.publish("m", "k", Value::I64(-i)).unwrap();
        }
    }
    assert_eq!(red.seq(), 51, "red: presence + 50 deltas");
    assert_eq!(blue.seq(), 26, "blue: presence + 25 deltas");
    wait_until("both replicas to converge", || {
        in_red.replica.last_seq() == 51 && in_blue.replica.last_seq() == 26
    });
    in_red.assert_contiguous("red member");
    in_blue.assert_contiguous("blue member");
    assert_eq!(in_red.replica.state_json(), red.state_json());
    assert_eq!(in_blue.replica.state_json(), blue.state_json());
    q.shutdown();
}
