//! Room publish cost: a publish must not get dearer as the room state
//! grows, and members coalescing in the same publish must converge.
//!
//! * **Flat in state size** — a counting global allocator measures the
//!   allocations of `Room::publish` on an inline room (every member's
//!   delivery runs on the publishing thread, so all of its work is
//!   counted) holding 16 keys and holding 16 384 keys. A per-publish copy
//!   of the state would cost one allocation per key; the two must agree
//!   within two allocations.
//! * **Shared coalescing snapshot** — two members that overflow in the
//!   same publish get one snapshot between them, and both reconstruct
//!   the room byte for byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alfredo_core::{ReplicaSink, Room, RoomConfig, RoomReplica, RoomSink, RoomUpdate};
use alfredo_osgi::Value;
use alfredo_rosgi::{ServeQueue, ServeQueueConfig};

/// Counts the allocations of the current thread while its counting flag
/// is set; tests in this file run on parallel threads, so the count is
/// per thread rather than process-wide.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const MEMBERS: usize = 3;
const PUBLISHES: u64 = 64;

/// Mean allocations per publish on an inline room preloaded with `keys`
/// keys and fanned out to [`MEMBERS`] replica members. The timed
/// publishes overwrite existing keys with pre-built keys and values, so
/// the state's own shape does not change under the count.
fn allocations_per_publish(keys: usize) -> f64 {
    let room = Room::new(RoomConfig::new("board"));
    let replicas: Vec<Arc<RoomReplica>> = (0..MEMBERS)
        .map(|i| {
            let replica = RoomReplica::new("board");
            room.join(
                &format!("m{i}"),
                Arc::new(ReplicaSink(Arc::clone(&replica))),
                0,
            );
            replica
        })
        .collect();
    for k in 0..keys {
        room.publish("m0", format!("item/{k:05}"), Value::I64(k as i64))
            .unwrap();
    }
    let writes: Vec<(String, Value)> = (0..PUBLISHES)
        .map(|i| (format!("item/{:05}", i % 16), Value::I64(-(i as i64))))
        .collect();
    let total = allocations_in(|| {
        for (key, value) in writes {
            room.publish("m1", key, value).unwrap();
        }
    });
    let expected = room.state_json();
    for replica in &replicas {
        assert_eq!(replica.state_json(), expected);
    }
    assert_eq!(room.stats().coalesced_snapshots, 0);
    total as f64 / PUBLISHES as f64
}

#[test]
fn publish_allocations_do_not_grow_with_state_size() {
    let small = allocations_per_publish(16);
    let large = allocations_per_publish(16_384);
    assert!(
        large <= small + 2.0,
        "a publish into 16384 keys allocates {large:.1} times, into 16 keys {small:.1}"
    );
}

/// Parks deliveries while plugged, then records every update it applies.
struct PluggedSink {
    replica: Arc<RoomReplica>,
    /// A drain has reached this sink.
    entered: AtomicBool,
    plugged: AtomicBool,
    /// Every snapshot delivered, in delivery order.
    snapshots: Mutex<Vec<RoomUpdate>>,
}

impl PluggedSink {
    fn new() -> Arc<PluggedSink> {
        Arc::new(PluggedSink {
            replica: RoomReplica::new("board"),
            entered: AtomicBool::new(false),
            plugged: AtomicBool::new(true),
            snapshots: Mutex::new(Vec::new()),
        })
    }
}

impl RoomSink for PluggedSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        self.entered.store(true, Ordering::SeqCst);
        while self.plugged.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if matches!(update, RoomUpdate::Snapshot { .. }) {
            self.snapshots.lock().unwrap().push(update.clone());
        }
        self.replica.apply(update);
        true
    }
}

#[test]
fn members_coalescing_in_one_publish_both_converge() {
    const BUFFER: usize = 4;
    let queue = ServeQueue::new(ServeQueueConfig::workers(1));
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(BUFFER),
        queue.clone(),
    );
    let a = PluggedSink::new();
    let b = PluggedSink::new();
    room.join("a", Arc::clone(&a) as Arc<dyn RoomSink>, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !a.entered.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "a's drain never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The only worker is wedged in a's drain, so b's drain waits in the
    // queue: a's backlog holds b's presence delta, b's its join snapshot.
    // The backlogs grow in step and overflow in the same publishes.
    room.join("b", Arc::clone(&b) as Arc<dyn RoomSink>, 0);
    for i in 0..40 {
        room.publish("a", format!("k{}", i % 7), Value::I64(i))
            .unwrap();
    }
    let coalesced = room.stats().coalesced_snapshots;
    assert!(
        coalesced >= 2 && coalesced.is_multiple_of(2),
        "coalesced {coalesced}"
    );
    a.plugged.store(false, Ordering::SeqCst);
    b.plugged.store(false, Ordering::SeqCst);
    while a.replica.last_seq() < room.seq() || b.replica.last_seq() < room.seq() {
        assert!(Instant::now() < deadline, "members did not converge");
        std::thread::sleep(Duration::from_millis(1));
    }
    let expected = room.state_json();
    for (who, m) in [("a", &a), ("b", &b)] {
        assert_eq!(m.replica.state_json(), expected, "{who}");
        assert_eq!(m.replica.gaps(), 0, "{who}");
    }
    // Both applied the same coalesced snapshot last: same seq, same state.
    let last = |m: &PluggedSink| m.snapshots.lock().unwrap().last().cloned();
    assert!(matches!(last(&a), Some(RoomUpdate::Snapshot { seq, .. }) if seq > 2));
    assert_eq!(last(&a), last(&b));
    queue.shutdown();
}
