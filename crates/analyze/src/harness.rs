//! Model-check harnesses for the concurrent cores of the serving path
//! — obs merge, flight ring, registry put/get, sweep pool, gate
//! publication, and the serve daemon's bounded admission queue — plus
//! seeded-bug fixtures that prove the explorer catches the bug classes
//! it exists for.
//!
//! Each harness is a plain `fn()` model closure run under
//! [`explore`](crate::explore::explore); every `assert!` inside holds
//! under **every** schedule within the preemption budget, or the
//! harness fails with a replayable interleaving.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::explore::{explore, ExploreOpts, Explored, ModelFailure};
use crate::shim::{self, AtomicBool, AtomicU64, Cell, Condvar, Mutex, Ordering};

/// One registered model-check harness.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// CLI-addressable name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// `true` for deliberately broken fixtures: a failure is the
    /// expected outcome and proves the explorer's teeth.
    pub seeded_bug: bool,
    /// The model closure.
    pub body: fn(),
}

impl Harness {
    /// Explores this harness's schedules under `opts`.
    pub fn run(&self, opts: &ExploreOpts) -> Result<Explored, ModelFailure> {
        explore(opts, self.body)
    }
}

/// Every harness, passing ones first.
#[must_use]
pub fn harnesses() -> &'static [Harness] {
    &[
        Harness {
            name: "obs-merge",
            about: "obs thread-local merge commutativity: counters sum, gauges max, histograms bucket-wise",
            seeded_bug: false,
            body: obs_merge,
        },
        Harness {
            name: "flight-ring",
            about: "flight-recorder bounded ring: dense unique sequence, suffix-window eviction, relaxed gate",
            seeded_bug: false,
            body: flight_ring,
        },
        Harness {
            name: "registry-put-same-key",
            about: "registry concurrent same-key puts + get: write-then-rename never exposes a torn artifact",
            seeded_bug: false,
            body: registry_put_same_key,
        },
        Harness {
            name: "registry-put-sibling-keys",
            about: "registry concurrent sibling-key puts + get: independent keys never interfere",
            seeded_bug: false,
            body: registry_put_sibling_keys,
        },
        Harness {
            name: "sweep-pool",
            about: "sweep worker pool: relaxed fetch_add claims each index once, reduction byte-identical",
            seeded_bug: false,
            body: sweep_pool,
        },
        Harness {
            name: "publish-acquire",
            about: "gate-publication pin: Release store + Acquire load orders the published payload",
            seeded_bug: false,
            body: publish_acquire,
        },
        Harness {
            name: "serve-queue",
            about: "serve admission queue: bounded MPMC wait/notify with drain flag read under the sleeper's lock",
            seeded_bug: false,
            body: serve_queue,
        },
        Harness {
            name: "obs-merge-broken",
            about: "seeded bug: gauge merge as last-write-wins instead of max (order-dependent result)",
            seeded_bug: true,
            body: obs_merge_broken,
        },
        Harness {
            name: "registry-put-shared-tmp",
            about: "seeded bug: same-key writers sharing one tmp path (the pre-fix registry protocol)",
            seeded_bug: true,
            body: registry_put_shared_tmp,
        },
        Harness {
            name: "publish-relaxed",
            about: "seeded bug: Relaxed gate load guarding plain published data (caught as a data race)",
            seeded_bug: true,
            body: publish_relaxed,
        },
        Harness {
            name: "serve-queue-lost-wakeup",
            about: "seeded bug: consumer unlocks then parks as two steps — a drain notify in the gap is lost (deadlock)",
            seeded_bug: true,
            body: serve_queue_lost_wakeup,
        },
    ]
}

/// Looks a harness up by CLI name.
#[must_use]
pub fn find_harness(name: &str) -> Option<&'static Harness> {
    harnesses().iter().find(|h| h.name == name)
}

// ---------------------------------------------------------------------
// 1. obs thread-local merge commutativity
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Agg {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hist: BTreeMap<&'static str, [u64; 2]>,
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Counter(&'static str, u64),
    Gauge(&'static str, u64),
    Hist(&'static str, usize),
}

fn merge(agg: &mut Agg, e: Entry, gauge_max: bool) {
    match e {
        Entry::Counter(k, v) => *agg.counters.entry(k).or_insert(0) += v,
        Entry::Gauge(k, v) => {
            let slot = agg.gauges.entry(k).or_insert(0);
            if gauge_max {
                *slot = (*slot).max(v);
            } else {
                // The seeded bug: last write wins, so the final value
                // depends on flush order.
                *slot = v;
            }
        }
        Entry::Hist(k, bucket) => agg.hist.entry(k).or_insert([0, 0])[bucket] += 1,
    }
}

/// The model mirrors `paraconv-obs`: each worker owns a thread-local
/// buffer and flushes entry-by-entry under the global mutex; the
/// merged aggregate must equal the sequential expectation no matter
/// how flushes interleave.
fn obs_merge_model(gauge_max: bool) {
    const THREAD_ENTRIES: [&[Entry]; 2] = [
        &[
            Entry::Counter("tasks", 2),
            Entry::Gauge("peak", 5),
            Entry::Hist("lat", 0),
        ],
        &[
            Entry::Counter("tasks", 3),
            Entry::Gauge("peak", 3),
            Entry::Hist("lat", 1),
        ],
    ];
    let global = Arc::new(Mutex::new("obs.global", Agg::default()));
    let workers: Vec<shim::JoinHandle> = THREAD_ENTRIES
        .iter()
        .map(|entries| {
            let global = Arc::clone(&global);
            let entries = *entries;
            shim::spawn(move || {
                for &e in entries {
                    let mut g = global.lock();
                    merge(&mut g, e, gauge_max);
                }
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    let mut expected = Agg::default();
    for entries in THREAD_ENTRIES {
        for &e in entries {
            merge(&mut expected, e, true);
        }
    }
    let got = global.lock();
    assert_eq!(
        *got, expected,
        "merged aggregate differs from the sequential expectation"
    );
}

fn obs_merge() {
    obs_merge_model(true);
}

fn obs_merge_broken() {
    obs_merge_model(false);
}

// ---------------------------------------------------------------------
// 2. flight-recorder bounded ring
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Ring {
    next_seq: u64,
    cap: usize,
    events: Vec<u64>,
}

/// Mirrors `paraconv_obs::flight`: a Relaxed `AtomicBool` gate, the
/// ring mutated only under its mutex, `enable` clearing and storing
/// the gate while still holding the lock. Recorded events must carry
/// a dense unique sequence and the ring must hold exactly the
/// latest-`cap` suffix — no lost or duplicated events.
fn flight_ring() {
    let gate = Arc::new(AtomicBool::new("flight.active", false));
    let ring = Arc::new(Mutex::new(
        "flight.ring",
        Ring {
            next_seq: 0,
            cap: 2,
            events: Vec::new(),
        },
    ));
    let recorders: Vec<shim::JoinHandle> = (0..2)
        .map(|_| {
            let gate = Arc::clone(&gate);
            let ring = Arc::clone(&ring);
            shim::spawn(move || {
                for _ in 0..2 {
                    if gate.load(Ordering::Relaxed) {
                        let mut r = ring.lock();
                        let seq = r.next_seq;
                        r.next_seq += 1;
                        r.events.push(seq);
                        while r.events.len() > r.cap {
                            r.events.remove(0);
                        }
                    }
                }
            })
        })
        .collect();
    {
        // flight_enable: reset under the lock, then open the gate while
        // still holding it.
        let mut r = ring.lock();
        r.events.clear();
        r.next_seq = 0;
        gate.store(true, Ordering::Relaxed);
    }
    for rec in recorders {
        rec.join();
    }
    let r = ring.lock();
    let n = r.next_seq;
    assert!(r.events.len() <= r.cap, "ring exceeded its capacity");
    let expected: Vec<u64> = (n.saturating_sub(r.events.len() as u64)..n).collect();
    assert_eq!(
        r.events, expected,
        "ring is not the dense suffix of the assigned sequence numbers"
    );
}

// ---------------------------------------------------------------------
// 3. registry concurrent put/get over a model filesystem
// ---------------------------------------------------------------------

/// POSIX-flavoured model filesystem: truncating create, positional
/// writes through per-handle offsets (zero-filling over truncation,
/// like a real sparse write), atomic rename, whole-file read. Every
/// call is one critical section under the model mutex — the atomicity
/// real syscalls give — with schedule points between calls.
#[derive(Debug, Default)]
struct ModelFs {
    names: BTreeMap<String, usize>,
    inodes: Vec<Vec<u8>>,
}

#[derive(Debug, Clone, Copy)]
struct FileHandle {
    ino: usize,
    off: usize,
}

impl ModelFs {
    fn create(&mut self, path: &str) -> FileHandle {
        if let Some(&ino) = self.names.get(path) {
            self.inodes[ino].clear();
            return FileHandle { ino, off: 0 };
        }
        let ino = self.inodes.len();
        self.inodes.push(Vec::new());
        self.names.insert(path.to_string(), ino);
        FileHandle { ino, off: 0 }
    }

    fn write(&mut self, h: &mut FileHandle, bytes: &[u8]) {
        let file = &mut self.inodes[h.ino];
        if file.len() < h.off {
            // Another handle truncated the inode under us: writing at
            // our stale offset zero-fills the gap, exactly like POSIX.
            file.resize(h.off, 0);
        }
        for (i, &b) in bytes.iter().enumerate() {
            if h.off + i < file.len() {
                file[h.off + i] = b;
            } else {
                file.push(b);
            }
        }
        h.off += bytes.len();
    }

    fn rename(&mut self, from: &str, to: &str) -> bool {
        match self.names.remove(from) {
            Some(ino) => {
                self.names.insert(to.to_string(), ino);
                true
            }
            None => false,
        }
    }

    fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.names.get(path).map(|&ino| self.inodes[ino].clone())
    }
}

const PAYLOAD_A: &[u8] = b"artifact-alpha";
const PAYLOAD_B: &[u8] = b"artifact-bravo";

fn put(fs: &Mutex<ModelFs>, tmp: &str, dst: &str, payload: &[u8]) {
    let mid = payload.len() / 2;
    let mut h = fs.lock().create(tmp);
    fs.lock().write(&mut h, &payload[..mid]);
    fs.lock().write(&mut h, &payload[mid..]);
    let renamed = fs.lock().rename(tmp, dst);
    assert!(renamed, "tmp file vanished before rename: {tmp}");
}

fn getter_check(fs: &Mutex<ModelFs>, path: &str, valid: &[&[u8]]) {
    let got = fs.lock().read(path);
    match got {
        None => {}
        Some(bytes) => assert!(
            valid.iter().any(|v| bytes == *v),
            "torn artifact visible at {path}: {bytes:?}"
        ),
    }
}

fn registry_model(tmp_a: &'static str, tmp_b: &'static str) {
    let fs = Arc::new(Mutex::new("registry.fs", ModelFs::default()));
    let p1 = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || put(&fs, tmp_a, "objects/aa/obj", PAYLOAD_A))
    };
    let p2 = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || put(&fs, tmp_b, "objects/aa/obj", PAYLOAD_B))
    };
    let g = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || getter_check(&fs, "objects/aa/obj", &[PAYLOAD_A, PAYLOAD_B]))
    };
    p1.join();
    p2.join();
    g.join();
    let final_bytes = fs.lock().read("objects/aa/obj");
    assert!(
        final_bytes.as_deref() == Some(PAYLOAD_A) || final_bytes.as_deref() == Some(PAYLOAD_B),
        "final artifact is not one writer's bytes: {final_bytes:?}"
    );
}

/// The fixed protocol: every put owns a unique tmp path, so a
/// concurrent reader sees nothing or one writer's complete bytes.
fn registry_put_same_key() {
    registry_model("objects/aa/.tmp-1", "objects/aa/.tmp-2");
}

/// The pre-fix protocol: both writers share one tmp path. The explorer
/// finds the truncation interleaving that renames a torn artifact into
/// place (or loses the tmp file for the slower writer).
fn registry_put_shared_tmp() {
    registry_model("objects/aa/.tmp-shared", "objects/aa/.tmp-shared");
}

/// Sibling keys under concurrent writers must never interact at all.
fn registry_put_sibling_keys() {
    let fs = Arc::new(Mutex::new("registry.fs", ModelFs::default()));
    let p1 = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || put(&fs, "objects/aa/.tmp-1", "objects/aa/obj1", PAYLOAD_A))
    };
    let p2 = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || put(&fs, "objects/ab/.tmp-2", "objects/ab/obj2", PAYLOAD_B))
    };
    let g = {
        let fs = Arc::clone(&fs);
        shim::spawn(move || getter_check(&fs, "objects/aa/obj1", &[PAYLOAD_A]))
    };
    p1.join();
    p2.join();
    g.join();
    let fs_guard = fs.lock();
    assert_eq!(fs_guard.read("objects/aa/obj1").as_deref(), Some(PAYLOAD_A));
    assert_eq!(fs_guard.read("objects/ab/obj2").as_deref(), Some(PAYLOAD_B));
}

// ---------------------------------------------------------------------
// 4. sweep worker pool work distribution
// ---------------------------------------------------------------------

/// Mirrors `paraconv::sweep::parallel_map`: workers claim indices with
/// a Relaxed `fetch_add` and write disjoint result slots; the parent
/// reduces in index order after joining. The claim must hand out each
/// index exactly once and the reduction must be byte-identical at any
/// schedule — and the vector-clock checker proves the join edge is
/// what makes the parent's reads race-free.
fn sweep_pool() {
    const ITEMS: u64 = 4;
    let cursor = Arc::new(AtomicU64::new("sweep.cursor", 0));
    let slots: Arc<Vec<Cell>> = Arc::new(
        (0..ITEMS)
            .map(|i| Cell::new(&format!("sweep.slot{i}"), 0))
            .collect(),
    );
    let workers: Vec<shim::JoinHandle> = (0..2)
        .map(|_| {
            let cursor = Arc::clone(&cursor);
            let slots = Arc::clone(&slots);
            shim::spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= ITEMS {
                    break;
                }
                slots[i as usize].set((i + 1) * 10);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    let reduced: Vec<u64> = slots.iter().map(Cell::get).collect();
    assert_eq!(
        reduced,
        vec![10, 20, 30, 40],
        "reduction is schedule-dependent"
    );
}

// ---------------------------------------------------------------------
// 5. gate-publication ordering pin
// ---------------------------------------------------------------------

/// The ordering rule the `atomic-ordering` lint enforces, as a model:
/// plain data published through an atomic gate needs Release on the
/// store *and* Acquire on the load. The obs/fault/flight gates get to
/// stay fully Relaxed only because their data lives behind a mutex —
/// which harnesses 1 and 2 model directly.
fn publish_model(load_order: Ordering) {
    let flag = Arc::new(AtomicBool::new("ready", false));
    let data = Arc::new(Cell::new("payload", 0));
    let writer = {
        let flag = Arc::clone(&flag);
        let data = Arc::clone(&data);
        shim::spawn(move || {
            data.set(42);
            flag.store(true, Ordering::Release);
        })
    };
    if flag.load(load_order) {
        assert_eq!(data.get(), 42, "gate observed before the payload");
    }
    writer.join();
}

fn publish_acquire() {
    publish_model(Ordering::Acquire);
}

fn publish_relaxed() {
    publish_model(Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// 6. serve admission queue wait/notify protocol
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ModelQueue {
    items: Vec<u64>,
    draining: bool,
}

/// One consumer's blocking pop, mirroring `BoundedQueue::pop`: check
/// for an item, then the drain flag, **under the same lock the wait
/// releases**; sleep otherwise. `detached` swaps the atomic
/// release-and-wait for the seeded two-step unlock-then-park.
fn model_pop(queue: &Mutex<ModelQueue>, available: &Condvar, detached: bool) -> Option<u64> {
    let mut q = queue.lock();
    loop {
        if !q.items.is_empty() {
            return Some(q.items.remove(0));
        }
        if q.draining {
            return None;
        }
        q = if detached {
            available.wait_detached(q)
        } else {
            available.wait(q)
        };
    }
}

/// Mirrors the serve daemon's `BoundedQueue` protocol: producers push
/// under the lock and `notify_one` after releasing it, `drain` sets
/// the flag and `notify_all`s, consumers loop in [`model_pop`]. Under
/// every schedule, each admitted item is consumed exactly once and
/// every consumer exits after drain — no lost wakeups, no lost items,
/// no consumer left parked.
fn serve_queue_model(detached: bool) {
    let queue = Arc::new(Mutex::new(
        "serve.queue",
        ModelQueue {
            items: Vec::new(),
            draining: false,
        },
    ));
    let available = Arc::new(Condvar::new("serve.available"));
    let popped = Arc::new(Mutex::new("serve.popped", Vec::<u64>::new()));
    let consumers: Vec<shim::JoinHandle> = (0..2)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let available = Arc::clone(&available);
            let popped = Arc::clone(&popped);
            shim::spawn(move || {
                while let Some(item) = model_pop(&queue, &available, detached) {
                    popped.lock().push(item);
                }
            })
        })
        .collect();
    // The root thread is the producer: admit two items, then drain.
    for item in [1u64, 2] {
        // lint: allow(lock-order) — each guard is a temporary dropped at the end of its statement; no two are ever held at once
        queue.lock().items.push(item);
        available.notify_one();
    }
    {
        // lint: allow(lock-order) — each guard is a temporary dropped at the end of its statement; no two are ever held at once
        queue.lock().draining = true;
        available.notify_all();
    }
    for c in consumers {
        c.join();
    }
    // lint: allow(lock-order) — each guard is a temporary dropped at the end of its statement; no two are ever held at once
    let mut got = popped.lock().clone();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![1, 2],
        "admitted items must be consumed exactly once"
    );
    // lint: allow(lock-order) — each guard is a temporary dropped at the end of its statement; no two are ever held at once
    let q = queue.lock();
    assert!(q.items.is_empty(), "drain abandoned admitted work");
}

fn serve_queue() {
    serve_queue_model(false);
}

fn serve_queue_lost_wakeup() {
    serve_queue_model(true);
}
