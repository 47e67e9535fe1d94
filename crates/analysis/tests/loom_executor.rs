//! Model check of the mini-tokio executor's timer-wake/lock protocol
//! (vendor/tokio/src/runtime.rs).
//!
//! The protocol under test: `TimerQueue` entries live in a
//! `BTreeMap` behind a `Mutex`. Registering a timer can *displace* a
//! previously registered waker at the same key, and canceling removes
//! one. The subtlety fixed in PR 1 is that **dropping a waker can
//! re-enter the timers mutex**: a waker keeps its task alive, the task
//! owns its future, and the future may own a `Sleep` whose `Drop` runs
//! `cancel_timer` — which locks the same mutex. Any drop of a displaced
//! or removed waker while the timers lock is held is therefore a
//! self-deadlock.
//!
//! The model parameterizes the drop placement (`defer_displaced_drop`):
//! with the PR 1 fix (drop after release) every interleaving passes;
//! with the fix reverted (drop under the lock) the checker finds the
//! re-entrant deadlock. This is the guarded regression demanded by the
//! issue: the buggy protocol must *keep failing* in the model, so the
//! model itself stays honest.
//!
//! The second protocol is the run queue's wake-up handshake. A worker
//! that finds the queue empty bumps an idle counter and blocks on the
//! `work_available` condvar; an enqueuer pushes its task and notifies
//! only when the counter is non-zero. Both sides touch the counter
//! under the run-queue mutex, and the condvar wait releases that mutex
//! atomically, so a task enqueued while the last worker goes idle is
//! always seen: either the worker finds it before sleeping, or the
//! enqueuer finds the worker asleep and wakes it. The reverted variant
//! reads the counter before taking the lock, and the checker finds the
//! interleaving that strands the task.

use cedar_analysis::sched::{self, AtomicUsize, Builder, Failure, Mutex};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

struct Timers {
    entries: Mutex<BTreeMap<u64, Entry>>,
}

/// A registered waker. Dropping it drops the task's future, which may
/// own a `Sleep` for *another* timer — the re-entrant path.
struct Entry {
    _owned_sleep: Option<Sleep>,
}

/// Models `tokio::time::Sleep`: its Drop cancels its own timer.
struct Sleep {
    key: u64,
    timers: Weak<Timers>,
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(t) = self.timers.upgrade() {
            // cancel_timer: remove under the lock, drop the removed
            // entry only after the guard is released (itself the PR 1
            // discipline — the removed entry may own further Sleeps).
            let removed = {
                let mut g = t.entries.lock();
                g.remove(&self.key)
            };
            drop(removed);
        }
    }
}

fn register_timer(t: &Arc<Timers>, key: u64, entry: Entry, defer_displaced_drop: bool) {
    let mut g = t.entries.lock();
    let displaced = g.insert(key, entry);
    if defer_displaced_drop {
        // PR 1 fix: release the timers lock before the displaced waker
        // (and anything it owns) is dropped.
        drop(g);
        drop(displaced);
    } else {
        // Reverted-fix shape: the displaced waker drops while the lock
        // is held; if it owns a Sleep, Sleep::drop re-enters the mutex.
        drop(displaced);
        drop(g);
    }
}

/// Drains the queue without holding the lock across entry drops.
fn drain(t: &Arc<Timers>) {
    let drained = {
        let mut g = t.entries.lock();
        std::mem::take(&mut *g)
    };
    drop(drained);
}

/// The displacement scenario: a waker that owns a Sleep gets displaced
/// by a re-registration at the same deadline key.
fn displacement_model(defer: bool) {
    let timers = Arc::new(Timers {
        entries: Mutex::new(BTreeMap::new()),
    });
    register_timer(&timers, 2, Entry { _owned_sleep: None }, defer);
    let sleep2 = Sleep {
        key: 2,
        timers: Arc::downgrade(&timers),
    };
    register_timer(
        &timers,
        1,
        Entry {
            _owned_sleep: Some(sleep2),
        },
        defer,
    );
    // Re-registration at key 1 displaces the waker owning sleep2;
    // sleep2's cancel path targets the same mutex.
    register_timer(&timers, 1, Entry { _owned_sleep: None }, defer);
    drain(&timers);
}

#[test]
fn reverted_fix_deadlocks_in_the_model() {
    let s = Builder::new().explore(|| displacement_model(false));
    match s.failure {
        Some(Failure::Deadlock { ref detail }) => {
            assert!(
                detail.contains("re-entered"),
                "must be the re-entrant shape: {detail}"
            );
        }
        other => panic!(
            "reverted fix must deadlock, got {other:?} after {} runs",
            s.runs
        ),
    }
}

#[test]
fn current_protocol_passes_all_interleavings() {
    let s = Builder::new().explore(|| displacement_model(true));
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated);
}

#[test]
fn concurrent_register_and_cancel_stay_deadlock_free() {
    // Two threads racing the protocol with the fix in place: one
    // re-registers (displacing a Sleep-owning waker), the other cancels
    // a different timer. Every interleaving must terminate.
    let s = Builder::new()
        .max_runs(50_000)
        .preemption_bound(3)
        .explore(|| {
            let timers = Arc::new(Timers {
                entries: Mutex::new(BTreeMap::new()),
            });
            register_timer(&timers, 2, Entry { _owned_sleep: None }, true);
            let sleep2 = Sleep {
                key: 2,
                timers: Arc::downgrade(&timers),
            };
            register_timer(
                &timers,
                1,
                Entry {
                    _owned_sleep: Some(sleep2),
                },
                true,
            );
            let t2 = Arc::clone(&timers);
            let canceler = sched::spawn(move || {
                // An independent Sleep canceling its own (absent) timer
                // races the displacement on the same mutex.
                let s3 = Sleep {
                    key: 3,
                    timers: Arc::downgrade(&t2),
                };
                drop(s3);
                register_timer(&t2, 3, Entry { _owned_sleep: None }, true);
            });
            register_timer(&timers, 1, Entry { _owned_sleep: None }, true);
            canceler.join();
            drain(&timers);
        });
    assert!(s.failure.is_none(), "{:?}", s.failure);
}

/// Stand-in for the multi-thread run queue: the number of queued tasks
/// behind the queue mutex, the idle-worker counter, and the condvar's
/// wait set. `idle` is a model atomic only so the reverted variant can
/// read it without the lock; the production discipline changes and
/// reads it under `queue` alone.
struct RunQueue {
    queue: Mutex<usize>,
    idle: AtomicUsize,
    wait_set: Mutex<WaitSet>,
}

/// `work_available`'s waiters: parked and not yet notified, or
/// notified and due to re-take the queue lock.
#[derive(Default)]
struct WaitSet {
    parked: usize,
    woken: usize,
}

/// One scheduling turn of `worker_loop`: run a queued task, or go idle
/// and block on the condvar.
fn worker_turn(rq: &RunQueue) {
    let mut queue = rq.queue.lock();
    if *queue > 0 {
        *queue -= 1;
        return;
    }
    rq.idle.fetch_add(1);
    // Condvar::wait joins the wait set and releases the queue lock in
    // one step: no notify can fall between the two.
    rq.wait_set.lock().parked += 1;
    drop(queue);
}

/// `Shared::enqueue`: push, then notify one worker if any is idle.
fn enqueue(rq: &RunQueue, idle_under_lock: bool) {
    // Reverted shape: the counter is read before the push, outside
    // the queue lock.
    let stale = (!idle_under_lock).then(|| rq.idle.load());
    let mut queue = rq.queue.lock();
    *queue += 1;
    let idle = stale.unwrap_or_else(|| rq.idle.load());
    drop(queue);
    if idle > 0 {
        // Condvar::notify_one: wakes a parked waiter, or nobody.
        let mut waiters = rq.wait_set.lock();
        if waiters.parked > 0 {
            waiters.parked -= 1;
            waiters.woken += 1;
        }
    }
}

/// The last busy worker takes its turn while a foreign thread enqueues
/// one task. Afterwards a woken worker re-takes the lock and drains the
/// queue; a task left behind with no worker awake is stranded (in
/// production, until the 100 ms wait timeout — the fallback this
/// handshake must not depend on).
fn wake_up_model(idle_under_lock: bool) {
    let rq = Arc::new(RunQueue {
        queue: Mutex::new(0),
        idle: AtomicUsize::new(0),
        wait_set: Mutex::new(WaitSet::default()),
    });
    let rq2 = Arc::clone(&rq);
    let worker = sched::spawn(move || worker_turn(&rq2));
    // The model's main thread is the foreign enqueuer.
    enqueue(&rq, idle_under_lock);
    worker.join();
    let woken = rq.wait_set.lock().woken;
    let mut queue = rq.queue.lock();
    for _ in 0..woken {
        rq.idle.store(rq.idle.load() - 1);
        *queue = 0;
    }
    assert_eq!(
        *queue, 0,
        "task stranded: enqueued with every worker asleep"
    );
}

#[test]
fn task_enqueued_as_the_last_worker_goes_idle_always_runs() {
    let s = Builder::new().explore(|| wake_up_model(true));
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated, "explored only {} runs", s.runs);
}

#[test]
fn reverted_idle_read_strands_a_task_in_the_model() {
    let s = Builder::new().explore(|| wake_up_model(false));
    match s.failure {
        Some(Failure::Panic { ref message }) => {
            assert!(message.contains("stranded"), "{message}");
        }
        other => panic!(
            "reading the idle counter outside the lock must strand a task, got {other:?} after {} runs",
            s.runs
        ),
    }
}
