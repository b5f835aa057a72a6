//! A hand-rolled, offline-safe `ArcSwap`-style cell: lock-free `Arc`
//! loads, mutex-serialized stores.
//!
//! The registry's bare-name predict hot path needs to resolve
//! `name → latest artifact` without ever touching a lock: under many small
//! concurrent requests, even an uncontended `RwLock` read acquisition
//! bounces a futex word between cores, and a single training request
//! taking the write lock would stall every predict behind it. No external
//! crates are available offline, so this is the classic **double-slot
//! refcounted swap**:
//!
//! - Two slots each hold an `Option<Arc<T>>` plus a reader count; an
//!   `active` index says which slot is current.
//! - **Readers** (`load`) increment the active slot's reader count, then
//!   re-check that the slot is *still* active. If yes, the slot's value
//!   cannot be rewritten while their count is held (writers drain the
//!   count first), so cloning the `Arc` is safe. If the active index moved
//!   underneath them, they back out and retry — at most once per
//!   concurrent store, so the path is lock-free: a reader is only ever
//!   delayed by actual writes, never by other readers.
//! - **Writers** (`store`) serialize on a mutex (stores are rare: one per
//!   train/demote), write the *inactive* slot after waiting for straggler
//!   readers to drain from it, then flip `active`. The value a reader
//!   holds is never freed out from under it — the old slot is only reused
//!   two stores later, after its reader count drained.
//!
//! Orderings are deliberately all `SeqCst`: the cell swaps once per model
//! registration, and the read side's two RMWs dominate either way; being
//! obviously correct beats shaving nanoseconds off `Acquire`/`Release`
//! reasoning here.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct Slot<T> {
    readers: AtomicUsize,
    value: UnsafeCell<Option<Arc<T>>>,
}

impl<T> Slot<T> {
    fn new(value: Option<Arc<T>>) -> Self {
        Slot {
            readers: AtomicUsize::new(0),
            value: UnsafeCell::new(value),
        }
    }
}

/// A cell holding an `Option<Arc<T>>` with lock-free reads (see module
/// docs).
pub struct ArcSwapCell<T> {
    slots: [Slot<T>; 2],
    active: AtomicUsize,
    write: Mutex<()>,
}

// SAFETY: T behind Arc is shared across threads on load (needs Send+Sync);
// the interior UnsafeCell is only written by the mutex-holding writer after
// draining readers, and only read by readers pinning the slot.
unsafe impl<T: Send + Sync> Send for ArcSwapCell<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send + Sync> Sync for ArcSwapCell<T> {}

impl<T> ArcSwapCell<T> {
    /// A cell holding `value`.
    pub fn new(value: Option<Arc<T>>) -> Self {
        ArcSwapCell {
            slots: [Slot::new(value), Slot::new(None)],
            active: AtomicUsize::new(0),
            write: Mutex::new(()),
        }
    }

    /// Clones the current value without taking any lock. Retries only when
    /// a concurrent `store` flips the active slot mid-read.
    pub fn load(&self) -> Option<Arc<T>> {
        loop {
            let i = self.active.load(Ordering::SeqCst);
            let slot = &self.slots[i];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) == i {
                // SAFETY: the slot is pinned. A writer targeting this slot
                // waits for our count to drain before touching the value,
                // and the value it *last* wrote here happens-before the
                // flip we observed.
                let v = unsafe { (*slot.value.get()).clone() };
                slot.readers.fetch_sub(1, Ordering::SeqCst);
                return v;
            }
            // The slot was retired between our index read and our pin; the
            // writer may be about to reuse it. Back out and reread.
            slot.readers.fetch_sub(1, Ordering::SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publishes a new value. Serialized against other stores; readers are
    /// never blocked (stragglers still reading the slot being reused are
    /// waited out before it is overwritten).
    pub fn store(&self, value: Option<Arc<T>>) {
        let _writer = self.write.lock().expect("ArcSwapCell writer poisoned");
        let cur = self.active.load(Ordering::SeqCst);
        let next = 1 - cur;
        // Readers of `next` are stragglers from before the previous flip;
        // each is at most one recheck away from backing out.
        while self.slots[next].readers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: we hold the writer mutex, the slot is inactive, and no
        // reader pins it (checked above; new readers re-check `active`
        // after pinning and back out of an inactive slot).
        unsafe {
            *self.slots[next].value.get() = value;
        }
        self.active.store(next, Ordering::SeqCst);
    }
}

impl<T> std::fmt::Debug for ArcSwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcSwapCell")
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let cell: ArcSwapCell<u64> = ArcSwapCell::new(None);
        assert!(cell.load().is_none());
        cell.store(Some(Arc::new(7)));
        assert_eq!(*cell.load().unwrap(), 7);
        cell.store(Some(Arc::new(8)));
        assert_eq!(*cell.load().unwrap(), 8);
        cell.store(None);
        assert!(cell.load().is_none());
    }

    #[test]
    fn old_values_survive_while_held() {
        let cell = ArcSwapCell::new(Some(Arc::new(vec![1u8; 64])));
        let held = cell.load().unwrap();
        // Two stores reuse both slots; the held Arc must stay valid.
        cell.store(Some(Arc::new(vec![2u8; 64])));
        cell.store(Some(Arc::new(vec![3u8; 64])));
        assert_eq!(held[0], 1);
        assert_eq!(cell.load().unwrap()[0], 3);
    }

    /// Readers hammer `load` while a writer publishes a monotonically
    /// increasing sequence: every observed value must be valid, and each
    /// reader's observations must be monotone (a flip never resurfaces an
    /// older value).
    #[test]
    fn contended_loads_are_monotone_and_never_tear() {
        let cell = Arc::new(ArcSwapCell::new(Some(Arc::new(0u64))));
        let writer_done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let writer_done = Arc::clone(&writer_done);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while writer_done.load(Ordering::Relaxed) == 0 {
                        let v = *cell.load().expect("value always present");
                        assert!(v >= last, "went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            scope.spawn(move || {
                for v in 1..=2000u64 {
                    cell.store(Some(Arc::new(v)));
                }
                writer_done.store(1, Ordering::Relaxed);
            });
        });
    }
}
