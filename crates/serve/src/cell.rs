//! The epoch-based snapshot swap: readers never block, writers publish
//! atomically.
//!
//! [`SnapshotCell`] holds the currently-served [`ConsistentSnapshot`] behind
//! a small ring of epoch-stamped slots. The read path
//! ([`load`](SnapshotCell::load)) is wait-free in practice: it loads the
//! epoch counter, `try_read`s the matching slot (never a blocking lock
//! acquisition), and pins the published `Arc`. The only way a `try_read`
//! can fail is a writer holding that exact slot — which requires the
//! reader's epoch load to be a full ring-lap ([`SLOTS`] publishes) stale —
//! and the retry then picks up the fresh epoch and a different slot. A
//! pinned snapshot stays valid for as long as the caller holds it, however
//! many publishes happen meanwhile: publication swaps the served `Arc`, it
//! never mutates a snapshot in place.
//!
//! The write path ([`publish`](SnapshotCell::publish)) is the one that may
//! wait: writers serialize on a mutex, write-lock the *next* slot (stalling
//! only on readers a whole lap behind), store the new snapshot, and bump
//! the epoch counter with `Release` ordering so any reader that observes
//! the new epoch also observes the fully-written slot. Readers therefore
//! see a complete snapshot — the old one or the new one, never a torn mix —
//! which `crates/bench/src/bin/serve_load.rs --verify` and the
//! `hc_threads` subprocess stress test pin across `HC_THREADS` ∈ {1, 2, 4}.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use hc_core::ConsistentSnapshot;

/// Ring width. A reader only ever contends with a writer after the ring has
/// been lapped — `SLOTS` publishes between its epoch load and its slot read
/// — so even a handful of slots makes reader retries vanishingly rare while
/// keeping the cell a few pointers wide.
const SLOTS: usize = 4;

/// One published slot: the epoch it was published at, and the snapshot.
type Slot = Option<(usize, Arc<ConsistentSnapshot>)>;

/// An epoch-swapped, reader-never-blocks cell holding the currently-served
/// snapshot of one tenant.
///
/// ```
/// use hc_core::ConsistentSnapshot;
/// use hc_serve::SnapshotCell;
///
/// let cell = SnapshotCell::new(ConsistentSnapshot::from_leaves(&[1.0, 2.0], 2));
/// let pinned = cell.load(); // wait-free read path
/// assert_eq!(pinned.epoch(), 0);
/// assert_eq!(pinned.total(), 3.0);
/// cell.publish(ConsistentSnapshot::from_leaves(&[5.0, 5.0], 2));
/// assert_eq!(pinned.total(), 3.0); // the pin still serves its epoch
/// assert_eq!(cell.load().total(), 10.0); // fresh loads serve the new one
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    /// The current epoch; `epoch % SLOTS` names the served slot.
    epoch: AtomicUsize,
    /// Epoch-stamped publication ring.
    slots: [RwLock<Slot>; SLOTS],
    /// Serializes publishers (the epoch bump must pair with its slot write).
    writer: Mutex<()>,
}

impl SnapshotCell {
    /// A cell serving `initial` at epoch 0.
    pub fn new(initial: ConsistentSnapshot) -> Self {
        let cell = Self {
            epoch: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| RwLock::new(None)),
            writer: Mutex::new(()),
        };
        *cell.slots[0].write().expect("fresh lock never poisoned") = Some((0, Arc::new(initial)));
        cell
    }

    /// The epoch of the currently-served snapshot: 0 for the initial
    /// snapshot, incremented by one per [`Self::publish`].
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the currently-served snapshot. Never blocks: the slot read is a
    /// `try_read`, and the only contention that can make it fail (a writer
    /// lapping the whole ring between the epoch load and the slot read)
    /// also guarantees the retry's fresh epoch points at a different slot.
    pub fn load(&self) -> PinnedSnapshot {
        loop {
            let observed = self.epoch.load(Ordering::Acquire);
            if let Ok(slot) = self.slots[observed % SLOTS].try_read() {
                if let Some((epoch, snapshot)) = slot.as_ref() {
                    // The slot may have been republished since the epoch
                    // load (a lap); either way it holds a *complete*
                    // published snapshot stamped with its own epoch.
                    return PinnedSnapshot {
                        epoch: *epoch,
                        snapshot: Arc::clone(snapshot),
                    };
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Publishes a new snapshot, returning its epoch. Publishers serialize
    /// on an internal mutex and may wait for readers a full ring-lap
    /// behind; readers never wait for a publisher. The epoch store uses
    /// `Release` ordering, so a reader observing the new epoch observes the
    /// fully-written slot.
    pub fn publish(&self, snapshot: ConsistentSnapshot) -> usize {
        let _writer = self.writer.lock().expect("publish mutex never poisoned");
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        {
            let mut slot = self.slots[next % SLOTS]
                .write()
                .expect("slot lock never poisoned");
            *slot = Some((next, Arc::new(snapshot)));
        }
        self.epoch.store(next, Ordering::Release);
        next
    }
}

/// A sharded bank of [`SnapshotCell`]s serving the *same* tenant: one cell
/// per shard, each holding its own `Arc` of the published snapshot, so
/// concurrent readers spread across shards instead of all hitting one
/// cell's epoch counter and slot ring. The shard count is fixed at
/// construction (the service sizes it through `effective_threads`).
///
/// Readers [`pin`](SnapshotShards::pin) a shard-local snapshot wait-free —
/// a round-robin cursor picks the shard, then the pin is a
/// [`SnapshotCell::load`]. Writers [`broadcast`](SnapshotShards::broadcast)
/// to every shard; shard 0 is published **last**, so once
/// [`epoch`](SnapshotShards::epoch) (shard 0's epoch) reports the new
/// value, every shard serves it. While a broadcast is half done, a shard
/// can be one epoch ahead of shard 0; `pin` never serves such a shard's
/// newer epoch before shard 0 has it, so successive pins by one reader
/// never go backwards. Every pin is a complete published snapshot (the
/// per-cell torn-read guarantee is unchanged), and a batch answered from
/// one pin stays single-epoch.
///
/// ```
/// use hc_core::ConsistentSnapshot;
/// use hc_serve::SnapshotShards;
///
/// let shards = SnapshotShards::new(ConsistentSnapshot::from_leaves(&[1.0, 2.0], 2), 4);
/// assert_eq!(shards.shard_count(), 4);
/// let epoch = shards.broadcast(ConsistentSnapshot::from_leaves(&[5.0, 5.0], 2));
/// assert_eq!(epoch, 1);
/// assert_eq!(shards.pin().total(), 10.0); // wait-free, shard-local
/// ```
#[derive(Debug)]
pub struct SnapshotShards {
    cells: Vec<SnapshotCell>,
    /// Round-robin reader cursor; wraps via modulo, `Relaxed` is enough —
    /// it only balances load, it carries no synchronization.
    cursor: AtomicUsize,
}

impl SnapshotShards {
    /// A bank of `shards.max(1)` cells, every shard serving `initial` at
    /// epoch 0. The last shard takes ownership of `initial`; the rest hold
    /// clones.
    pub fn new(initial: ConsistentSnapshot, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut cells = Vec::with_capacity(shards);
        for _ in 0..shards - 1 {
            cells.push(SnapshotCell::new(initial.clone()));
        }
        cells.push(SnapshotCell::new(initial));
        Self {
            cells,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The number of shards (≥ 1, fixed at construction).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The bank's epoch: shard 0's, published last by
    /// [`Self::broadcast`] — when this reports `e`, every shard serves
    /// epoch `e`.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.cells[0].epoch()
    }

    /// Pins the served snapshot from the next shard in round-robin order.
    /// Wait-free: cursor bump + [`SnapshotCell::load`] + one epoch load.
    ///
    /// A broadcast publishes shards 1.. before shard 0, so every shard's
    /// epoch is at least shard 0's at all times. If the chosen shard is
    /// *ahead* of shard 0 (a broadcast in flight), the pin serves shard 0
    /// instead. A pin is thus never older than shard 0's epoch when the
    /// call began and never newer than shard 0's latest publish, so one
    /// reader's successive pins never decrease, whichever shards the
    /// cursor hands it.
    pub fn pin(&self) -> PinnedSnapshot {
        let shard = self.cursor.fetch_add(1, Ordering::Relaxed) % self.cells.len();
        let pinned = self.cells[shard].load();
        if pinned.epoch() > self.cells[0].epoch() {
            return self.cells[0].load();
        }
        pinned
    }

    /// Pins the served snapshot from a specific shard (index taken modulo
    /// the shard count), for callers with their own placement scheme.
    pub fn pin_shard(&self, shard: usize) -> PinnedSnapshot {
        self.cells[shard % self.cells.len()].load()
    }

    /// Publishes `snapshot` to every shard and returns the new epoch.
    /// Shards 1.. receive clones first; shard 0 — the epoch authority —
    /// takes ownership and is published last.
    pub fn broadcast(&self, snapshot: ConsistentSnapshot) -> usize {
        for cell in &self.cells[1..] {
            cell.publish(snapshot.clone());
        }
        self.cells[0].publish(snapshot)
    }
}

/// A pinned, immutable view of one published snapshot: dereferences to
/// [`ConsistentSnapshot`], stays valid across any number of later
/// publishes, and carries the epoch it was published at.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot {
    epoch: usize,
    snapshot: Arc<ConsistentSnapshot>,
}

impl PinnedSnapshot {
    /// The epoch this snapshot was published at.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The pinned snapshot.
    #[inline]
    pub fn snapshot(&self) -> &ConsistentSnapshot {
        &self.snapshot
    }
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = ConsistentSnapshot;

    #[inline]
    fn deref(&self) -> &ConsistentSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_data::Interval;

    fn leaves(vals: &[f64]) -> ConsistentSnapshot {
        ConsistentSnapshot::from_leaves(vals, vals.len())
    }

    #[test]
    fn load_serves_the_latest_publish() {
        let cell = SnapshotCell::new(leaves(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.load().answer(Interval::new(0, 3)), 10.0);
        let e = cell.publish(leaves(&[4.0, 3.0, 2.0, 11.0]));
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.answer(Interval::new(2, 3)), 13.0);
    }

    #[test]
    fn pins_survive_ring_laps() {
        let cell = SnapshotCell::new(leaves(&[1.0; 8]));
        let pinned = cell.load();
        // Lap the ring several times: the pin must keep serving epoch 0's
        // values even though its slot has long been overwritten.
        for i in 1..=(3 * SLOTS) {
            cell.publish(leaves(&[i as f64; 8]));
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.answer(Interval::new(0, 7)), 8.0);
        let fresh = cell.load();
        assert_eq!(fresh.epoch(), 3 * SLOTS);
        assert_eq!(fresh.answer(Interval::new(0, 7)), 8.0 * (3 * SLOTS) as f64);
    }

    #[test]
    fn shards_serve_the_same_snapshot_from_every_shard() {
        let shards = SnapshotShards::new(leaves(&[1.0, 2.0, 3.0, 4.0]), 3);
        assert_eq!(shards.shard_count(), 3);
        assert_eq!(shards.epoch(), 0);
        let whole = Interval::new(0, 3);
        for shard in 0..shards.shard_count() {
            assert_eq!(shards.pin_shard(shard).answer(whole), 10.0);
        }
        // pin_shard wraps modulo the shard count.
        assert_eq!(shards.pin_shard(7).answer(whole), 10.0);
        let epoch = shards.broadcast(leaves(&[4.0, 3.0, 2.0, 11.0]));
        assert_eq!(epoch, 1);
        assert_eq!(shards.epoch(), 1);
        for _ in 0..2 * shards.shard_count() {
            // Round-robin pins all land on the new epoch.
            let pinned = shards.pin();
            assert_eq!(pinned.epoch(), 1);
            assert_eq!(pinned.answer(whole), 20.0);
        }
    }

    #[test]
    fn pins_never_go_backwards_during_a_half_done_broadcast() {
        let shards = SnapshotShards::new(leaves(&[1.0, 1.0]), 3);
        let mut last = 0usize;
        let mut check = |shards: &SnapshotShards, want: usize| {
            for _ in 0..2 * shards.shard_count() {
                let epoch = shards.pin().epoch();
                assert!(epoch >= last, "epoch went back from {last} to {epoch}");
                assert_eq!(epoch, want);
                last = epoch;
            }
        };
        check(&shards, 0);
        // A broadcast preempted before its last store: shards 1.. serve
        // epoch 1 while shard 0 still serves epoch 0.
        for cell in &shards.cells[1..] {
            cell.publish(leaves(&[2.0, 2.0]));
        }
        check(&shards, 0);
        shards.cells[0].publish(leaves(&[2.0, 2.0]));
        check(&shards, 1);
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let shards = SnapshotShards::new(leaves(&[2.0, 2.0]), 0);
        assert_eq!(shards.shard_count(), 1);
        assert_eq!(shards.pin().answer(Interval::new(0, 1)), 4.0);
    }

    #[test]
    fn concurrent_readers_see_only_complete_snapshots() {
        // Each published snapshot is constant-valued, so a torn read (a mix
        // of two epochs' prefixes) would show up as a range answer that is
        // not an exact multiple of the range length.
        let n = 64usize;
        let cell = SnapshotCell::new(leaves(&vec![0.0; n]));
        let publishes = 200usize;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let whole = Interval::new(0, n - 1);
                    loop {
                        let pinned = cell.load();
                        let per_leaf = pinned.answer(whole) / n as f64;
                        assert_eq!(
                            per_leaf.fract(),
                            0.0,
                            "torn snapshot observed at epoch {}",
                            pinned.epoch()
                        );
                        assert_eq!(per_leaf, pinned.epoch() as f64);
                        if pinned.epoch() == publishes {
                            break;
                        }
                    }
                });
            }
            for i in 1..=publishes {
                cell.publish(leaves(&vec![i as f64; n]));
            }
        });
        assert_eq!(cell.epoch(), publishes);
    }
}
