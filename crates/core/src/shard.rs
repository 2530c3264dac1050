//! The persistent sharded serving pool: `effective_threads`-governed
//! workers, each owning its **own clone** of the served
//! [`ConsistentSnapshot`], answering query batches without a per-call
//! thread spawn.
//!
//! Splitting each batch across a fresh `std::thread::scope` would be
//! correct, but the spawn/join cycle costs tens of microseconds per call,
//! which dwarfs the batch itself at prefix-serving speeds (~1.4 ns/query
//! L2-resident). [`ShardPool`] keeps the workers
//! alive across calls: dispatching a batch is one mutex/condvar hand-off
//! per worker (microseconds for the whole pool), and each worker answers
//! from its own snapshot clone, so on multi-socket machines the per-shard
//! prefix arrays can live in worker-local memory instead of all readers
//! hammering one allocation. `hc-serve` mirrors the same layout at the
//! epoch-swap layer with `SnapshotShards` (one `SnapshotCell` per shard).
//!
//! Contracts, pinned by `tests/snapshot_serving.rs` and `tests/alloc_free.rs`:
//!
//! * **Bit-identical to serial.** Chunks are answered left to right into
//!   disjoint output ranges by the same [`answer_prefix_into`] kernel over
//!   byte-identical prefix clones, so [`ShardPool::answer_into`] equals
//!   [`ConsistentSnapshot::answer_into`] bit for bit at any worker count —
//!   including under `HC_THREADS` overrides (the pool sizes itself through
//!   [`effective_threads`] at construction).
//! * **Allocation-free when warm.** Hand-off moves recycled owned buffers
//!   (`Vec` moves, no copies of the allocations); workers answer into their
//!   chunk's warm output buffer; [`ShardPool::publish`] refreshes every
//!   shard clone via `clone_from` into warm prefix buffers.
//! * **Small batches stay serial.** Below the construction-time serial
//!   floor ([`SHARD_SERIAL_FLOOR`] by default) the dispatching thread
//!   answers from shard 0 directly — waking workers for a dozen queries
//!   costs more than answering them.
//!
//! The hand-off copies each query in (16 B) and each answer out (8 B). On
//! the large, DRAM-resident domains the pool exists for (2^20–2^26 bins),
//! a query answer is two dependent cache-missing loads — hundreds of times
//! the copy cost — so the safe ownership-based hand-off loses nothing
//! measurable over a borrowed-slice design, and the crate keeps its
//! `#![forbid(unsafe_code)]`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use hc_data::Interval;

use crate::engine::effective_threads;
use crate::snapshot::{answer_prefix_into, ConsistentSnapshot, SHARD_SERIAL_FLOOR};

/// One in-flight batch chunk: owned query/answer buffers that shuttle
/// between the dispatcher and a worker and are recycled across calls.
#[derive(Debug, Default)]
struct ChunkBuf {
    queries: Vec<Interval>,
    out: Vec<f64>,
}

/// Everything one worker shares with the pool: its snapshot clone, the
/// task/done hand-off slots, and the shutdown flag.
#[derive(Debug)]
struct ShardState {
    /// This shard's own snapshot clone. Workers hold the read lock only
    /// while answering; [`ShardPool::publish`] write-locks shard by shard.
    snapshot: RwLock<ConsistentSnapshot>,
    /// Dispatcher → worker hand-off slot (at most one task outstanding).
    task: Mutex<Option<ChunkBuf>>,
    task_ready: Condvar,
    /// Worker → dispatcher reply slot.
    done: Mutex<Option<ChunkBuf>>,
    done_ready: Condvar,
    /// Set (under the `task` mutex) by [`ShardPool::drop`].
    stop: AtomicBool,
}

/// A persistent pool of snapshot-serving workers — the parallel path for
/// large query batches, with no per-call thread spawn.
///
/// ```
/// use hc_core::{ConsistentSnapshot, ShardPool};
/// use hc_data::Interval;
///
/// let snapshot = ConsistentSnapshot::from_leaves(&[1.0, 2.0, 3.0, 4.0], 4);
/// let mut pool = ShardPool::new(&snapshot, 2);
/// let queries = [Interval::new(0, 3), Interval::new(1, 2)];
/// let mut out = Vec::new();
/// pool.answer_into(&queries, &mut out);
/// assert_eq!(out, vec![10.0, 5.0]);
/// ```
#[derive(Debug)]
pub struct ShardPool {
    shards: Vec<Arc<ShardState>>,
    /// Worker join handles; empty when the pool resolved to one worker
    /// (then every batch is answered inline from shard 0).
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Recycled hand-off buffers, one slot per shard; `None` only while the
    /// buffer is out with its worker.
    chunks: Vec<Option<ChunkBuf>>,
    serial_floor: usize,
}

impl ShardPool {
    /// A pool of `effective_threads(threads).max(1)` workers, each seeded
    /// with its own clone of `snapshot`, with the measured default serial
    /// floor ([`SHARD_SERIAL_FLOOR`]).
    pub fn new(snapshot: &ConsistentSnapshot, threads: usize) -> Self {
        Self::with_floor(snapshot, threads, SHARD_SERIAL_FLOOR)
    }

    /// [`Self::new`] with an explicit serial-fallback floor — tests pass
    /// `0` so even one-query batches exercise the worker hand-off path.
    pub fn with_floor(snapshot: &ConsistentSnapshot, threads: usize, serial_floor: usize) -> Self {
        let workers = effective_threads(threads).max(1);
        let shards: Vec<Arc<ShardState>> = (0..workers)
            .map(|_| {
                Arc::new(ShardState {
                    snapshot: RwLock::new(snapshot.clone()),
                    task: Mutex::new(None),
                    task_ready: Condvar::new(),
                    done: Mutex::new(None),
                    done_ready: Condvar::new(),
                    stop: AtomicBool::new(false),
                })
            })
            .collect();
        let threads = if workers > 1 {
            shards
                .iter()
                .enumerate()
                .map(|(i, state)| {
                    let state = Arc::clone(state);
                    // Named `Builder` spawn, not the banned free
                    // `thread::spawn`: these are long-lived pool workers
                    // whose count routed through `effective_threads` above,
                    // joined in `Drop` — the HC_THREADS contract holds.
                    std::thread::Builder::new()
                        .name(format!("hc-shard-{i}"))
                        .spawn(move || worker_loop(&state))
                        .expect("spawn shard worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        let chunks = (0..workers).map(|_| Some(ChunkBuf::default())).collect();
        Self {
            shards,
            threads,
            chunks,
            serial_floor,
        }
    }

    /// The resolved worker count (after the `HC_THREADS` override).
    #[inline]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The serial-fallback floor this pool was built with.
    #[inline]
    pub fn serial_floor(&self) -> usize {
        self.serial_floor
    }

    /// Replaces every shard's snapshot clone. Synchronous: when this
    /// returns, the next [`Self::answer_into`] on this pool serves the new
    /// snapshot from every shard. Warm republishes reuse each shard's
    /// prefix buffer (`clone_from`), so steady-state publishes allocate
    /// nothing once buffers have reached their high-water mark.
    ///
    /// Shard clones are refreshed one at a time; a worker answering
    /// concurrently (only possible through external sharing — `answer_into`
    /// takes `&mut self`) would see old or new whole snapshots, never a
    /// torn mix, because the swap happens under each shard's write lock.
    pub fn publish(&mut self, snapshot: &ConsistentSnapshot) {
        for state in &self.shards {
            let mut shard = state
                .snapshot
                .write()
                .expect("shard snapshot lock never poisoned");
            shard.clone_from(snapshot);
        }
    }

    /// Answers a query batch into `out` (resized to the batch length) —
    /// bit-identical to [`ConsistentSnapshot::answer_into`] on the served
    /// snapshot, at any worker count.
    pub fn answer_into(&mut self, queries: &[Interval], out: &mut Vec<f64>) {
        self.answer_into_with_floor(queries, out, self.serial_floor);
    }

    /// [`Self::answer_into`] with a per-call serial floor override.
    pub fn answer_into_with_floor(
        &mut self,
        queries: &[Interval],
        out: &mut Vec<f64>,
        serial_floor: usize,
    ) {
        let workers = self.shards.len();
        if workers <= 1 || queries.is_empty() || queries.len() < serial_floor {
            self.answer_serial(queries, out);
            return;
        }
        out.resize(queries.len(), 0.0);
        let per = queries.len().div_ceil(workers);
        // With fewer queries than workers, `chunks(per)` yields fewer
        // chunks than shards — trailing workers simply stay parked.
        let dispatched = queries.len().div_ceil(per);
        for (i, q_chunk) in queries.chunks(per).enumerate() {
            let mut buf = self.chunks[i].take().expect("chunk buffer parked");
            buf.queries.clear();
            buf.queries.extend_from_slice(q_chunk);
            let state = &self.shards[i];
            {
                let mut task = state.task.lock().expect("task lock never poisoned");
                *task = Some(buf);
            }
            state.task_ready.notify_one();
        }
        // Collect strictly in shard order: chunk i lands at offset i*per,
        // so the stitched output is the serial order regardless of which
        // worker finishes first.
        let mut offset = 0usize;
        for i in 0..dispatched {
            let state = &self.shards[i];
            let buf = {
                let mut done = state.done.lock().expect("done lock never poisoned");
                loop {
                    if let Some(buf) = done.take() {
                        break buf;
                    }
                    done = state
                        .done_ready
                        .wait(done)
                        .expect("done condvar never poisoned");
                }
            };
            out[offset..offset + buf.out.len()].copy_from_slice(&buf.out);
            offset += buf.out.len();
            self.chunks[i] = Some(buf);
        }
        debug_assert_eq!(offset, queries.len(), "chunks must tile the batch");
    }

    /// The serial fallback: the dispatching thread answers the whole batch
    /// from shard 0's clone — same kernel, same arithmetic.
    fn answer_serial(&self, queries: &[Interval], out: &mut Vec<f64>) {
        let snapshot = self.shards[0]
            .snapshot
            .read()
            .expect("shard snapshot lock never poisoned");
        out.resize(queries.len(), 0.0);
        answer_prefix_into(snapshot.prefix(), snapshot.domain_size(), queries, out);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for state in &self.shards {
            // Raise `stop` under the task mutex so a worker between its
            // stop check and its condvar wait cannot miss the wakeup.
            let guard = state.task.lock().expect("task lock never poisoned");
            state.stop.store(true, Ordering::Release);
            drop(guard);
            state.task_ready.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: park on the task slot, answer the chunk from this shard's
/// snapshot clone, hand the buffer back through the done slot.
fn worker_loop(state: &ShardState) {
    loop {
        let mut buf = {
            let mut task = state.task.lock().expect("task lock never poisoned");
            loop {
                if state.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(buf) = task.take() {
                    break buf;
                }
                task = state
                    .task_ready
                    .wait(task)
                    .expect("task condvar never poisoned");
            }
        };
        serve_chunk(state, &mut buf);
        {
            let mut done = state.done.lock().expect("done lock never poisoned");
            *done = Some(buf);
        }
        state.done_ready.notify_one();
    }
}

/// Answers one chunk from the shard's snapshot clone — the same
/// [`answer_prefix_into`] kernel the serial path runs, over a byte-identical
/// prefix, so chunk answers are bit-identical to the serial batch's slice.
fn serve_chunk(state: &ShardState, buf: &mut ChunkBuf) {
    let snapshot = state
        .snapshot
        .read()
        .expect("shard snapshot lock never poisoned");
    buf.out.resize(buf.queries.len(), 0.0);
    answer_prefix_into(
        snapshot.prefix(),
        snapshot.domain_size(),
        &buf.queries,
        &mut buf.out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_mech::TreeShape;
    use hc_noise::rng_from_seed;
    use rand::Rng;

    fn random_snapshot(height: usize, seed: u64) -> ConsistentSnapshot {
        let shape = TreeShape::new(2, height);
        let mut rng = rng_from_seed(seed);
        let values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-9.0..17.0))
            .collect();
        ConsistentSnapshot::from_tree_values(&shape, &values, shape.leaves())
    }

    fn random_queries(domain: usize, count: usize, seed: u64) -> Vec<Interval> {
        let mut rng = rng_from_seed(seed);
        (0..count)
            .map(|_| {
                let lo = rng.random_range(0..domain);
                let hi = rng.random_range(lo..domain);
                Interval::new(lo, hi)
            })
            .collect()
    }

    #[test]
    fn pool_matches_serial_bit_for_bit() {
        let snapshot = random_snapshot(9, 1);
        let queries = random_queries(snapshot.domain_size(), 1000, 2);
        let mut serial = Vec::new();
        snapshot.answer_into(&queries, &mut serial);
        for workers in [1usize, 2, 3, 4] {
            let mut pool = ShardPool::with_floor(&snapshot, workers, 0);
            // Under an HC_THREADS override the pool resolves to that width
            // instead; either way the answers below must stay identical.
            assert_eq!(pool.workers(), effective_threads(workers).max(1));
            let mut out = Vec::new();
            pool.answer_into(&queries, &mut out);
            assert_eq!(out, serial, "workers = {workers}");
            // Repeat on warm buffers: recycling must not corrupt anything.
            pool.answer_into(&queries, &mut out);
            assert_eq!(out, serial, "workers = {workers}, warm");
        }
    }

    #[test]
    fn publish_swaps_every_shard() {
        let first = random_snapshot(6, 3);
        let second = random_snapshot(6, 4);
        let queries = random_queries(first.domain_size(), 64, 5);
        let mut pool = ShardPool::with_floor(&first, 4, 0);
        let (mut expect, mut out) = (Vec::new(), Vec::new());
        first.answer_into(&queries, &mut expect);
        pool.answer_into(&queries, &mut out);
        assert_eq!(out, expect);
        pool.publish(&second);
        second.answer_into(&queries, &mut expect);
        pool.answer_into(&queries, &mut out);
        assert_eq!(
            out, expect,
            "post-publish answers must be the new snapshot's"
        );
    }

    #[test]
    fn small_batches_take_the_serial_path_and_stay_identical() {
        let snapshot = random_snapshot(7, 6);
        // Default floor: a small batch is answered inline; the answers are
        // the same either way — the floor is a latency knob, not semantics.
        let mut pool = ShardPool::new(&snapshot, 4);
        assert_eq!(pool.serial_floor(), SHARD_SERIAL_FLOOR);
        let queries = random_queries(snapshot.domain_size(), 65, 7);
        let (mut serial, mut out) = (Vec::new(), Vec::new());
        snapshot.answer_into(&queries, &mut serial);
        pool.answer_into(&queries, &mut out);
        assert_eq!(out, serial);
    }

    #[test]
    fn degenerate_batches_are_well_defined() {
        let snapshot = random_snapshot(5, 8);
        let mut pool = ShardPool::with_floor(&snapshot, 8, 0);
        // Empty batch: output truncated, no worker woken.
        let mut out = vec![1.0, 2.0];
        pool.answer_into(&[], &mut out);
        assert!(out.is_empty());
        // Fewer queries than workers: trailing shards stay parked.
        let queries = random_queries(snapshot.domain_size(), 3, 9);
        let mut serial = Vec::new();
        snapshot.answer_into(&queries, &mut serial);
        pool.answer_into(&queries, &mut out);
        assert_eq!(out, serial);
        // One worker: everything inline, still identical.
        let mut single = ShardPool::with_floor(&snapshot, 1, 0);
        single.answer_into(&queries, &mut out);
        assert_eq!(out, serial);
    }
}
