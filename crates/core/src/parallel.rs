//! Shard-per-core parallel routing.
//!
//! A [`RoutingPool`] owns a fixed set of std worker threads
//! ([`Cosmos::set_parallelism`](crate::Cosmos::set_parallelism)). Each
//! publish batch is dispatched *whole* to one worker — the shard key is
//! the stream name, so every batch of a stream lands on the same worker
//! and that worker's plan stores are the only place the stream's
//! projection plans ever live. Parallelism comes from pipelining: while
//! the driver thread replays batch `k`'s routed output (link accounting,
//! SPE intake, delivery — the inherently serial effects), workers are
//! already routing batches `k+1..k+w` of other streams.
//!
//! There is **no lock on the tuple path**. Workers route against a
//! copy-on-write snapshot of the routers' interest state
//! ([`SharedRouter`]) using shard-owned plan stores and counters;
//! everything mutable is owned, and shard state re-enters the
//! deployment totals when the driver folds each [`RoutedBatch`]'s
//! counter deltas back in. The cautionary exemplar is sombra's page
//! cache (CONCURRENCY.md in `/root/related/maskdotdev__sombra/`): a
//! "lock-free" structure behind one global `RwLock` scaled *negatively*
//! at 32 threads. Here the global-lock temptation is removed
//! structurally — there is nothing shared to lock.
//!
//! # Determinism
//!
//! Workers precompute the *source-derived* half of the dissemination
//! BFS: every hop a source batch takes before it first enters an SPE
//! executor. The result ([`PreHop`]/[`PreForward`]) is a pure function
//! of (interest snapshot, batch) — no effects happen on the worker. The
//! driver then replays hops in exact serial FIFO order, interleaving
//! live routing of SPE result streams (which never re-enter a source
//! path — cascading-rep topologies bypass the pool entirely), so
//! delivery order, link-byte accounting, f64 cost accumulation order,
//! and every metrics observation are bit-for-bit identical to the
//! serial driver. Batches re-merge in dispatch (seq) order — the
//! deterministic (virtual-time, stream, seq) merge: inputs are
//! timestamp-ordered per stream, so seq order *is* the virtual-time
//! order the serial driver would process, with seq breaking cross-stream
//! ties exactly as serial interleaving does.
//!
//! # Model checking
//!
//! The concurrency skeleton of this file — CoW core publication,
//! generation bump, per-shard lazy invalidation, seq-ordered replay
//! merge, counter fold — is model-checked exhaustively by `cosmos-det
//! check` (`cosmos_det::model`), which enumerates every interleaving at
//! small bounds and proves no stale-core routing, replay linearization
//! to dispatch order, and counter conservation. Comments below anchor
//! the correspondence at each protocol step; keep them in sync when the
//! protocol changes, and mirror the change in the model.

use cosmos_cbn::{Destination, PlanStore, Router, RouterCounters, SharedRouter};
use cosmos_types::{NodeId, Schema, SubscriberId, Tuple};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of worker work: route a whole source batch from its origin
/// through the interest snapshot.
struct Job {
    seq: u64,
    origin: NodeId,
    tuples: Vec<Tuple>,
    schema: Schema,
    snapshot: Arc<Vec<SharedRouter>>,
}

/// One forwarding effect recorded by a worker, replayed by the driver.
pub(crate) enum PreForward {
    /// The batch crossed an overlay link. The driver accounts
    /// `bytes`/`tuples_len` and then replays the child hop — the
    /// intermediate tuples themselves never cross the channel.
    Neighbor {
        to: NodeId,
        /// Index of the resulting hop in [`RoutedBatch::hops`].
        child: usize,
        tuples_len: usize,
        bytes: usize,
    },
    /// The batch reached a locally attached subscriber; the driver
    /// decides whether that is an SPE input (routing whatever results
    /// it produces live) or a user delivery.
    Local {
        sub: SubscriberId,
        tuples: Vec<Tuple>,
        schema: Schema,
    },
}

/// One node visit of the precomputed source BFS, with its forwarding
/// decisions in serial order.
pub(crate) struct PreHop {
    pub at: NodeId,
    pub forwards: Vec<PreForward>,
}

/// A worker's routed output for one batch.
pub(crate) struct RoutedBatch {
    /// Source-derived hops in BFS (serial FIFO) order; hop 0 is the
    /// origin visit. Empty when the batch matched nothing anywhere.
    pub hops: Vec<PreHop>,
    /// Per-node counter deltas this job produced, to be folded into the
    /// routers ([`Router::absorb_counters`]).
    pub counters: Vec<(NodeId, RouterCounters)>,
    /// Every non-empty plan store the worker holds after this job:
    /// `(node, interest generation the store was filled at, plans)`.
    /// The driver counts only entries whose generation is current —
    /// stale stores are the ones the serial driver would already have
    /// cleared.
    plans: Vec<(NodeId, u64, u64)>,
    worker: usize,
}

/// FNV-1a over the stream name: the shard key. Stable across runs and
/// platforms, so a stream's batches always land on the same worker for
/// a given pool width.
fn shard_of(stream: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % workers as u64) as usize
}

/// Worker main loop: precompute the source-derived BFS of each job
/// against shard-owned plan stores, one store per overlay node.
fn worker_loop(worker: usize, jobs: Receiver<Job>, results: Sender<(u64, RoutedBatch)>) {
    let mut stores: Vec<PlanStore> = Vec::new();
    let mut gens: Vec<u64> = Vec::new();
    while let Ok(job) = jobs.recv() {
        let snapshot = &job.snapshot;
        if stores.len() < snapshot.len() {
            stores.resize_with(snapshot.len(), PlanStore::new);
            gens.resize(snapshot.len(), u64::MAX);
        }
        struct HopInput {
            from: Option<NodeId>,
            at: NodeId,
            tuples: Vec<Tuple>,
            schema: Schema,
        }
        let mut inputs: Vec<Option<HopInput>> = vec![Some(HopInput {
            from: None,
            at: job.origin,
            tuples: job.tuples,
            schema: job.schema,
        })];
        let mut hops: Vec<PreHop> = Vec::new();
        let mut counters: Vec<(NodeId, RouterCounters)> = Vec::new();
        let mut i = 0;
        // hops[i] is produced from inputs[i]; children are appended in
        // forward order, so index order is exactly the serial FIFO.
        while i < inputs.len() {
            let inp = inputs[i].take().expect("each hop input is routed once");
            let idx = inp.at.index();
            let shared = &snapshot[idx];
            // The per-node half of the invalidation contract: a store
            // filled at an older interest generation is cleared before
            // use, mirroring the serial router's eager clear (counters
            // only move while routing, so lazy clearing is unobservable).
            // Model: the `Route` action's store check; eliding the clear
            // is `cosmos-det check --inject-skip-invalidate`, caught by
            // the `stale-core` property.
            if gens[idx] != shared.generation() {
                stores[idx].clear();
                gens[idx] = shared.generation();
            }
            let cpos = match counters.iter().position(|(n, _)| *n == inp.at) {
                Some(p) => p,
                None => {
                    counters.push((inp.at, RouterCounters::default()));
                    counters.len() - 1
                }
            };
            // The same hop routing as the serial driver's, relays
            // included: the upstream is the sender's snapshot.
            let forwards = shared.route_batch_with(
                &mut stores[idx],
                &mut counters[cpos].1,
                inp.tuples,
                &inp.schema,
                inp.from.map(|n| &snapshot[n.index()]),
            );
            let mut pre = Vec::with_capacity(forwards.len());
            for f in forwards {
                match f.dest {
                    Destination::Neighbor(to) => {
                        let bytes = f.tuples.iter().map(Tuple::size_bytes).sum();
                        let tuples_len = f.tuples.len();
                        let child = inputs.len();
                        inputs.push(Some(HopInput {
                            from: Some(inp.at),
                            at: to,
                            tuples: f.tuples,
                            schema: f.schema,
                        }));
                        pre.push(PreForward::Neighbor {
                            to,
                            child,
                            tuples_len,
                            bytes,
                        });
                    }
                    Destination::Local(sub) => pre.push(PreForward::Local {
                        sub,
                        tuples: f.tuples,
                        schema: f.schema,
                    }),
                }
            }
            hops.push(PreHop {
                at: inp.at,
                forwards: pre,
            });
            i += 1;
        }
        let plans: Vec<(NodeId, u64, u64)> = stores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.plan_count() > 0)
            .map(|(n, s)| (NodeId(n as u32), gens[n], s.plan_count() as u64))
            .collect();
        let routed = RoutedBatch {
            hops,
            counters,
            plans,
            worker,
        };
        // The driver may already be gone on teardown paths; that just
        // ends the loop at the next recv.
        if results.send((job.seq, routed)).is_err() {
            break;
        }
    }
}

/// A fixed pool of routing workers plus the driver-side bookkeeping:
/// the interest snapshot, the dispatch sequence, the per-seq reorder
/// buffer, and each worker's last-reported plan-store occupancy.
pub(crate) struct RoutingPool {
    senders: Vec<Sender<Job>>,
    joins: Vec<JoinHandle<()>>,
    results: Receiver<(u64, RoutedBatch)>,
    snapshot: Option<Arc<Vec<SharedRouter>>>,
    /// Σ of router interest generations the snapshot was built at.
    epoch: u64,
    next_seq: u64,
    in_flight: usize,
    /// Results received ahead of their replay turn, keyed by seq.
    pending: BTreeMap<u64, RoutedBatch>,
    /// Last plan-store summary reported by each worker.
    worker_plans: Vec<Vec<(NodeId, u64, u64)>>,
}

impl std::fmt::Debug for RoutingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingPool")
            .field("workers", &self.senders.len())
            .field("epoch", &self.epoch)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

impl RoutingPool {
    /// Spawn `workers` routing threads (`workers >= 1`).
    pub fn new(workers: usize) -> RoutingPool {
        let workers = workers.max(1);
        let (result_tx, results) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel();
            let rtx = result_tx.clone();
            senders.push(tx);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("cosmos-route-{w}"))
                    .spawn(move || worker_loop(w, rx, rtx))
                    .expect("spawn routing worker"),
            );
        }
        RoutingPool {
            senders,
            joins,
            results,
            snapshot: None,
            epoch: 0,
            next_seq: 0,
            in_flight: 0,
            pending: BTreeMap::new(),
            worker_plans: vec![Vec::new(); workers],
        }
    }

    /// Number of worker threads.
    pub fn parallelism(&self) -> usize {
        self.senders.len()
    }

    /// Refresh the copy-on-write interest snapshot if any router's
    /// interests changed since it was built. O(nodes) when nothing
    /// changed (a sum of generation counters); two refcount bumps per
    /// router when something did.
    ///
    /// Model: the refresh-on-generation-change guard of `Dispatch`; the
    /// `stale-core` property proves every job routes against the core
    /// current at its dispatch. `--inject-skip-bump` (a mutator that
    /// forgets to move the generation, so this epoch sum never changes)
    /// is the CI canary that property must catch.
    pub fn ensure_snapshot(&mut self, routers: &[Router]) {
        let epoch = routers
            .iter()
            .map(Router::interest_generation)
            .fold(0u64, u64::wrapping_add);
        let stale = match &self.snapshot {
            Some(s) => s.len() != routers.len() || epoch != self.epoch,
            None => true,
        };
        if stale {
            debug_assert_eq!(self.in_flight, 0, "snapshot refresh with jobs in flight");
            self.snapshot = Some(Arc::new(routers.iter().map(Router::shared).collect()));
            self.epoch = epoch;
        }
    }

    /// Dispatch one source batch to its stream's shard. Returns the seq
    /// to pass to [`RoutingPool::wait_for`]; replay must happen in seq
    /// order.
    pub fn dispatch(&mut self, origin: NodeId, tuples: Vec<Tuple>, schema: Schema) -> u64 {
        let snapshot = Arc::clone(
            self.snapshot
                .as_ref()
                .expect("ensure_snapshot before dispatch"),
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = shard_of(
            tuples.first().map(|t| t.stream.as_str()).unwrap_or(""),
            self.senders.len(),
        );
        let job = Job {
            seq,
            origin,
            tuples,
            schema,
            snapshot,
        };
        self.in_flight += 1;
        self.senders[shard]
            .send(job)
            .expect("routing worker alive while pool exists");
        seq
    }

    /// Block until the routed output of `seq` is available. Results
    /// arriving out of seq order are buffered.
    ///
    /// Model: the `Receive`/`Replay` actions and the `replay-order`
    /// property — replaying the arrival order instead of seq order
    /// (`--inject-replay-arrival`) breaks linearization to serial
    /// submission order; dropping a batch's counter fold
    /// (`--inject-skip-fold`) breaks `counter-conservation`.
    pub fn wait_for(&mut self, seq: u64) -> RoutedBatch {
        loop {
            if let Some(r) = self.pending.remove(&seq) {
                self.in_flight -= 1;
                return r;
            }
            let (s, routed) = self
                .results
                .recv()
                .expect("routing workers cannot disconnect while jobs are in flight");
            self.worker_plans[routed.worker] = routed.plans.clone();
            self.pending.insert(s, routed);
        }
    }

    /// Plans currently cached in worker shard stores, counting only
    /// stores whose interest generation is still current (per
    /// `current_gen`): a stale store corresponds to a cache the serial
    /// driver has already cleared, and the worker will clear it before
    /// its next use.
    pub fn cached_plans(&self, current_gen: impl Fn(NodeId) -> u64) -> u64 {
        self.worker_plans
            .iter()
            .flatten()
            .filter(|(node, gen, _)| *gen == current_gen(*node))
            .map(|(_, _, count)| count)
            .sum()
    }
}

impl Drop for RoutingPool {
    fn drop(&mut self) {
        // Closing the job channels ends every worker loop; join so no
        // thread outlives the deployment it routed for.
        self.senders.clear();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_stream_keyed() {
        let a = shard_of("sensors-0", 4);
        assert_eq!(shard_of("sensors-0", 4), a, "same stream, same shard");
        assert!(a < 4);
        // Distinct streams spread over shards (these four names are the
        // bench workload; at least two distinct shards keeps the
        // pipeline busy).
        let shards: std::collections::BTreeSet<usize> = (0..4)
            .map(|i| shard_of(&format!("sensors-{i}"), 4))
            .collect();
        assert!(shards.len() >= 2);
    }

    #[test]
    fn pool_spawns_and_joins_cleanly() {
        let pool = RoutingPool::new(3);
        assert_eq!(pool.parallelism(), 3);
        assert_eq!(pool.in_flight, 0);
        drop(pool); // must not hang
    }
}
