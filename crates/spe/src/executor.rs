//! Push-based continuous execution of analyzed queries.
//!
//! The executor receives source tuples in global timestamp order and
//! produces the query's result stream incrementally (Istream semantics:
//! a result tuple is emitted the moment the arrival completing it is
//! processed, stamped with that arrival's timestamp).
//!
//! **Join semantics** are precisely the paper's Lemma 1: for streams
//! `S1, S2` with window sizes `T1, T2`, tuples `t1, t2` join iff they
//! satisfy the join predicates and `−T1 ≤ t1.ts − t2.ts ≤ T2`. For *n*-way
//! joins the condition generalizes to `tᵢ.ts ≥ τ − Tᵢ` for every
//! participant, where `τ` is the completing arrival's timestamp.
//!
//! **Aggregate semantics**: on each arrival that passes the selection,
//! the sliding window is advanced (tuples older than `τ − T` evicted)
//! and one result row for the arriving tuple's group is emitted.

use crate::analyze::{AnalyzedQuery, OutputColumn, QAttr};
use cosmos_cql::AggFunc;
use cosmos_types::{
    AttrType, CosmosError, FxHashMap, FxHashSet, NeumaierSum, Result, Schema, StreamName,
    TimeDelta, Timestamp, Tuple, Value,
};
use std::collections::{BTreeMap, VecDeque};

/// Positional source of one output column: `(stream index, attr index)`.
type ColSource = (usize, usize);

/// A snapshot of an executor's retained-state occupancy, by component.
/// Each field is the measured counterpart of a row bound derived by the
/// `cosmos-bound` crate (`QueryBounds`), so the testkit can check
/// measured ≤ bound on every sweep event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSize {
    /// Rows across all join input buffers.
    pub buffer_rows: usize,
    /// Rows in the aggregate's sliding window (including disorder-mode
    /// revision history retained behind the live window).
    pub agg_window_rows: usize,
    /// Live groups in the aggregate's group table.
    pub group_rows: usize,
    /// Entries in the DISTINCT dedup set.
    pub distinct_rows: usize,
    /// Tuples staged behind the watermark frontier (disorder mode).
    pub staging_rows: usize,
}

impl StateSize {
    /// Total retained rows across all components.
    pub fn total_rows(&self) -> usize {
        self.buffer_rows
            + self.agg_window_rows
            + self.group_rows
            + self.distinct_rows
            + self.staging_rows
    }
}

/// What to do with a tuple that arrives *behind* the watermark frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatePolicy {
    /// Shed late tuples, counting them so conservation still balances.
    Drop,
    /// Process late tuples within `grace` of the frontier by emitting
    /// their result as-of their timestamp plus *revision* tuples for
    /// already-emitted results they change; shed beyond the grace.
    Revise {
        /// How far behind the frontier a tuple may still be folded in.
        grace: TimeDelta,
    },
}

impl LatePolicy {
    /// How long state needed to fold late tuples in must be retained.
    fn grace(&self) -> TimeDelta {
        match self {
            LatePolicy::Drop => TimeDelta::ZERO,
            LatePolicy::Revise { grace } => *grace,
        }
    }
}

/// Disorder-mode bookkeeping counters. The conservation identity
/// `arrived == drained + staged + shed + duplicates` holds at every
/// instant; the testkit asserts it on every sweep event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisorderStats {
    /// Out-of-order arrivals offered to this executor.
    pub arrived: u64,
    /// Tuples processed through the engine (in-order drains, flushes,
    /// and late tuples folded in by revision).
    pub drained: u64,
    /// Tuples currently staged behind the frontier.
    pub staged: u64,
    /// Late tuples shed (beyond grace, or `Drop` policy).
    pub shed: u64,
    /// Exact duplicates discarded by the dedup set.
    pub duplicates: u64,
    /// Late tuples folded in via the revision path (subset of `drained`).
    pub late: u64,
    /// Revision tuples emitted to supersede earlier emissions.
    pub revisions: u64,
}

impl DisorderStats {
    /// Sum two stat snapshots (used to total live + retired executors).
    pub fn merge(&self, other: &DisorderStats) -> DisorderStats {
        DisorderStats {
            arrived: self.arrived + other.arrived,
            drained: self.drained + other.drained,
            staged: self.staged + other.staged,
            shed: self.shed + other.shed,
            duplicates: self.duplicates + other.duplicates,
            late: self.late + other.late,
            revisions: self.revisions + other.revisions,
        }
    }

    /// The conservation identity; false means tuples were lost or
    /// double-counted somewhere in the disorder machinery.
    pub fn conserved(&self) -> bool {
        self.arrived == self.drained + self.staged + self.shed + self.duplicates
    }
}

/// Identity of a tuple for exact-duplicate detection.
type DedupKey = (StreamName, Timestamp, Vec<Value>);

/// Out-of-order ingestion state: a staging area ordered by
/// `(timestamp, arrival seq)`, the watermark frontier that releases it,
/// and an exact-duplicate dedup set with a time-indexed eviction queue.
#[derive(Debug, Clone)]
struct DisorderState {
    policy: LatePolicy,
    /// Tuples not yet released: all have `ts > frontier`.
    staging: BTreeMap<(Timestamp, u64), Tuple>,
    /// Arrival tiebreaker so equal timestamps drain in arrival order.
    seq: u64,
    /// Greatest effective watermark seen: `min` over the query's input
    /// streams of their last watermark.
    frontier: Timestamp,
    /// Last watermark per stream (streams missing here hold `i64::MIN`).
    watermarks: FxHashMap<StreamName, Timestamp>,
    /// Exact duplicates of anything here are discarded.
    seen: FxHashSet<DedupKey>,
    /// Eviction index for `seen`: entries below `frontier − grace` can
    /// no longer collide with a processable arrival.
    seen_index: BTreeMap<Timestamp, Vec<DedupKey>>,
    stats: DisorderStats,
}

impl DisorderState {
    fn new(policy: LatePolicy) -> DisorderState {
        DisorderState {
            policy,
            staging: BTreeMap::new(),
            seq: 0,
            frontier: Timestamp(i64::MIN),
            watermarks: FxHashMap::default(),
            seen: FxHashSet::default(),
            seen_index: BTreeMap::new(),
            stats: DisorderStats::default(),
        }
    }

    /// Record a tuple in the dedup set (no-op if already present).
    fn remember(&mut self, t: &Tuple) {
        let key = (t.stream.clone(), t.timestamp, t.values().to_vec());
        if self.seen.insert(key.clone()) {
            self.seen_index.entry(t.timestamp).or_default().push(key);
        }
    }

    fn is_duplicate(&self, t: &Tuple) -> bool {
        self.seen
            .contains(&(t.stream.clone(), t.timestamp, t.values().to_vec()))
    }

    /// Drop dedup entries that can no longer match a processable
    /// arrival (strictly below `frontier − grace`).
    fn evict_seen(&mut self) {
        let horizon = self.frontier - self.policy.grace();
        while let Some((&ts, _)) = self.seen_index.first_key_value() {
            if ts >= horizon {
                break;
            }
            let (_, keys) = self.seen_index.pop_first().expect("checked first");
            for key in keys {
                self.seen.remove(&key);
            }
        }
    }
}

/// Planted bugs for the CI canary: prove the convergence oracle has
/// teeth by disabling the machinery it guards.
///
/// Production code never sets these; see `cosmos_query::merge::faultinject`
/// for the pattern.
pub mod faultinject {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SKIP_WATERMARK_GATING: AtomicBool = AtomicBool::new(false);

    /// Enable or disable the planted bug that bypasses watermark gating:
    /// out-of-order arrivals are processed immediately in arrival order
    /// instead of being staged until the frontier passes them.
    pub fn set_skip_watermark_gating(on: bool) {
        SKIP_WATERMARK_GATING.store(on, Ordering::SeqCst);
    }

    /// Whether the planted bug is currently enabled.
    pub fn skip_watermark_gating() -> bool {
        SKIP_WATERMARK_GATING.load(Ordering::SeqCst)
    }
}

/// A running continuous query.
#[derive(Debug, Clone)]
pub struct Executor {
    query: AnalyzedQuery,
    result_stream: StreamName,
    /// Tuples that passed their stream's selection, per stream index.
    buffers: Vec<VecDeque<Tuple>>,
    /// Precomputed positional sources of plain output columns.
    attr_sources: Vec<Option<ColSource>>,
    /// Precomputed `(left source, right source)` of each join predicate.
    join_sources: Vec<(ColSource, ColSource)>,
    /// Per-stream-binding window sizes (parallel to `query.streams`).
    windows: Vec<TimeDelta>,
    distinct_seen: FxHashSet<Vec<Value>>,
    agg: Option<AggregateState>,
    last_ts: Timestamp,
    consumed: u64,
    emitted: u64,
    /// Out-of-order ingestion state; `None` = strict in-order mode.
    disorder: Option<DisorderState>,
    /// Under `Revise`, window state down to this timestamp (minus the
    /// window size) is retained past normal eviction so late tuples can
    /// be folded in. Tracks `frontier − grace`.
    retain_floor: Option<Timestamp>,
}

impl Executor {
    /// Build an executor for an analyzed query; result tuples are tagged
    /// with `result_stream`.
    pub fn new(query: AnalyzedQuery, result_stream: impl Into<StreamName>) -> Result<Executor> {
        let locate = |qa: &QAttr| -> Result<ColSource> {
            let si = query
                .stream_index(&qa.binding)
                .ok_or_else(|| CosmosError::Engine(format!("unbound binding '{}'", qa.binding)))?;
            let ai = query.streams[si]
                .schema
                .index_of(&qa.name)
                .ok_or_else(|| CosmosError::Engine(format!("unknown attribute {qa}")))?;
            Ok((si, ai))
        };
        let mut attr_sources = Vec::with_capacity(query.output.len());
        for col in &query.output {
            attr_sources.push(match col {
                OutputColumn::Attr(a) => Some(locate(a)?),
                OutputColumn::Agg { .. } => None,
            });
        }
        let mut join_sources = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            join_sources.push((locate(&j.left)?, locate(&j.right)?));
        }
        let agg = if query.is_aggregate() {
            Some(AggregateState::new(&query)?)
        } else {
            None
        };
        Ok(Executor {
            buffers: vec![VecDeque::new(); query.streams.len()],
            windows: query.streams.iter().map(|b| b.window).collect(),
            query,
            result_stream: result_stream.into(),
            attr_sources,
            join_sources,
            distinct_seen: FxHashSet::default(),
            agg,
            last_ts: Timestamp(i64::MIN),
            consumed: 0,
            emitted: 0,
            disorder: None,
            retain_floor: None,
        })
    }

    /// The analyzed query this executor runs.
    pub fn query(&self) -> &AnalyzedQuery {
        &self.query
    }

    /// The schema of emitted result tuples.
    pub fn result_schema(&self) -> &Schema {
        &self.query.output_schema
    }

    /// The name of the result stream.
    pub fn result_stream(&self) -> &StreamName {
        &self.result_stream
    }

    /// Source tuples consumed so far (arrivals relevant to this query).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Result tuples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Current retained-state occupancy, per component — the measured
    /// side of `cosmos-bound`'s bound-soundness oracle.
    pub fn state_size(&self) -> StateSize {
        StateSize {
            buffer_rows: self.buffers.iter().map(VecDeque::len).sum(),
            agg_window_rows: self
                .agg
                .as_ref()
                .map_or(0, |a| a.window.len() + a.history.len()),
            group_rows: self.agg.as_ref().map_or(0, |a| a.groups.len()),
            distinct_rows: self.distinct_seen.len(),
            staging_rows: self.disorder.as_ref().map_or(0, |d| d.staging.len()),
        }
    }

    /// Switch the executor into out-of-order ingestion mode: arrivals
    /// are staged until a watermark releases them; tuples behind the
    /// frontier are handled per `policy`. Must be called before the
    /// first arrival.
    pub fn enable_disorder(&mut self, policy: LatePolicy) {
        self.retain_floor = match policy {
            LatePolicy::Drop => None,
            LatePolicy::Revise { .. } => Some(Timestamp(i64::MIN)),
        };
        self.disorder = Some(DisorderState::new(policy));
    }

    /// Disorder bookkeeping counters (`None` in strict in-order mode).
    pub fn disorder_stats(&self) -> Option<DisorderStats> {
        self.disorder.as_ref().map(|d| DisorderStats {
            staged: d.staging.len() as u64,
            ..d.stats
        })
    }

    /// The watermark frontier (`None` in strict in-order mode): all
    /// arrivals at or below it have been drained, shed, or deduplicated.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.disorder.as_ref().map(|d| d.frontier)
    }

    /// Process an arrival that may have been *early-projected* by the
    /// CBN: `schema` describes the tuple's actual layout. The tuple is
    /// re-aligned to the stream's full schema (missing attributes become
    /// `Null`; the source profile guarantees every attribute the query
    /// touches is present) and then processed normally.
    pub fn push_projected(&mut self, tuple: &Tuple, schema: &Schema) -> Vec<Tuple> {
        self.push_projected_batch(std::slice::from_ref(tuple), schema)
    }

    /// [`Executor::push_projected`] for a *stream-homogeneous* batch
    /// (every tuple on the same stream, laid out by `schema`): the
    /// re-alignment column map is computed once for the whole batch.
    /// Result tuples are returned in emission order.
    pub fn push_projected_batch(&mut self, tuples: &[Tuple], schema: &Schema) -> Vec<Tuple> {
        let Some(first) = tuples.first() else {
            return Vec::new();
        };
        debug_assert!(
            tuples.iter().all(|t| t.stream == first.stream),
            "push_projected_batch requires a stream-homogeneous batch"
        );
        let Some(bound) = self.query.streams.iter().find(|b| b.stream == first.stream) else {
            return Vec::new();
        };
        if *schema == bound.schema {
            let mut out = Vec::new();
            for t in tuples {
                out.extend(self.ingest(t));
            }
            return out;
        }
        // Source column in the projected layout (or Null) per full-schema
        // attribute, resolved once per batch instead of once per tuple.
        let align: Vec<Option<usize>> = bound
            .schema
            .fields()
            .iter()
            .map(|f| schema.index_of(&f.name))
            .collect();
        let mut out = Vec::new();
        for t in tuples {
            let full: Vec<Value> = align
                .iter()
                .map(|src| src.and_then(|i| t.get(i).cloned()).unwrap_or(Value::Null))
                .collect();
            let aligned = Tuple::new(t.stream.clone(), t.timestamp, full);
            out.extend(self.ingest(&aligned));
        }
        out
    }

    /// Route one full-schema arrival through the mode-appropriate path.
    fn ingest(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        if self.disorder.is_some() {
            self.push_out_of_order(tuple)
        } else {
            self.push(tuple)
        }
    }

    /// Process one source arrival, returning the result tuples it
    /// completes. Tuples must arrive in non-decreasing timestamp order.
    pub fn push(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        debug_assert!(
            tuple.timestamp >= self.last_ts,
            "tuples must arrive in timestamp order ({} after {})",
            tuple.timestamp,
            self.last_ts
        );
        self.push_unchecked(tuple)
    }

    /// [`Executor::push`] without the monotonicity contract — used by
    /// the canary fault injection, which deliberately processes
    /// out-of-order arrivals immediately to prove the convergence
    /// oracle catches the resulting garbage.
    fn push_unchecked(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        self.last_ts = self.last_ts.max(tuple.timestamp);
        let mut out = Vec::new();
        // A stream may be bound several times (self joins); process each.
        for si in 0..self.query.streams.len() {
            if self.query.streams[si].stream != tuple.stream {
                continue;
            }
            self.consumed += 1;
            if !self.query.selections[si].satisfies(tuple, &self.query.streams[si].schema) {
                continue;
            }
            if self.agg.is_some() {
                self.push_aggregate(si, tuple, &mut out);
            } else if self.query.streams.len() == 1 {
                self.emit_single(tuple, &mut out);
            } else {
                self.push_join(si, tuple, &mut out);
            }
        }
        self.emitted += out.len() as u64;
        out
    }

    /// Process one arrival in out-of-order mode. Exact duplicates of
    /// anything remembered are discarded; arrivals ahead of the
    /// watermark frontier are staged; arrivals behind it are handled
    /// per the late policy (revision within grace, shed otherwise).
    pub fn push_out_of_order(&mut self, tuple: &Tuple) -> Vec<Tuple> {
        let Some(mut d) = self.disorder.take() else {
            return self.push(tuple);
        };
        d.stats.arrived += 1;
        let mut out = Vec::new();
        if d.is_duplicate(tuple) {
            d.stats.duplicates += 1;
        } else if faultinject::skip_watermark_gating() {
            // Planted bug: no staging, process in arrival order. The
            // convergence oracle must flag the resulting outputs.
            d.remember(tuple);
            out = self.push_unchecked(tuple);
            d.stats.drained += 1;
        } else if tuple.timestamp > d.frontier {
            d.remember(tuple);
            d.seq += 1;
            d.staging.insert((tuple.timestamp, d.seq), tuple.clone());
        } else {
            match d.policy {
                LatePolicy::Drop => d.stats.shed += 1,
                LatePolicy::Revise { grace } => {
                    if tuple.timestamp >= d.frontier - grace {
                        d.remember(tuple);
                        let mut revisions = 0;
                        out = self.revise(tuple, &mut revisions);
                        d.stats.late += 1;
                        d.stats.drained += 1;
                        d.stats.revisions += revisions;
                    } else {
                        d.stats.shed += 1;
                    }
                }
            }
        }
        self.disorder = Some(d);
        out
    }

    /// Fold in a watermark for `stream`: the effective frontier is the
    /// minimum over all input streams' watermarks, and every staged
    /// tuple at or below it is drained through the engine in
    /// `(timestamp, arrival)` order. Returns the drained results.
    pub fn advance_watermark(&mut self, stream: &StreamName, watermark: Timestamp) -> Vec<Tuple> {
        let Some(mut d) = self.disorder.take() else {
            return Vec::new();
        };
        d.watermarks
            .entry(stream.clone())
            .and_modify(|w| *w = (*w).max(watermark))
            .or_insert(watermark);
        let eff = self
            .query
            .streams
            .iter()
            .map(|b| {
                d.watermarks
                    .get(&b.stream)
                    .copied()
                    .unwrap_or(Timestamp(i64::MIN))
            })
            .min()
            .unwrap_or(watermark);
        let mut out = Vec::new();
        if eff > d.frontier {
            d.frontier = eff;
            if matches!(d.policy, LatePolicy::Revise { .. }) {
                self.retain_floor = Some(d.frontier - d.policy.grace());
            }
            while let Some((&(ts, _), _)) = d.staging.first_key_value() {
                if ts > d.frontier {
                    break;
                }
                let (_, t) = d.staging.pop_first().expect("checked first");
                out.extend(self.push(&t));
                d.stats.drained += 1;
            }
            d.evict_seen();
        }
        self.disorder = Some(d);
        out
    }

    /// Drain everything still staged, in `(timestamp, arrival)` order,
    /// *without* moving the frontier — used when an executor is about
    /// to be retired so its staged tuples are not silently lost.
    pub fn flush_staged(&mut self) -> Vec<Tuple> {
        let Some(mut d) = self.disorder.take() else {
            return Vec::new();
        };
        let staged = std::mem::take(&mut d.staging);
        let mut out = Vec::new();
        for t in staged.into_values() {
            out.extend(self.push(&t));
            d.stats.drained += 1;
        }
        self.disorder = Some(d);
        out
    }

    /// Fold a late (behind-frontier, within-grace) tuple into the
    /// query state as if it had arrived in order: emit its result
    /// as-of its own timestamp, plus revision tuples for already-emitted
    /// results it retroactively changes.
    fn revise(&mut self, tuple: &Tuple, revisions: &mut u64) -> Vec<Tuple> {
        let mut out = Vec::new();
        for si in 0..self.query.streams.len() {
            if self.query.streams[si].stream != tuple.stream {
                continue;
            }
            self.consumed += 1;
            if !self.query.selections[si].satisfies(tuple, &self.query.streams[si].schema) {
                continue;
            }
            if self.agg.is_some() {
                self.revise_aggregate(tuple, &mut out, revisions);
            } else if self.query.streams.len() == 1 {
                // Stateless: the row is independent of arrival order.
                self.emit_single(tuple, &mut out);
            } else {
                self.revise_join(si, tuple, &mut out);
            }
        }
        self.emitted += out.len() as u64;
        out
    }

    fn revise_aggregate(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>, revisions: &mut u64) {
        let agg = self.agg.as_mut().expect("aggregate state");
        let rows = agg.revise(&self.query, tuple);
        for (ts, values) in rows {
            if ts > tuple.timestamp {
                *revisions += 1;
            }
            self.finish(values, ts, out);
        }
    }

    /// Enumerate the join combinations the late tuple completes. Each
    /// combination is stamped with the *latest* member's timestamp τ
    /// (Lemma 1's completing arrival) and checked against every
    /// member's window. No combination containing the late tuple can
    /// have been emitted before, so no dedup is needed.
    fn revise_join(&mut self, arrival_idx: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let n = self.query.streams.len();
        let mut combo: Vec<Option<&Tuple>> = vec![None; n];
        combo[arrival_idx] = Some(tuple);
        let ctx = JoinCtx {
            join_sources: &self.join_sources,
            attr_sources: &self.attr_sources,
            windows: &self.windows,
        };
        let mut results: Vec<(Timestamp, Vec<Value>)> = Vec::new();
        enumerate(
            &self.buffers,
            arrival_idx,
            0,
            &mut combo,
            &ctx,
            None,
            &mut results,
        );
        results.sort_by_key(|r| r.0);
        for (tau, values) in results {
            self.finish(values, tau, out);
        }
        let buf = &mut self.buffers[arrival_idx];
        let pos = buf
            .iter()
            .position(|u| u.timestamp > tuple.timestamp)
            .unwrap_or(buf.len());
        buf.insert(pos, tuple.clone());
    }

    /// Finish a candidate result-value vector: distinct check and wrap.
    fn finish(&mut self, values: Vec<Value>, ts: Timestamp, out: &mut Vec<Tuple>) {
        if self.query.distinct && !self.distinct_seen.insert(values.clone()) {
            return;
        }
        out.push(Tuple::new(self.result_stream.clone(), ts, values));
    }

    fn emit_single(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let values: Vec<Value> = self
            .attr_sources
            .iter()
            .map(|src| {
                let (_, ai) = src.expect("non-aggregate column");
                tuple.get(ai).cloned().unwrap_or(Value::Null)
            })
            .collect();
        self.finish(values, tuple.timestamp, out);
    }

    fn push_join(&mut self, arrival_idx: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let tau = tuple.timestamp;
        // Evict tuples that can no longer join any future arrival:
        // tᵢ.ts < τ − Tᵢ (infinite windows never evict). Under a
        // `Revise` late policy, tuples back to `frontier − grace − Tᵢ`
        // are retained: a late arrival within grace may still complete
        // a combination with them.
        for (si, buf) in self.buffers.iter_mut().enumerate() {
            let w = self.query.streams[si].window;
            if w.is_infinite() {
                continue;
            }
            let mut horizon = tau - w;
            if let Some(floor) = self.retain_floor {
                horizon = horizon.min(floor - w);
            }
            while buf.front().is_some_and(|t| t.timestamp < horizon) {
                buf.pop_front();
            }
        }
        // Enumerate combinations from the other buffers.
        let n = self.query.streams.len();
        let mut combo: Vec<Option<&Tuple>> = vec![None; n];
        combo[arrival_idx] = Some(tuple);
        let ctx = JoinCtx {
            join_sources: &self.join_sources,
            attr_sources: &self.attr_sources,
            windows: &self.windows,
        };
        let mut results: Vec<(Timestamp, Vec<Value>)> = Vec::new();
        enumerate(
            &self.buffers,
            arrival_idx,
            0,
            &mut combo,
            &ctx,
            Some(tau),
            &mut results,
        );
        for (_, values) in results {
            self.finish(values, tau, out);
        }
        self.buffers[arrival_idx].push_back(tuple.clone());
    }

    fn push_aggregate(&mut self, si: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        debug_assert_eq!(si, 0, "aggregates run over a single stream");
        let retain_floor = self.retain_floor;
        let agg = self.agg.as_mut().expect("aggregate state");
        let row = agg.push(&self.query, tuple, retain_floor);
        self.finish(row, tuple.timestamp, out);
    }
}

/// Shared immutable context for join enumeration.
struct JoinCtx<'a> {
    join_sources: &'a [(ColSource, ColSource)],
    attr_sources: &'a [Option<ColSource>],
    windows: &'a [TimeDelta],
}

/// Depth-first enumeration of join combinations. With `tau = Some(τ)`
/// every emission is stamped τ (the in-order completing arrival); with
/// `None` each combination's τ is its latest member's timestamp (the
/// late-revision case). Either way, every member must satisfy Lemma 1:
/// `tᵢ.ts ≥ τ − Tᵢ` — redundant with buffer eviction in strict
/// in-order mode, load-bearing when buffers retain revision history.
fn enumerate<'a>(
    buffers: &'a [VecDeque<Tuple>],
    arrival_idx: usize,
    si: usize,
    combo: &mut Vec<Option<&'a Tuple>>,
    ctx: &JoinCtx<'_>,
    tau: Option<Timestamp>,
    results: &mut Vec<(Timestamp, Vec<Value>)>,
) {
    if si == buffers.len() {
        // All join predicates whose sides are both bound must hold;
        // at this depth every side is bound.
        let get = |src: ColSource| -> &Value {
            combo[src.0]
                .expect("combo complete")
                .get(src.1)
                .expect("attr index valid")
        };
        let tau = tau.unwrap_or_else(|| {
            combo
                .iter()
                .map(|t| t.expect("combo complete").timestamp)
                .max()
                .expect("non-empty combo")
        });
        for (i, w) in ctx.windows.iter().enumerate() {
            if w.is_infinite() {
                continue;
            }
            if combo[i].expect("combo complete").timestamp < tau - *w {
                return;
            }
        }
        for (l, r) in ctx.join_sources {
            if !get(*l).eq_coerce(get(*r)) {
                return;
            }
        }
        let values = ctx
            .attr_sources
            .iter()
            .map(|src| {
                let (s, a) = src.expect("non-aggregate column");
                combo[s]
                    .expect("combo complete")
                    .get(a)
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .collect();
        results.push((tau, values));
        return;
    }
    if si == arrival_idx {
        enumerate(buffers, arrival_idx, si + 1, combo, ctx, tau, results);
        return;
    }
    // Early join-predicate pruning would help at scale; buffers in this
    // system are small (windowed), so plain enumeration is fine.
    for t in &buffers[si] {
        combo[si] = Some(t);
        enumerate(buffers, arrival_idx, si + 1, combo, ctx, tau, results);
    }
    combo[si] = None;
}

/// One buffered aggregate contribution: `(timestamp, group key, agg
/// arg values)`.
type AggEntry = (Timestamp, Vec<Value>, Vec<Value>);

/// Grouped sliding-window aggregate state.
#[derive(Debug, Clone)]
struct AggregateState {
    /// Buffered contributions inside the live window, sorted by time.
    window: VecDeque<AggEntry>,
    /// Contributions evicted from the live window (and from the
    /// accumulators) but retained for late-tuple revision, sorted by
    /// time and strictly older than everything in `window`. Only
    /// populated under a `Revise` late policy.
    history: VecDeque<AggEntry>,
    /// Low edge of the live window: the greatest `τ − T` applied. The
    /// accumulators reflect exactly the entries in `window`, i.e. those
    /// with `ts ≥ horizon`.
    horizon: Timestamp,
    /// Per-group accumulators, one per aggregate column.
    groups: FxHashMap<Vec<Value>, Vec<Accumulator>>,
    /// Positional sources of the group-by attributes.
    group_sources: Vec<usize>,
    /// Positional sources of each aggregate argument (`None` = COUNT(*)).
    agg_args: Vec<Option<usize>>,
    /// The aggregate functions, parallel to `agg_args`.
    funcs: Vec<AggFunc>,
    /// Output types of SUM columns (Int sums stay Int).
    sum_is_int: Vec<bool>,
}

/// One incremental accumulator supporting insert and remove.
///
/// The running SUM/AVG uses Kahan–Neumaier compensated summation
/// ([`NeumaierSum`]): window evictions subtract, so a plain f64
/// accumulator drifts from a from-scratch recomputation by growing
/// rounding residue (the testkit sweep caught this as seeds whose AVG
/// disagreed in the last ulps). Carrying the compensation term keeps
/// every readout within an ulp or two of the exact sum of the window's
/// current contents.
#[derive(Debug, Clone, Default)]
struct Accumulator {
    count: i64,
    sum: NeumaierSum,
    /// Multiset of values for MIN/MAX under sliding windows.
    values: BTreeMap<Value, usize>,
}

impl Accumulator {
    /// The compensated running sum.
    fn total(&self) -> f64 {
        self.sum.total()
    }

    fn insert(&mut self, v: Option<&Value>) {
        self.count += 1;
        if let Some(v) = v {
            if let Some(x) = v.as_f64() {
                self.sum.add(x);
            }
            *self.values.entry(v.clone()).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, v: Option<&Value>) {
        self.count -= 1;
        if let Some(v) = v {
            if let Some(x) = v.as_f64() {
                self.sum.add(-x);
            }
            if let Some(c) = self.values.get_mut(v) {
                *c -= 1;
                if *c == 0 {
                    self.values.remove(v);
                }
            }
        }
    }

    fn value(&self, func: AggFunc, sum_is_int: bool) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if sum_is_int {
                    Value::Int(self.total().round() as i64)
                } else {
                    Value::Float(self.total())
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.total() / self.count as f64)
                }
            }
            AggFunc::Min => self.values.keys().next().cloned().unwrap_or(Value::Null),
            AggFunc::Max => self
                .values
                .keys()
                .next_back()
                .cloned()
                .unwrap_or(Value::Null),
        }
    }
}

impl AggregateState {
    fn new(query: &AnalyzedQuery) -> Result<AggregateState> {
        let schema = &query.streams[0].schema;
        let mut group_sources = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            group_sources.push(
                schema.index_of(&g.name).ok_or_else(|| {
                    CosmosError::Engine(format!("unknown grouping attribute {g}"))
                })?,
            );
        }
        let mut agg_args = Vec::new();
        let mut funcs = Vec::new();
        let mut sum_is_int = Vec::new();
        for col in &query.output {
            if let OutputColumn::Agg { func, arg } = col {
                funcs.push(*func);
                match arg {
                    Some(a) => {
                        let ai = schema.index_of(&a.name).ok_or_else(|| {
                            CosmosError::Engine(format!("unknown aggregate argument {a}"))
                        })?;
                        agg_args.push(Some(ai));
                        sum_is_int.push(schema.fields()[ai].ty == AttrType::Int);
                    }
                    None => {
                        agg_args.push(None);
                        sum_is_int.push(false);
                    }
                }
            }
        }
        Ok(AggregateState {
            window: VecDeque::new(),
            history: VecDeque::new(),
            horizon: Timestamp(i64::MIN),
            groups: FxHashMap::default(),
            group_sources,
            agg_args,
            funcs,
            sum_is_int,
        })
    }

    /// The tuple's group key and aggregate-argument values.
    fn key_and_args(&self, tuple: &Tuple) -> (Vec<Value>, Vec<Value>) {
        let key = self
            .group_sources
            .iter()
            .map(|&i| tuple.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        let args = self
            .agg_args
            .iter()
            .map(|src| match src {
                Some(i) => tuple.get(*i).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect();
        (key, args)
    }

    /// Fold one entry's arguments into a set of accumulators.
    fn accumulate(agg_args: &[Option<usize>], accs: &mut [Accumulator], args: &[Value]) {
        for (ai, acc) in accs.iter_mut().enumerate() {
            acc.insert(if agg_args[ai].is_some() {
                Some(&args[ai])
            } else {
                None
            });
        }
    }

    /// Assemble the output row for `key` from `accs`, in SELECT order.
    fn output_row(&self, query: &AnalyzedQuery, key: &[Value], accs: &[Accumulator]) -> Vec<Value> {
        let mut agg_i = 0usize;
        query
            .output
            .iter()
            .map(|col| match col {
                OutputColumn::Attr(a) => {
                    let gi = query
                        .group_by
                        .iter()
                        .position(|g| g == a)
                        .expect("validated: attr in GROUP BY");
                    key[gi].clone()
                }
                OutputColumn::Agg { .. } => {
                    let v = accs[agg_i].value(self.funcs[agg_i], self.sum_is_int[agg_i]);
                    agg_i += 1;
                    v
                }
            })
            .collect()
    }

    /// Advance the window to `tuple.timestamp`, fold the tuple in, and
    /// return the output row for its group. With `retain_floor` set
    /// (disorder mode, `Revise` policy), entries leaving the live
    /// window move to `history` — still outside the accumulators —
    /// until even a maximally-late tuple could not reach them.
    fn push(
        &mut self,
        query: &AnalyzedQuery,
        tuple: &Tuple,
        retain_floor: Option<Timestamp>,
    ) -> Vec<Value> {
        let tau = tuple.timestamp;
        let w = query.streams[0].window;
        if !w.is_infinite() {
            let horizon = tau - w;
            self.horizon = self.horizon.max(horizon);
            while self.window.front().is_some_and(|(ts, _, _)| *ts < horizon) {
                let (ts, key, args) = self.window.pop_front().expect("checked front");
                let accs = self.groups.get_mut(&key).expect("group exists");
                for (ai, acc) in accs.iter_mut().enumerate() {
                    acc.remove(if self.agg_args[ai].is_some() {
                        Some(&args[ai])
                    } else {
                        None
                    });
                }
                if accs[0].count == 0 {
                    self.groups.remove(&key);
                }
                if retain_floor.is_some() {
                    self.history.push_back((ts, key, args));
                }
            }
            if let Some(floor) = retain_floor {
                let keep = floor - w;
                while self.history.front().is_some_and(|(ts, _, _)| *ts < keep) {
                    self.history.pop_front();
                }
            }
        }
        let (key, args) = self.key_and_args(tuple);
        let accs = self
            .groups
            .entry(key.clone())
            .or_insert_with(|| vec![Accumulator::default(); self.funcs.len()]);
        Self::accumulate(&self.agg_args, accs, &args);
        self.window.push_back((tau, key.clone(), args));
        let accs = &self.groups[&key];
        self.output_row(query, &key, accs)
    }

    /// Recompute the row for `key` as of time `at` from scratch, by
    /// scanning every retained contribution in `(at − w, at]`.
    fn recompute_row(
        &self,
        query: &AnalyzedQuery,
        key: &[Value],
        at: Timestamp,
        w: TimeDelta,
    ) -> Vec<Value> {
        let mut accs = vec![Accumulator::default(); self.funcs.len()];
        for (ts, k, args) in self.history.iter().chain(self.window.iter()) {
            if *ts > at || k != key {
                continue;
            }
            if !w.is_infinite() && *ts < at - w {
                continue;
            }
            Self::accumulate(&self.agg_args, &mut accs, args);
        }
        self.output_row(query, key, &accs)
    }

    /// Fold a late tuple in as if it had arrived in order and return
    /// the rows to emit: first the late tuple's own row as of its
    /// timestamp, then one revision row for every already-processed
    /// same-group contribution whose window contained it.
    fn revise(&mut self, query: &AnalyzedQuery, tuple: &Tuple) -> Vec<(Timestamp, Vec<Value>)> {
        let ts = tuple.timestamp;
        let w = query.streams[0].window;
        let (key, args) = self.key_and_args(tuple);
        if ts >= self.horizon {
            // Still inside the live window: future in-order rows must
            // see it, so it joins the accumulators too.
            let accs = self
                .groups
                .entry(key.clone())
                .or_insert_with(|| vec![Accumulator::default(); self.funcs.len()]);
            Self::accumulate(&self.agg_args, accs, &args);
            let pos = self
                .window
                .iter()
                .position(|(t, _, _)| *t > ts)
                .unwrap_or(self.window.len());
            self.window.insert(pos, (ts, key.clone(), args));
        } else {
            let pos = self
                .history
                .iter()
                .position(|(t, _, _)| *t > ts)
                .unwrap_or(self.history.len());
            self.history.insert(pos, (ts, key.clone(), args));
        }
        let mut rows = vec![(ts, self.recompute_row(query, &key, ts, w))];
        // Revise same-group contributions at (ts, ts + w]: their rows
        // were emitted before this tuple was known.
        for (uts, k, _) in self.history.iter().chain(self.window.iter()) {
            if *uts <= ts || k != &key {
                continue;
            }
            if !w.is_infinite() && *uts > ts + w {
                continue;
            }
            rows.push((*uts, self.recompute_row(query, &key, *uts, w)));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzedQuery;
    use cosmos_cql::parse_query;

    fn open_schema() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("start_price", AttrType::Float),
            ("timestamp", AttrType::Int),
        ])
    }

    fn closed_schema() -> Schema {
        Schema::of(&[
            ("itemID", AttrType::Int),
            ("buyerID", AttrType::Int),
            ("timestamp", AttrType::Int),
        ])
    }

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "Open" => Some(open_schema()),
            "Closed" => Some(closed_schema()),
            "S" => Some(Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)])),
            _ => None,
        }
    }

    fn executor(text: &str) -> Executor {
        let q = AnalyzedQuery::analyze(&parse_query(text).unwrap(), catalog).unwrap();
        Executor::new(q, "result").unwrap()
    }

    fn open_tuple(ts: i64, item: i64, price: f64) -> Tuple {
        Tuple::new(
            "Open",
            Timestamp(ts),
            vec![Value::Int(item), Value::Float(price), Value::Int(ts)],
        )
    }

    fn closed_tuple(ts: i64, item: i64, buyer: i64) -> Tuple {
        Tuple::new(
            "Closed",
            Timestamp(ts),
            vec![Value::Int(item), Value::Int(buyer), Value::Int(ts)],
        )
    }

    #[test]
    fn single_stream_select_project() {
        let mut ex = executor("SELECT k FROM S [Now] WHERE v > 1.0");
        let pass = Tuple::new("S", Timestamp(1), vec![Value::Int(7), Value::Float(2.0)]);
        let fail = Tuple::new("S", Timestamp(2), vec![Value::Int(8), Value::Float(0.5)]);
        let out = ex.push(&pass);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(7)]);
        assert_eq!(out[0].stream.as_str(), "result");
        assert_eq!(out[0].timestamp, Timestamp(1));
        assert!(ex.push(&fail).is_empty());
        assert_eq!(ex.consumed(), 2);
        assert_eq!(ex.emitted(), 1);
        assert_eq!(ex.result_schema().names().collect::<Vec<_>>(), vec!["k"]);
        assert_eq!(ex.result_stream().as_str(), "result");
    }

    #[test]
    fn window_join_follows_lemma1() {
        // Open [Range 3 Hour], Closed [Now]: a closing auction joins
        // openings within the last 3 hours (and nothing newer).
        let mut ex = executor(
            "SELECT O.itemID, C.buyerID FROM Open [Range 3 Hour] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        let h = 3_600_000i64;
        assert!(ex.push(&open_tuple(0, 1, 10.0)).is_empty());
        assert!(ex.push(&open_tuple(h, 2, 20.0)).is_empty());
        // close item 1 at 2h: the opening at t=0 is within 3h → join
        let out = ex.push(&closed_tuple(2 * h, 1, 99));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(99)]);
        assert_eq!(out[0].timestamp, Timestamp(2 * h));
        // close item 1 again at 4h: the opening at t=0 has expired (> 3h)
        assert!(ex.push(&closed_tuple(4 * h, 1, 100)).is_empty());
        // close item 2 at 4h: opening at t=1h is exactly 3h old → joins
        let out = ex.push(&closed_tuple(4 * h, 2, 101)).len();
        assert_eq!(out, 1);
    }

    #[test]
    fn now_window_requires_equal_timestamps() {
        // Closed [Now]: an opening arriving after a closing with a
        // smaller timestamp must not join it.
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        assert!(ex.push(&closed_tuple(1000, 5, 1)).is_empty());
        // opening at the same timestamp joins the buffered closing
        assert_eq!(ex.push(&open_tuple(1000, 5, 1.0)).len(), 1);
        // opening later does not (closing's Now window has passed)
        assert!(ex.push(&open_tuple(2000, 5, 1.0)).is_empty());
    }

    #[test]
    fn join_predicates_filter_combinations() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
             WHERE O.itemID = C.itemID",
        );
        ex.push(&open_tuple(0, 1, 1.0));
        ex.push(&open_tuple(0, 2, 1.0));
        let out = ex.push(&closed_tuple(10, 2, 50));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(2)]);
    }

    #[test]
    fn selections_prune_before_buffering() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Range 1 Hour] O, Closed [Range 1 Hour] C \
             WHERE O.itemID = C.itemID AND O.start_price > 15.0",
        );
        ex.push(&open_tuple(0, 1, 10.0)); // filtered out
        ex.push(&open_tuple(0, 2, 20.0)); // kept
        let out = ex.push(&closed_tuple(10, 1, 50));
        assert!(out.is_empty());
        let out = ex.push(&closed_tuple(10, 2, 51));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unbounded_windows_never_evict() {
        let mut ex = executor(
            "SELECT O.itemID FROM Open [Unbounded] O, Closed [Now] C \
             WHERE O.itemID = C.itemID",
        );
        ex.push(&open_tuple(0, 1, 1.0));
        let far = 1_000_000_000i64;
        assert_eq!(ex.push(&closed_tuple(far, 1, 9)).len(), 1);
    }

    #[test]
    fn distinct_deduplicates_result_values() {
        let mut ex = executor("SELECT DISTINCT k FROM S [Now]");
        let t1 = Tuple::new("S", Timestamp(1), vec![Value::Int(7), Value::Float(0.0)]);
        let t2 = Tuple::new("S", Timestamp(2), vec![Value::Int(7), Value::Float(1.0)]);
        let t3 = Tuple::new("S", Timestamp(3), vec![Value::Int(8), Value::Float(1.0)]);
        assert_eq!(ex.push(&t1).len(), 1);
        assert_eq!(ex.push(&t2).len(), 0);
        assert_eq!(ex.push(&t3).len(), 1);
    }

    #[test]
    fn irrelevant_streams_are_ignored() {
        let mut ex = executor("SELECT k FROM S [Now]");
        let other = Tuple::new("Unrelated", Timestamp(1), vec![Value::Int(1)]);
        assert!(ex.push(&other).is_empty());
        assert_eq!(ex.consumed(), 0);
    }

    #[test]
    fn self_join_binds_both_sides() {
        let mut ex = executor(
            "SELECT A.itemID FROM Open [Range 1 Hour] A, Open [Range 1 Hour] B \
             WHERE A.itemID = B.itemID",
        );
        // first arrival: both windows contain the tuple at its own
        // timestamp, so it joins itself once (CQL self-join semantics)
        let out = ex.push(&open_tuple(0, 1, 1.0));
        assert_eq!(out.len(), 1);
        // second arrival t2: pairs (t2, t1), (t1, t2) and (t2, t2)
        let out = ex.push(&open_tuple(10, 1, 2.0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn grouped_sliding_aggregates() {
        let mut ex = executor(
            "SELECT k, COUNT(*), AVG(v), MIN(v), MAX(v), SUM(v) \
             FROM S [Range 10 Second] GROUP BY k",
        );
        let t = |ts: i64, k: i64, v: f64| {
            Tuple::new("S", Timestamp(ts), vec![Value::Int(k), Value::Float(v)])
        };
        let r1 = ex.push(&t(0, 1, 10.0));
        assert_eq!(
            r1[0].values(),
            &[
                Value::Int(1),
                Value::Int(1),
                Value::Float(10.0),
                Value::Float(10.0),
                Value::Float(10.0),
                Value::Float(10.0)
            ]
        );
        let r2 = ex.push(&t(5_000, 1, 20.0));
        assert_eq!(
            r2[0].values(),
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Float(15.0),
                Value::Float(10.0),
                Value::Float(20.0),
                Value::Float(30.0)
            ]
        );
        // other group independent
        let r3 = ex.push(&t(6_000, 2, 100.0));
        assert_eq!(r3[0].values()[1], Value::Int(1));
        // at t=12s the t=0 tuple has left the 10s window
        let r4 = ex.push(&t(12_000, 1, 30.0));
        assert_eq!(
            r4[0].values(),
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Float(25.0),
                Value::Float(20.0),
                Value::Float(30.0),
                Value::Float(50.0)
            ]
        );
    }

    #[test]
    fn count_star_without_group_by() {
        let mut ex = executor("SELECT COUNT(*) FROM S [Range 5 Second]");
        let t = |ts: i64| Tuple::new("S", Timestamp(ts), vec![Value::Int(1), Value::Float(0.0)]);
        assert_eq!(ex.push(&t(0))[0].values(), &[Value::Int(1)]);
        assert_eq!(ex.push(&t(1_000))[0].values(), &[Value::Int(2)]);
        assert_eq!(ex.push(&t(4_000))[0].values(), &[Value::Int(3)]);
        // at t=7s the 5s window keeps only t=4s and t=7s
        assert_eq!(ex.push(&t(7_000))[0].values(), &[Value::Int(2)]);
    }

    #[test]
    fn push_projected_realigns_narrow_tuples() {
        // The CBN delivers only {k, v} (early projection); the executor
        // must realign them to the full stream schema.
        let mut ex = executor("SELECT k FROM S [Now] WHERE v > 1.0");
        let narrow_schema = Schema::of(&[("v", AttrType::Float), ("k", AttrType::Int)]);
        // note: reversed column order relative to the registered schema
        let t = Tuple::new("S", Timestamp(1), vec![Value::Float(2.0), Value::Int(7)]);
        let out = ex.push_projected(&t, &narrow_schema);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(7)]);
        // a tuple missing the filtered attribute cannot satisfy it
        let missing = Schema::of(&[("k", AttrType::Int)]);
        let t2 = Tuple::new("S", Timestamp(2), vec![Value::Int(8)]);
        assert!(ex.push_projected(&t2, &missing).is_empty());
        // full-schema tuples take the fast path
        let full = Tuple::new("S", Timestamp(3), vec![Value::Int(9), Value::Float(5.0)]);
        let full_schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Float)]);
        assert_eq!(ex.push_projected(&full, &full_schema).len(), 1);
        // tuples from unknown streams are ignored
        let other = Tuple::new("Other", Timestamp(4), vec![Value::Int(1)]);
        assert!(ex.push_projected(&other, &missing).is_empty());
    }

    #[test]
    fn integer_sums_stay_integers() {
        let cat =
            |n: &str| (n == "T").then(|| Schema::of(&[("g", AttrType::Int), ("x", AttrType::Int)]));
        let q = AnalyzedQuery::analyze(
            &parse_query("SELECT g, SUM(x) FROM T [Unbounded] GROUP BY g").unwrap(),
            cat,
        )
        .unwrap();
        let mut ex = Executor::new(q, "r").unwrap();
        let t = |ts: i64, g: i64, x: i64| {
            Tuple::new("T", Timestamp(ts), vec![Value::Int(g), Value::Int(x)])
        };
        ex.push(&t(0, 1, 5));
        let out = ex.push(&t(1, 1, 7));
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(12)]);
        assert!(matches!(out[0].values()[1], Value::Int(_)));
    }
}
