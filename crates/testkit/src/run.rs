//! Scenario execution against a real `Cosmos` deployment.
//!
//! The runner drives the event schedule and keeps, per query, the
//! bookkeeping the oracles need:
//!
//! - `published` — every tuple the system accepted, in order. The
//!   discrete-event `publish` drives each tuple to completion, so this
//!   sequence *is* the global input history.
//! - epochs — COSMOS restarts a representative executor with empty
//!   windows whenever its group changes shape (a widening member, an
//!   [`cosmos::Cosmos::unsubscribe`] shrink, a
//!   [`cosmos::Cosmos::reoptimize_groups`] rebuild). Delivered results
//!   are only comparable against a reference evaluation that starts at
//!   the same point, so the runner snapshots every query's
//!   [`cosmos::Cosmos::executor_generation`] after each event and opens
//!   a new [`Epoch`] whenever it moves. A query that joins a warm group
//!   without widening it inherits a running executor — its epoch's
//!   `exec_start` (where the executor's history began) then predates its
//!   `member_start` (where the query subscribed), and the oracle skips
//!   the reference outputs produced in between.

use crate::scenario::{Event, Scenario};
use cosmos::{Cosmos, CosmosConfig, DisorderRuntime, DisorderStats, LatePolicy};
use cosmos_cbn::RegistryMode;
use cosmos_spe::AnalyzedQuery;
use cosmos_types::{NodeId, QueryId, Result, StreamName, Tuple};
use cosmos_workload::sensor_catalog;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Per-run toggles the metamorphic oracles vary.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Query merging (Section 4) on or off.
    pub merging: bool,
    /// Inject a tree re-optimization after every event (results must be
    /// invariant — routing is semantically transparent).
    pub optimize_every_event: bool,
    /// Publish via [`cosmos::Cosmos::publish_batch`], batching each
    /// publish event's maximal consecutive same-stream runs (results
    /// must be invariant — batching is semantically transparent).
    pub batched: bool,
    /// Run the static verifier ([`cosmos_verify::verify_snapshot`]) on a
    /// fresh [`cosmos::NetworkSnapshot`] after every routing-relevant
    /// event (everything but plain publishes — those leave routing state
    /// untouched, unless `optimize_every_event` re-optimizes after them
    /// too). Violations are collected in
    /// [`RunOutcome::static_violations`]; they prove a broken invariant
    /// *before* any tuple exercises it.
    pub static_verify: bool,
    /// Run the bound-soundness oracle ([`crate::bound::BoundTracker`])
    /// after every event: measured delivered counts, per-node consumed
    /// bytes, and executor state sizes must all be dominated by the
    /// static `cosmos-bound` bounds instantiated with the observed
    /// trace envelope. Violations are collected in
    /// [`RunOutcome::bound_violations`].
    pub bound_checks: bool,
    /// Arm the overload controller with this uniform per-node byte
    /// budget per rate window ([`cosmos::Cosmos::set_overload`], Shed
    /// policy). The runner then checks the conservation identity
    /// `offered = delivered + shed + staged` (tuples *and* bytes) for
    /// every query's ledger after every event, and that nothing stays
    /// staged after closure. `None` leaves the controller unarmed.
    pub overload_budget: Option<u64>,
    /// Fault-injection canary: silently drop the shed-side ledger
    /// accounting ([`cosmos::overload::faultinject`]) so that any
    /// actual shed breaks the conservation identity — the oracle must
    /// attribute the failure to the shed ledger. Only meaningful with a
    /// budget tight enough to shed.
    pub inject_shed_leak: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            merging: true,
            optimize_every_event: false,
            batched: false,
            static_verify: true,
            bound_checks: true,
            overload_budget: None,
            inject_shed_leak: false,
        }
    }
}

/// One window-state lifetime of the executor serving a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Executor generation stamp.
    pub generation: u64,
    /// Index into `published` where this executor's input history began.
    pub exec_start: usize,
    /// Index into `published` where this query started receiving from
    /// the executor (`== exec_start` except for warm group joins).
    pub member_start: usize,
    /// Length of the query's delivery buffer when the epoch opened.
    pub delivered_start: usize,
    /// System-wide `late + revisions + shed` disorder counter when the
    /// epoch opened (always 0 in order). The convergence oracle compares
    /// an epoch exactly only when this counter did not move across it:
    /// staging-absorbed disorder converges bit-for-bit, while the rare
    /// revise/shed paths are covered by the `crates/spe` directed tests
    /// and the conservation counters instead.
    pub late_start: u64,
}

/// One accepted query's bookkeeping across a run.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Scenario-stable label.
    pub label: u32,
    /// CQL text.
    pub text: String,
    /// The id this run assigned.
    pub qid: QueryId,
    /// Analyzed form (for reference evaluation).
    pub analyzed: AnalyzedQuery,
    /// Executor epochs, in order.
    pub epochs: Vec<Epoch>,
    /// Tuples delivered to the user, in delivery order.
    pub delivered: Vec<Tuple>,
    /// `published` length at withdrawal (`None` while live at the end).
    pub input_end: Option<usize>,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Accepted queries in submission order.
    pub queries: Vec<QueryRun>,
    /// `(label, error)` of rejected submissions.
    pub rejected: Vec<(u32, String)>,
    /// Accepted source tuples, in publish order.
    pub published: Vec<Tuple>,
    /// Tuples bounced for lack of an advertised stream.
    pub skipped_publishes: usize,
    /// Events skipped because their precondition no longer held.
    pub skipped_events: usize,
    /// [`Cosmos::routing_digest`] after every event.
    pub routing_digests: Vec<u64>,
    /// Static verifier violations, as `(event index, headline)` — empty
    /// on a healthy run (or when [`RunOptions::static_verify`] is off).
    /// Deliberately excluded from `digest`: the digest compares what the
    /// system *did*, the verifier what it *would do*.
    pub static_violations: Vec<(usize, String)>,
    /// JSON of the first snapshot the verifier rejected.
    pub first_violation_snapshot: Option<String>,
    /// JSON of the network snapshot after the last event.
    pub final_snapshot: Option<String>,
    /// Metrics-conservation violations, as `(event index, detail)` —
    /// the metrics layer's lifetime counters must agree exactly with
    /// the driver's own accounting after every event. Excluded from
    /// `digest` (like `static_violations`).
    pub metrics_violations: Vec<(usize, String)>,
    /// JSON of the final [`cosmos::MetricsSnapshot`]. Compared for
    /// byte equality across the determinism replay (same mode only:
    /// router plan-cache counters legitimately differ between
    /// per-tuple and batched publishing).
    pub metrics_json: Option<String>,
    /// Bound-soundness violations, as `(event index, detail)` — a
    /// measured metric exceeded its static `cosmos-bound` bound under
    /// the observed trace envelope. Empty on a healthy run (or when
    /// [`RunOptions::bound_checks`] is off). Excluded from `digest`
    /// (like `static_violations`).
    pub bound_violations: Vec<(usize, String)>,
    /// Runtime-determinism violations, as `(event index, detail)` —
    /// the dynamic twin of `cosmos-detlint`'s D0201/D0301: the metrics
    /// hub's virtual clock must be driven only by tuple timestamps, so
    /// it may never run ahead of the largest published timestamp nor go
    /// backward. A wall-clock or ambient-randomness leak into the
    /// metrics path shows up here at the first event it perturbs.
    /// Excluded from `digest` (like `static_violations`).
    pub runtime_violations: Vec<(usize, String)>,
    /// The final measured-vs-bound comparison, entry per subject —
    /// the `cosmos-sim bounds` report.
    pub bound_report: Vec<crate::bound::BoundReportEntry>,
    /// Digest over delivered results, epochs, and routing state — equal
    /// across runs iff the runs were observably identical.
    pub digest: u64,
    /// Final disorder conservation counters (`None` for in-order runs).
    /// `arrived == drained + staged + shed + duplicates` must hold, and
    /// `staged` must be 0 after stream closure.
    pub disorder_totals: Option<DisorderStats>,
    /// Total tuples the overload controller shed across all queries
    /// (always 0 when [`RunOptions::overload_budget`] is `None`). The
    /// semantic oracles back off when this is nonzero: a shed delivery
    /// buffer is legitimately a sub-multiset of the reference output,
    /// and the conservation ledger is the dedicated check for it.
    pub overload_shed_tuples: u64,
}

/// The system-wide `late + revisions + shed` counter — the part of the
/// disorder machinery the convergence oracle cannot replay exactly.
fn lateish(sys: &Cosmos) -> u64 {
    let t = sys.disorder_totals();
    t.late + t.revisions + t.shed
}

/// RAII reset for the shed-leak fault injection: the flag is process
/// global, so it must never outlive the run that armed it (an early
/// `?` return included).
struct ShedLeakGuard(bool);

impl Drop for ShedLeakGuard {
    fn drop(&mut self) {
        if self.0 {
            cosmos::overload::faultinject::set_drop_shed_ledger(false);
        }
    }
}

/// Check every overload ledger's conservation identity, attributing a
/// broken balance explicitly to the shed ledger (it is the only
/// counter a policy increments outside the delivery path).
fn overload_conservation(
    sys: &Cosmos,
    queries: &[QueryRun],
    ev_idx: usize,
    out: &mut Vec<(usize, String)>,
) {
    let Some(ctl) = sys.overload() else { return };
    for q in queries {
        let l = ctl.ledger(q.qid);
        if !l.conserved() {
            out.push((
                ev_idx,
                format!(
                    "overload shed-ledger conservation broken for query #{}: offered \
                     {}t/{}b != delivered {}t/{}b + shed {}t/{}b + staged {}t/{}b",
                    q.label,
                    l.offered_tuples,
                    l.offered_bytes,
                    l.delivered_tuples,
                    l.delivered_bytes,
                    l.shed_tuples,
                    l.shed_bytes,
                    l.staged_tuples,
                    l.staged_bytes,
                ),
            ));
        }
    }
}

/// Execute a scenario once.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> Result<RunOutcome> {
    let sc = &scenario.config;
    let nodes = sc.nodes as u32;
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: sc.nodes,
        topology: sc.topology.kind(),
        processor_fraction: sc.processor_fraction,
        registry_mode: if sc.dht_replicas == 0 {
            RegistryMode::Flooding
        } else {
            RegistryMode::Dht {
                replicas: sc.dht_replicas,
            }
        },
        seed: sc.cosmos_seed,
        affinity_candidates: sc.affinity_candidates,
        merging_enabled: opts.merging,
        per_source_trees: sc.per_source_trees,
    })?;
    // Disordered scenario: arm the watermark machinery. The injected
    // displacement of any non-duplicate tuple is strictly under
    // `spec.bound()`, so a watermark lag of `bound` with a matching
    // revision grace makes the late path unreachable except for
    // memory-evicted duplicates — disorder is absorbed by staging.
    if let Some(spec) = &sc.disorder {
        let bound = spec.bound();
        sys.set_disorder(Some(DisorderRuntime {
            bound,
            policy: LatePolicy::Revise { grace: bound },
        }));
    }
    if let Some(budget) = opts.overload_budget {
        sys.set_overload(Some(cosmos::OverloadConfig::uniform_bytes(budget)));
    }
    let _leak_guard = ShedLeakGuard(opts.inject_shed_leak);
    if opts.inject_shed_leak {
        cosmos::overload::faultinject::set_drop_shed_ledger(true);
    }
    let sensors = sensor_catalog();

    let mut queries: Vec<QueryRun> = Vec::new();
    let mut by_label: HashMap<u32, usize> = HashMap::new();
    let mut rejected: Vec<(u32, String)> = Vec::new();
    let mut published: Vec<Tuple> = Vec::new();
    let mut skipped_publishes = 0usize;
    let mut skipped_events = 0usize;
    // Generation → `published` length when first observed. Executors are
    // only created while handling an event and every live member
    // observes its generation at the end of that same event, so the
    // first observation is the creation point.
    let mut gen_created_at: HashMap<u64, usize> = HashMap::new();
    let mut routing_digests: Vec<u64> = Vec::new();
    let mut static_violations: Vec<(usize, String)> = Vec::new();
    let mut first_violation_snapshot: Option<String> = None;
    let mut metrics_violations: Vec<(usize, String)> = Vec::new();
    let mut bound_violations: Vec<(usize, String)> = Vec::new();
    let mut runtime_violations: Vec<(usize, String)> = Vec::new();
    // Runtime-determinism probe state: the largest timestamp among
    // accepted publishes (the only legitimate clock source) and the
    // hub's reading at the previous event boundary.
    let mut max_published_ms: i64 = 0;
    let mut last_now_ms: i64 = 0;
    let mut tracker = opts
        .bound_checks
        .then(|| crate::bound::BoundTracker::new(nodes));
    if let (Some(tr), Some(spec)) = (tracker.as_mut(), sc.disorder.as_ref()) {
        tr.set_disorder_bound(Some(spec.bound()));
    }

    for (ev_idx, ev) in scenario.events.iter().enumerate() {
        match ev {
            Event::Register { stream, origin } => {
                let key = StreamName::from(stream.as_str());
                match (sensors.schema(&key), sensors.stats(&key)) {
                    (Some(schema), Some(stats)) => {
                        if sys
                            .register_stream(
                                stream.as_str(),
                                schema.clone(),
                                stats.clone(),
                                NodeId(*origin % nodes),
                            )
                            .is_err()
                        {
                            skipped_events += 1;
                        }
                    }
                    _ => skipped_events += 1,
                }
            }
            Event::Submit { label, user, text } => {
                match sys.submit_query(text, NodeId(*user % nodes)) {
                    Ok(qid) => {
                        if let Some(tr) = tracker.as_mut() {
                            tr.on_submit(qid, NodeId(*user % nodes));
                        }
                        let analyzed = AnalyzedQuery::analyze(
                            &cosmos_cql::parse_query(text)?,
                            sys.catalog().schema_fn(),
                        )?;
                        by_label.insert(*label, queries.len());
                        queries.push(QueryRun {
                            label: *label,
                            text: text.clone(),
                            qid,
                            analyzed,
                            epochs: Vec::new(),
                            delivered: Vec::new(),
                            input_end: None,
                        });
                    }
                    Err(e) => rejected.push((*label, e.to_string())),
                }
            }
            Event::Publish { tuples } => {
                if opts.batched {
                    // Scenario publish batches interleave streams; cut
                    // them into the maximal same-stream runs that
                    // `publish_batch` accepts. A run fails atomically —
                    // exactly the tuples per-tuple publishing would skip
                    // (advertisement cannot change inside one event).
                    let mut rest: &[Tuple] = tuples;
                    while let Some(first) = rest.first() {
                        let len = rest.iter().take_while(|t| t.stream == first.stream).count();
                        let (run, tail) = rest.split_at(len);
                        rest = tail;
                        match sys.publish_batch(run) {
                            Ok(()) => {
                                if let Some(tr) = tracker.as_mut() {
                                    run.iter().for_each(|t| tr.on_publish(t));
                                }
                                for t in run {
                                    max_published_ms = max_published_ms.max(t.timestamp.millis());
                                }
                                published.extend(run.iter().cloned());
                            }
                            Err(_) => skipped_publishes += run.len(),
                        }
                    }
                } else {
                    for t in tuples {
                        match sys.publish(t) {
                            Ok(()) => {
                                if let Some(tr) = tracker.as_mut() {
                                    tr.on_publish(t);
                                }
                                max_published_ms = max_published_ms.max(t.timestamp.millis());
                                published.push(t.clone());
                            }
                            Err(_) => skipped_publishes += 1,
                        }
                    }
                }
            }
            Event::Unsubscribe { label } => match by_label.get(label) {
                Some(&i)
                    if queries[i].input_end.is_none()
                        && sys.unsubscribe(queries[i].qid).is_ok() =>
                {
                    queries[i].input_end = Some(published.len());
                    queries[i].delivered = sys.results(queries[i].qid).to_vec();
                }
                _ => skipped_events += 1,
            },
            Event::Reoptimize => {
                if sys.reoptimize_groups().is_err() {
                    skipped_events += 1;
                }
            }
            Event::OptimizeTree => {
                sys.optimize_tree(cosmos_overlay::OptimizerConfig::default());
            }
            Event::FailLink { nth } => {
                let edges: Vec<(NodeId, NodeId)> = sys.tree().edges().collect();
                if edges.is_empty() {
                    skipped_events += 1;
                } else {
                    let (a, b) = edges[*nth as usize % edges.len()];
                    if sys.fail_tree_link(a, b).is_err() {
                        skipped_events += 1;
                    }
                }
            }
        }
        if opts.optimize_every_event {
            sys.optimize_tree(cosmos_overlay::OptimizerConfig::default());
        }
        // Epoch snapshot: cut a new epoch for every live query whose
        // executor generation moved during this event.
        for q in queries.iter_mut() {
            if q.input_end.is_some() {
                continue;
            }
            let Some(generation) = sys.executor_generation(q.qid) else {
                continue;
            };
            let exec_start = *gen_created_at.entry(generation).or_insert(published.len());
            if q.epochs.last().map(|e| e.generation) != Some(generation) {
                q.epochs.push(Epoch {
                    generation,
                    exec_start,
                    member_start: published.len(),
                    delivered_start: sys.results(q.qid).len(),
                    late_start: lateish(&sys),
                });
            }
        }
        routing_digests.push(sys.routing_digest());
        // Metrics conservation: the metrics layer's lifetime counters
        // must agree with the driver's accounting at every event
        // boundary — Σ per-link metric bytes against `total_bytes()`,
        // and per-query delivered counts against the delivery buffers
        // (withdrawn queries keep their buffers, so they stay covered).
        let hub = sys.metrics_hub();
        if hub.link_bytes_total() != sys.total_bytes() {
            metrics_violations.push((
                ev_idx,
                format!(
                    "link byte conservation broken: metrics {} vs accounted {}",
                    hub.link_bytes_total(),
                    sys.total_bytes()
                ),
            ));
        }
        for q in &queries {
            let want = sys.results(q.qid).len() as u64;
            let got = hub.delivered_count(q.qid);
            if got != want {
                metrics_violations.push((
                    ev_idx,
                    format!(
                        "delivery conservation broken for query #{}: metrics {got} vs delivered {want}",
                        q.label
                    ),
                ));
            }
        }
        // Overload accounting: every armed query's ledger must balance
        // (`offered = delivered + shed + staged`, byte-exact) at every
        // event boundary — a tuple dropped without a shed-ledger entry
        // surfaces here, attributed to the shed ledger.
        overload_conservation(&sys, &queries, ev_idx, &mut metrics_violations);
        // Runtime-determinism probe (the dynamic twin of detlint's
        // D0201/D0301): the hub is clocked by tuple timestamps alone.
        // Operator outputs are stamped with their completing arrival's
        // timestamp τ, so every legitimate advance is bounded by the
        // largest accepted publish; a wall clock leaking into the
        // metrics path would push virtual time past that ceiling, and
        // any regress would corrupt the rate windows.
        let now_ms = hub.now_ms();
        if now_ms > max_published_ms {
            runtime_violations.push((
                ev_idx,
                format!(
                    "virtual clock ran ahead of the data: hub at {now_ms} ms but the \
                     largest published tuple timestamp is {max_published_ms} ms"
                ),
            ));
        }
        if now_ms < last_now_ms {
            runtime_violations.push((
                ev_idx,
                format!("virtual clock went backward: {last_now_ms} ms -> {now_ms} ms"),
            ));
        }
        last_now_ms = now_ms;
        // Bound-soundness oracle: every measured metric must stay under
        // the static bound instantiated with the trace observed so far.
        // Bounds are monotone in the envelope and the measurements are
        // lifetime counters or current occupancies, so checking after
        // every event also catches transient state peaks.
        if let Some(tr) = tracker.as_mut() {
            tr.observe_processors(&sys, &queries);
            bound_violations.extend(tr.check(&sys, &queries).into_iter().map(|v| (ev_idx, v)));
        }
        // Static oracle: prove V1–V5 over the routing state this event
        // left behind. Plain publishes don't move routing state, so
        // re-verifying after them would only re-prove the same snapshot.
        let routing_changed = !matches!(ev, Event::Publish { .. }) || opts.optimize_every_event;
        if opts.static_verify && routing_changed {
            let snap = sys.snapshot()?;
            let diags = cosmos_verify::verify_snapshot(&snap);
            if cosmos_verify::has_violations(&diags) {
                if first_violation_snapshot.is_none() {
                    first_violation_snapshot = Some(snap.to_json()?);
                }
                static_violations.extend(
                    diags
                        .iter()
                        .filter(|d| d.severity == cosmos_verify::VerifySeverity::Error)
                        .map(|d| (ev_idx, d.headline())),
                );
            }
        }
    }

    // End of schedule: close every source stream. In disorder mode this
    // disseminates a final +∞ watermark per source, draining all staged
    // tuples, closing every window, and pruning the routers' interest in
    // the closed streams; in order it is a no-op, keeping in-order runs
    // bit-for-bit identical to the pre-disorder harness.
    sys.close_streams();
    let disorder_totals = sc.disorder.is_some().then(|| sys.disorder_totals());
    if let Some(totals) = &disorder_totals {
        let ev_idx = scenario.events.len();
        if !totals.conserved() {
            metrics_violations.push((
                ev_idx,
                format!("disorder tuple conservation broken after closure: {totals:?}"),
            ));
        }
        if totals.staged != 0 {
            metrics_violations.push((
                ev_idx,
                format!("{} tuples still staged after stream closure", totals.staged),
            ));
        }
        let hub = sys.metrics_hub();
        if hub.link_bytes_total() != sys.total_bytes() {
            metrics_violations.push((
                ev_idx,
                format!(
                    "link byte conservation broken after closure: metrics {} vs accounted {}",
                    hub.link_bytes_total(),
                    sys.total_bytes()
                ),
            ));
        }
        // Closure drains staged tuples and disseminates +∞ watermark
        // punctuations; punctuations carry no timestamp and drained
        // tuples were already published, so the virtual-clock ceiling
        // still holds here.
        if hub.now_ms() > max_published_ms {
            runtime_violations.push((
                ev_idx,
                format!(
                    "virtual clock ran ahead of the data after closure: hub at {} ms but \
                     the largest published tuple timestamp is {max_published_ms} ms",
                    hub.now_ms()
                ),
            ));
        }
        for q in &queries {
            let want = sys.results(q.qid).len() as u64;
            let got = hub.delivered_count(q.qid);
            if got != want {
                metrics_violations.push((
                    ev_idx,
                    format!(
                        "delivery conservation broken for query #{} after closure: \
                         metrics {got} vs delivered {want}",
                        q.label
                    ),
                ));
            }
        }
        if let Some(tr) = tracker.as_mut() {
            tr.observe_processors(&sys, &queries);
            bound_violations.extend(tr.check(&sys, &queries).into_iter().map(|v| (ev_idx, v)));
        }
        // The closed deployment must still verify: watermark-driven
        // pruning may not leave dangling interest in closed streams (V7)
        // nor break any V1–V6 invariant for the surviving result paths.
        if opts.static_verify {
            let snap = sys.snapshot()?;
            let diags = cosmos_verify::verify_snapshot(&snap);
            if cosmos_verify::has_violations(&diags) {
                if first_violation_snapshot.is_none() {
                    first_violation_snapshot = Some(snap.to_json()?);
                }
                static_violations.extend(
                    diags
                        .iter()
                        .filter(|d| d.severity == cosmos_verify::VerifySeverity::Error)
                        .map(|d| (ev_idx, d.headline())),
                );
            }
        }
    }

    // Overload post-closure: the ledgers must still balance, nothing
    // may remain staged (closure drains every pending coalesce batch),
    // and total shed is carried out so the semantic oracles know when
    // to back off.
    let mut overload_shed_tuples = 0u64;
    if let Some(ctl) = sys.overload() {
        let ev_idx = scenario.events.len();
        overload_conservation(&sys, &queries, ev_idx, &mut metrics_violations);
        for (qid, l) in ctl.ledgers() {
            overload_shed_tuples += l.shed_tuples;
            if l.staged_tuples != 0 {
                metrics_violations.push((
                    ev_idx,
                    format!(
                        "{} overload tuples still staged for {qid} after stream closure",
                        l.staged_tuples
                    ),
                ));
            }
        }
    }

    for q in queries.iter_mut() {
        if q.input_end.is_none() {
            q.delivered = sys.results(q.qid).to_vec();
        }
    }

    let mut h = std::collections::hash_map::DefaultHasher::new();
    for d in &routing_digests {
        d.hash(&mut h);
    }
    for q in &queries {
        q.label.hash(&mut h);
        format!("{:?}", q.delivered).hash(&mut h);
        for e in &q.epochs {
            (
                e.generation,
                e.exec_start,
                e.member_start,
                e.delivered_start,
            )
                .hash(&mut h);
        }
    }
    for (label, err) in &rejected {
        label.hash(&mut h);
        err.hash(&mut h);
    }
    (published.len(), skipped_publishes, skipped_events).hash(&mut h);
    let digest = h.finish();

    let final_snapshot = Some(sys.snapshot()?.to_json()?);
    let metrics_json = Some(sys.metrics().to_json()?);
    let bound_report = tracker
        .as_ref()
        .map(|tr| tr.assess(&sys, &queries))
        .unwrap_or_default();

    Ok(RunOutcome {
        queries,
        rejected,
        published,
        skipped_publishes,
        skipped_events,
        routing_digests,
        static_violations,
        first_violation_snapshot,
        final_snapshot,
        metrics_violations,
        metrics_json,
        bound_violations,
        runtime_violations,
        bound_report,
        digest,
        disorder_totals,
        overload_shed_tuples,
    })
}
