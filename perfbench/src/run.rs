//! Deploying a workload and driving it: setup, the closed-loop and
//! open-loop phases, the deterministic counters and the reference
//! check. Nothing here records spans; the traced run in `trace.rs`
//! reuses the deployment and control helpers and passes a recorder.

use crate::speed;
use crate::workload::{Control, Plan};
use cosmos::{AutotuneOptions, Cosmos};
use cosmos_spe::{oracle, AnalyzedQuery};
use cosmos_types::{NodeId, QueryId, StreamName};
use cosmos_workload::sensor_catalog;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Receives `(call, start, end)` for every public `Cosmos` control call.
pub type Recorder<'a> = &'a mut dyn FnMut(&'static str, Instant, Instant);

/// A recorder that drops everything (the untraced runs).
pub fn no_record(_: &'static str, _: Instant, _: Instant) {}

/// Calls made and calls that failed, plus the first few failure
/// messages for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one call; a failure is recorded with its message.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: std::result::Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// One executor epoch of a checked query: where in the inputs and in
/// its delivery buffer the epoch began.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    generation: u64,
    input_start: usize,
    delivered_start: usize,
}

/// A deployed workload: the system and the query of each slot.
pub struct Deployed {
    pub sys: Cosmos,
    pub qids: Vec<Option<QueryId>>,
    /// Executor epochs of every pinned slot, in order.
    epochs: Vec<Vec<Epoch>>,
}

/// Time one call and hand its interval to the recorder.
fn timed<T>(rec: Recorder<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    rec(name, start, end);
    (out, end - start)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Deploy `plan`: `Cosmos::new`, stream registration and the setup
/// submits. Returns the deployment and its set-up time in seconds; the
/// time of every submit is appended to `submit_us`. With `convert`, the
/// host-speed factor is sampled (untimed) before the set-up and before
/// every submit, and both times are in reference-host time.
pub fn deploy(
    plan: &Plan,
    tally: &mut Tally,
    submit_us: &mut Vec<f64>,
    rec: Recorder<'_>,
    convert: bool,
) -> Option<(Deployed, f64)> {
    let factor = || if convert { speed::factor() } else { 1.0 };
    let catalog = sensor_catalog();
    let f = factor();
    let start = Instant::now();
    let mut sys = tally.call("Cosmos::new", Cosmos::new(plan.config.clone()))?;
    for (name, origin) in &plan.streams {
        let key = StreamName::from(name.as_str());
        let schema = catalog.schema(&key).expect("sensor stream").clone();
        let stats = catalog.stats(&key).expect("sensor stream").clone();
        tally.call(
            "register_stream",
            sys.register_stream(name.as_str(), schema, stats, *origin),
        );
    }
    let mut setup_s = start.elapsed().as_secs_f64() * f;
    let mut qids = vec![None; plan.slots()];
    for (slot, (text, user)) in plan.setup_queries.iter().enumerate() {
        let f = factor();
        let (r, took) = timed(rec, "core.submit_query", || sys.submit_query(text, *user));
        submit_us.push(us(took) * f);
        setup_s += took.as_secs_f64() * f;
        qids[slot] = tally.call("submit_query", r);
    }
    let mut d = Deployed {
        sys,
        qids,
        epochs: vec![Vec::new(); plan.pinned.len()],
    };
    d.note_epochs(plan, 0);
    Some((d, setup_s))
}

impl Deployed {
    /// Open a new epoch for every pinned query whose executor was
    /// restarted (its generation moved) since the last call.
    fn note_epochs(&mut self, plan: &Plan, input_start: usize) {
        for (i, &slot) in plan.pinned.iter().enumerate() {
            let Some(qid) = self.qids[slot] else { continue };
            let Some(generation) = self.sys.executor_generation(qid) else {
                continue;
            };
            if self.epochs[i].last().map(|e| e.generation) != Some(generation) {
                self.epochs[i].push(Epoch {
                    generation,
                    input_start,
                    delivered_start: self.sys.results(qid).len(),
                });
            }
        }
    }

    /// Run the control calls due before batch `b`. Returns whether any
    /// ran (and so whether routing state may have changed).
    pub fn controls_before(
        &mut self,
        plan: &Plan,
        b: usize,
        tally: &mut Tally,
        submit_us: &mut Vec<f64>,
        rec: Recorder<'_>,
    ) -> bool {
        let mut ran = false;
        for c in plan.controls_at(b) {
            self.control(c, tally, submit_us, rec);
            ran = true;
        }
        if ran {
            self.note_epochs(plan, plan.batches[b].start);
        }
        ran
    }

    fn control(
        &mut self,
        c: &Control,
        tally: &mut Tally,
        submit_us: &mut Vec<f64>,
        rec: Recorder<'_>,
    ) {
        let sys = &mut self.sys;
        match c {
            Control::Submit { slot, text, user } => {
                let (r, took) = timed(rec, "core.submit_query", || sys.submit_query(text, *user));
                submit_us.push(us(took));
                self.qids[*slot] = tally.call("submit_query", r);
            }
            Control::Unsubscribe { slot } => match self.qids[*slot] {
                Some(qid) => {
                    let (r, _) = timed(rec, "core.unsubscribe", || sys.unsubscribe(qid));
                    tally.call("unsubscribe", r);
                }
                None => tally.fail(format!("unsubscribe: slot {slot} holds no query")),
            },
            Control::Retune => {
                let (r, _) = timed(rec, "core.reoptimize_groups", || sys.reoptimize_groups());
                tally.call("reoptimize_groups", r);
                let (r, _) = timed(rec, "overlay.autotune", || {
                    sys.autotune(&AutotuneOptions::default())
                });
                tally.call("autotune", r);
            }
        }
    }

    /// The deterministic counters of this deployment.
    pub fn counters(&self, plan: &Plan) -> Counters {
        let m = self.sys.metrics();
        let mut delivered = 0u64;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for qid in self.qids.iter().flatten() {
            let n = self.sys.results(*qid).len() as u64;
            delivered += n;
            (qid.0, n).hash(&mut h);
        }
        let hops: u64 = (0..plan.config.nodes as u32)
            .map(|i| {
                let r = self.sys.router(NodeId(i));
                r.tuples_routed() + r.tuples_dropped()
            })
            .sum();
        Counters {
            link_bytes: self.sys.total_bytes(),
            weighted_cost_bits: self.sys.weighted_cost().to_bits(),
            tuple_hops: hops,
            plan_hits: m.router.plan_hits,
            plan_misses: m.router.plan_misses,
            delivered,
            delivered_digest: h.finish(),
            routing_digest: self.sys.routing_digest(),
        }
    }

    /// Compare every pinned query's deliveries with the reference
    /// evaluator, epoch by epoch, as multisets. Returns how many queries
    /// were checked; mismatches are recorded as failures.
    pub fn check(&self, plan: &Plan, tally: &mut Tally) -> u64 {
        let mut checked = 0;
        for (i, &slot) in plan.pinned.iter().enumerate() {
            let text = query_text(plan, slot);
            tally.attempted += 1;
            checked += 1;
            let Some(qid) = self.qids[slot] else {
                tally.fail(format!("check: slot {slot} was never admitted"));
                continue;
            };
            let analyzed = match cosmos_cql::parse_query(text)
                .and_then(|q| AnalyzedQuery::analyze(&q, self.sys.catalog().schema_fn()))
            {
                Ok(a) => a,
                Err(e) => {
                    tally.fail(format!("check: {text}: {e}"));
                    continue;
                }
            };
            let names: Vec<String> = analyzed.output_schema.names().map(str::to_string).collect();
            let results = self.sys.results(qid);
            let epochs = &self.epochs[i];
            let mut ok = true;
            for (k, e) in epochs.iter().enumerate() {
                let (in_end, d_end) = epochs
                    .get(k + 1)
                    .map_or((plan.inputs.len(), results.len()), |n| {
                        (n.input_start, n.delivered_start)
                    });
                let want = cosmos_testkit::normalize_expected(
                    &oracle::evaluate(&analyzed, "ref", &plan.inputs[e.input_start..in_end]),
                    &names,
                );
                let got = cosmos_testkit::normalize_delivered(&results[e.delivered_start..d_end]);
                if want != got {
                    ok = false;
                    tally.fail(format!(
                        "check: '{text}' epoch {k}: {} delivered, {} expected",
                        got.len(),
                        want.len()
                    ));
                    break;
                }
            }
            if ok && epochs.is_empty() {
                tally.fail(format!("check: '{text}' has no executor"));
            }
        }
        checked
    }
}

/// The text of the query in `slot`.
pub fn query_text(plan: &Plan, slot: usize) -> &str {
    if let Some((text, _)) = plan.setup_queries.get(slot) {
        return text;
    }
    plan.controls
        .iter()
        .find_map(|(_, c)| match c {
            Control::Submit { slot: s, text, .. } if *s == slot => Some(text.as_str()),
            _ => None,
        })
        .expect("every slot is a setup query or a submit")
}

/// Work counts that must repeat exactly whenever a workload is run
/// again on the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub link_bytes: u64,
    pub weighted_cost_bits: u64,
    pub tuple_hops: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub delivered: u64,
    pub delivered_digest: u64,
    pub routing_digest: u64,
}

/// Publish every batch back to back, timing each chunk of batches.
/// Returns, per chunk, its wall time in seconds and the mean host-speed
/// factor measured just before and just after it; the wall time of churn
/// submits is appended to `submit_us` already converted by that factor.
pub fn closed_loop(
    plan: &Plan,
    d: &mut Deployed,
    chunks: &[Range<usize>],
    tally: &mut Tally,
    submit_us: &mut Vec<f64>,
) -> (Vec<f64>, Vec<f64>) {
    let mut wall = Vec::with_capacity(chunks.len());
    let mut factors = Vec::with_capacity(chunks.len());
    let mut sub = Vec::new();
    let mut before = speed::factor();
    for chunk in chunks {
        let start = Instant::now();
        for b in chunk.clone() {
            d.controls_before(plan, b, tally, &mut sub, &mut no_record);
            let r = d.sys.publish_batch(&plan.inputs[plan.batches[b].clone()]);
            tally.call("publish_batch", r);
        }
        wall.push(start.elapsed().as_secs_f64());
        let after = speed::factor();
        let f = (before + after) / 2.0;
        factors.push(f);
        submit_us.extend(sub.drain(..).map(|u| u * f));
        before = after;
    }
    (wall, factors)
}

/// What one open-loop repetition observed, in microseconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per batch: its own time — its control calls and its publish, from
    /// the moment the generator issued it — in reference-host time.
    pub service_us: Vec<f64>,
    /// Per source tuple: from its scheduled arrival to the return of the
    /// `publish_batch` that carried it, in wall-clock time.
    pub wall_latency_us: Vec<f64>,
    /// Per batch: how long after its last tuple was due the generator
    /// issued it, in wall-clock time.
    pub lateness_us: Vec<f64>,
}

/// Publish the first `batches` batches on a fixed schedule: source tuple
/// `i` is due at `start + i / rate`, whatever the system's speed, and a
/// batch is published once its last tuple is due. The wall time of churn
/// submits is appended to `submit_us` converted by the batch's factor.
pub fn open_loop(
    plan: &Plan,
    d: &mut Deployed,
    rate: f64,
    batches: usize,
    tally: &mut Tally,
    submit_us: &mut Vec<f64>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut f = speed::factor();
    let mut sub = Vec::new();
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    for (b, range) in plan.batches.iter().enumerate().take(batches) {
        let ready = due(range.end - 1);
        if let Some(measured) = speed::factor_until(ready) {
            f = measured;
        }
        let issued = Instant::now();
        out.lateness_us
            .push(us(issued.saturating_duration_since(ready)));
        d.controls_before(plan, b, tally, &mut sub, &mut no_record);
        let r = d.sys.publish_batch(&plan.inputs[range.clone()]);
        let done = Instant::now();
        tally.call("publish_batch", r);
        submit_us.extend(sub.drain(..).map(|u| u * f));
        out.service_us.push(us(done - issued) * f);
        out.wall_latency_us
            .extend(range.clone().map(|i| us(done - due(i))));
    }
    out
}

/// Per source tuple of the first `service_us.len()` batches: from its
/// scheduled arrival (tuple `i` at `i / rate`) to the return of the
/// `publish_batch` that carried it, when batch `b` takes `service_us[b]`.
///
/// The publishing thread is a single FIFO server: a batch starts once
/// its last tuple is due or the previous batch has finished, whichever
/// is later. The open-loop latencies are replayed this way over the
/// least reference-host time each batch took across the repetitions, so
/// queueing follows the system's own work, not the host's speed of the
/// moment, which would otherwise enter the tail non-linearly.
pub fn queue_latency(plan: &Plan, rate: f64, service_us: &[f64]) -> Vec<f64> {
    let due = |i: usize| i as f64 / rate * 1e6;
    let mut out = Vec::new();
    let mut finished = 0.0f64;
    for (range, service) in plan.batches.iter().zip(service_us) {
        finished = finished.max(due(range.end - 1)) + service;
        out.extend(range.clone().map(|i| finished - due(i)));
    }
    out
}
