//! The traced run: per-layer metrics from spans recorded around the
//! calls into each layer.
//!
//! The system itself runs untraced, one batch at a time. After each
//! batch, a shadow copy of the data path replays the same batch hop by
//! hop in `Cosmos::publish_batch`'s order, with a span around every
//! `Router::route_batch`, `Executor::push_projected_batch` and
//! `MetricsHub::on_*` call: clones of every node's `Router`, one fresh
//! `Executor` per representative, and a clone of the metrics hub. The
//! shadow is re-taken from the system after every control call, and its
//! deliveries and link bytes must equal the system's.
//!
//! Control calls (`submit_query`, `unsubscribe`, `reoptimize_groups`,
//! `autotune`, and a standalone `rebuild_routes` after each withdrawal)
//! get spans too, and the run's own query sequence is replayed through
//! standalone `parse_query`, `AnalyzedQuery::analyze`,
//! `cosmos_bound::check_query` and `GroupManager::insert`/`remove`
//! calls. Workloads without churn measure the control calls on a
//! teardown after the data path: one `autotune`, three
//! `rebuild_routes`, then every query withdrawn.
//!
//! Allocations are counted on a second deployment that makes the same
//! calls untimed, so counting never slows the publishes timed here.

use crate::alloc;
use crate::run::{deploy, no_record, query_text, Deployed, Tally};
use crate::speed;
use crate::stats::{median, print_result, Metric};
use crate::workload::{Control, Plan};
use cosmos::snapshot::SubscriberKind;
use cosmos::{AutotuneOptions, Cosmos};
use cosmos_cbn::{BatchForward, CountingMatcher, Destination, MatchEngine, Router};
use cosmos_metrics::MetricsHub;
use cosmos_query::GroupManager;
use cosmos_spe::{AnalyzedQuery, Executor};
use cosmos_types::{FxHashMap, NodeId, QueryId, Schema, StreamName, SubscriberId, Tuple};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::time::Instant;

/// Span names, one per layer boundary.
const NAMES: &[&str] = &[
    "bench.batch",
    "core.publish_batch",
    "cbn.route_batch",
    "cbn.matches_batch",
    "spe.push_projected_batch",
    "metrics.on_publish",
    "metrics.on_link",
    "metrics.on_spe_intake",
    "metrics.on_delivery",
    "core.submit_query",
    "core.unsubscribe",
    "core.reoptimize_groups",
    "overlay.autotune",
    "core.rebuild_routes",
    "cql.parse_query",
    "spe.analyze",
    "bound.check_query",
    "query.insert",
    "query.remove",
];

fn name_id(name: &str) -> u8 {
    NAMES
        .iter()
        .position(|n| *n == name)
        .expect("every span name is listed") as u8
}

const BATCH: u8 = 0;
const PUBLISH: u8 = 1;
const ROUTE: u8 = 2;
const MATCH: u8 = 3;
const SPE: u8 = 4;
const ON_PUBLISH: u8 = 5;
const ON_LINK: u8 = 6;
const ON_SPE_INTAKE: u8 = 7;
const ON_DELIVERY: u8 = 8;

/// One span: a call into a layer. `parent` is the index of the causing
/// span plus one (zero for a root); spans of one source batch share
/// `batch`.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: u8,
    batch: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    batch: u32,
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&mut self, name: u8, parent: u32, start: Instant, end: Instant) -> u32 {
        self.spans.push(Span {
            name,
            batch: self.batch,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() as u32
    }

    /// Open a root span whose end is filled in by [`Spans::close`].
    fn open(&mut self, name: u8, start: Instant) -> u32 {
        self.record(name, 0, start, start)
    }

    fn close(&mut self, id: u32, end: Instant) {
        let e = self.ns(end);
        self.spans[id as usize - 1].end_ns = e;
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    fn total_ns(&self, name: u8) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations of the spans named `name`, in microseconds.
    fn durations_us(&self, name: u8) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write the spans as CSV: every span of the control path and of the
    /// standalone calls, and the data-path spans of every `stride`-th
    /// source batch, so the file stays near `limit` spans.
    fn write(&self, path: &std::path::Path, limit: usize, batches: usize) -> std::io::Result<()> {
        let stride = (self.spans.len() / limit.max(1) + 1).min(batches.max(1)) as u32;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# stride {stride}: data-path spans of every {stride}-th batch"
        )?;
        writeln!(w, "id,batch,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let data = matches!(s.name, BATCH..=ON_DELIVERY);
            if data && s.batch % stride != 0 {
                continue;
            }
            writeln!(
                w,
                "{},{},{},{},{},{}",
                i + 1,
                s.batch,
                s.parent,
                NAMES[s.name as usize],
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Where a local subscriber's deliveries go.
#[derive(Debug, Clone)]
enum Sink {
    Spe(StreamName),
    User(QueryId),
}

/// One hop of the replayed BFS, as in `Cosmos::publish_batch`.
struct Hop {
    from: Option<NodeId>,
    at: NodeId,
    tuples: Vec<Tuple>,
    schema: Schema,
}

/// Data-path work and time summed over the replay.
#[derive(Debug, Default)]
struct Layers {
    hop_tuples: u64,
    route_calls: u64,
    relay_tuples: u64,
    spe_in: u64,
    spe_out: u64,
    link_bytes: u64,
}

/// The shadow data path.
struct Shadow {
    routers: Vec<Router>,
    matchers: Vec<CountingMatcher<Destination>>,
    sinks: FxHashMap<SubscriberId, Sink>,
    execs: BTreeMap<StreamName, (u64, Executor)>,
    hub: MetricsHub,
    cascading: bool,
    delivered: FxHashMap<QueryId, Vec<Tuple>>,
    layers: Layers,
}

impl Shadow {
    fn new(sys: &Cosmos) -> Shadow {
        let mut s = Shadow {
            routers: Vec::new(),
            matchers: Vec::new(),
            sinks: FxHashMap::default(),
            execs: BTreeMap::new(),
            hub: sys.metrics_hub().clone(),
            cascading: false,
            delivered: FxHashMap::default(),
            layers: Layers::default(),
        };
        s.refresh(sys);
        s
    }

    /// Re-take routers, subscriber kinds and the representative set
    /// from the system; executors whose generation did not move keep
    /// their state.
    fn refresh(&mut self, sys: &Cosmos) {
        let nodes = sys.graph().node_count() as u32;
        self.routers = (0..nodes).map(|i| sys.router(NodeId(i)).clone()).collect();
        self.matchers = self
            .routers
            .iter()
            .map(|r| {
                let mut m = CountingMatcher::new();
                for (n, p) in r.neighbor_interests() {
                    m.insert(Destination::Neighbor(n), p.clone());
                }
                for (sub, p) in r.local_subscribers() {
                    m.insert(Destination::Local(sub), p.clone());
                }
                m
            })
            .collect();
        let snap = sys.snapshot().expect("snapshot of a consistent system");
        self.sinks = snap
            .routers
            .iter()
            .flat_map(|r| r.local_subscribers.iter())
            .map(|l| {
                let sink = match &l.kind {
                    SubscriberKind::SpeInput { result_stream } => Sink::Spe(result_stream.clone()),
                    SubscriberKind::User { query } => Sink::User(*query),
                };
                (l.id, sink)
            })
            .collect();
        let mut execs = BTreeMap::new();
        for rep in sys.rep_states() {
            let generation = sys
                .group_manager(rep.processor)
                .and_then(|m| m.groups().find(|g| g.result_stream == *rep.result_stream))
                .and_then(|g| g.members.first())
                .and_then(|(qid, _)| sys.executor_generation(*qid))
                .unwrap_or(0);
            let keep = self
                .execs
                .remove(rep.result_stream)
                .filter(|(g, _)| *g == generation);
            let exec = match keep {
                Some(e) => e,
                None => (
                    generation,
                    Executor::new(rep.query.clone(), rep.result_stream.clone())
                        .expect("representatives are executable"),
                ),
            };
            execs.insert(rep.result_stream.clone(), exec);
        }
        self.execs = execs;
        self.cascading = self.execs.values().any(|(_, e)| {
            e.query()
                .streams
                .iter()
                .any(|b| self.execs.contains_key(&b.stream))
        });
    }

    /// Replay one source batch, recording spans under a root span.
    fn replay(&mut self, sys: &Cosmos, tuples: &[Tuple], spans: &mut Spans) {
        let start = Instant::now();
        let root = spans.open(BATCH, start);
        let reg = sys
            .registry()
            .peek(&tuples[0].stream)
            .expect("published streams are advertised");
        let (origin, schema) = (reg.origin, reg.schema.clone());
        let t = Instant::now();
        self.hub.on_publish(&tuples[0].stream, &schema, tuples);
        spans.record(ON_PUBLISH, root, t, Instant::now());
        if tuples.len() > 1 && self.cascading {
            for one in tuples {
                self.drive(origin, std::slice::from_ref(one), &schema, root, spans);
            }
        } else {
            self.drive(origin, tuples, &schema, root, spans);
        }
        spans.close(root, Instant::now());
    }

    fn drive(
        &mut self,
        origin: NodeId,
        tuples: &[Tuple],
        schema: &Schema,
        root: u32,
        spans: &mut Spans,
    ) {
        let mut queue = VecDeque::new();
        let forwards = self.route(origin, tuples, schema, None, root, spans);
        self.process(origin, forwards, &mut queue, root, spans);
        while let Some(hop) = queue.pop_front() {
            let forwards = self.route(hop.at, &hop.tuples, &hop.schema, hop.from, root, spans);
            self.process(hop.at, forwards, &mut queue, root, spans);
        }
    }

    fn route(
        &mut self,
        at: NodeId,
        tuples: &[Tuple],
        schema: &Schema,
        from: Option<NodeId>,
        root: u32,
        spans: &mut Spans,
    ) -> Vec<BatchForward> {
        let t = Instant::now();
        let out = self.routers[at.index()].route_batch(tuples, schema, from);
        let e = Instant::now();
        spans.record(ROUTE, root, t, e);
        // The matcher alone, on the same batch: splits match from
        // project-and-group.
        let m = std::hint::black_box(self.matchers[at.index()].matches_batch(tuples, schema));
        spans.record(MATCH, root, e, Instant::now());
        drop(m);
        let l = &mut self.layers;
        l.hop_tuples += tuples.len() as u64;
        l.route_calls += 1;
        if let [f] = out.as_slice() {
            if matches!(f.dest, Destination::Neighbor(_))
                && f.tuples.len() == tuples.len()
                && f.schema == *schema
            {
                l.relay_tuples += tuples.len() as u64;
            }
        }
        out
    }

    fn process(
        &mut self,
        at: NodeId,
        forwards: Vec<BatchForward>,
        queue: &mut VecDeque<Hop>,
        root: u32,
        spans: &mut Spans,
    ) {
        for f in forwards {
            match f.dest {
                Destination::Neighbor(n) => {
                    let bytes: usize = f.tuples.iter().map(Tuple::size_bytes).sum();
                    self.layers.link_bytes += bytes as u64;
                    let t = Instant::now();
                    self.hub.on_link(at, n, f.tuples.len(), bytes);
                    spans.record(ON_LINK, root, t, Instant::now());
                    queue.push_back(Hop {
                        from: Some(at),
                        at: n,
                        tuples: f.tuples,
                        schema: f.schema,
                    });
                }
                Destination::Local(sub) => match self.sinks.get(&sub).cloned() {
                    Some(Sink::Spe(stream)) => {
                        let (_, exec) = self.execs.get_mut(&stream).expect("sink has an executor");
                        let t = Instant::now();
                        let outputs = exec.push_projected_batch(&f.tuples, &f.schema);
                        spans.record(SPE, root, t, Instant::now());
                        let rep_schema = exec.result_schema().clone();
                        self.layers.spe_in += f.tuples.len() as u64;
                        self.layers.spe_out += outputs.len() as u64;
                        let t = Instant::now();
                        self.hub.on_spe_intake(at, &f.tuples);
                        spans.record(ON_SPE_INTAKE, root, t, Instant::now());
                        if !outputs.is_empty() {
                            let t = Instant::now();
                            self.hub.on_publish(&stream, &rep_schema, &outputs);
                            spans.record(ON_PUBLISH, root, t, Instant::now());
                            queue.push_back(Hop {
                                from: None,
                                at,
                                tuples: outputs,
                                schema: rep_schema,
                            });
                        }
                    }
                    Some(Sink::User(qid)) => {
                        let t = Instant::now();
                        self.hub.on_delivery(qid, at, &f.tuples);
                        spans.record(ON_DELIVERY, root, t, Instant::now());
                        self.delivered.entry(qid).or_default().extend(f.tuples);
                    }
                    None => {}
                },
            }
        }
    }
}

/// Standalone query-path calls over the run's own query sequence.
#[derive(Default)]
struct QueryPath {
    managers: BTreeMap<NodeId, GroupManager>,
}

impl QueryPath {
    fn insert(
        &mut self,
        text: &str,
        qid: QueryId,
        processor: NodeId,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let catalog = cosmos_workload::sensor_catalog();
        let t = Instant::now();
        let parsed = cosmos_cql::parse_query(text);
        spans.record(name_id("cql.parse_query"), 0, t, Instant::now());
        let Some(parsed) = tally.call("parse_query", parsed) else {
            return;
        };
        let t = Instant::now();
        let analyzed = AnalyzedQuery::analyze(&parsed, catalog.schema_fn());
        spans.record(name_id("spe.analyze"), 0, t, Instant::now());
        let Some(analyzed) = tally.call("analyze", analyzed) else {
            return;
        };
        let t = Instant::now();
        std::hint::black_box(cosmos_bound::check_query(&analyzed));
        spans.record(name_id("bound.check_query"), 0, t, Instant::now());
        let mgr = self
            .managers
            .entry(processor)
            .or_insert_with(|| GroupManager::new(format!("result::{processor}")));
        let t = Instant::now();
        let r = mgr.insert(qid, analyzed, &catalog);
        spans.record(name_id("query.insert"), 0, t, Instant::now());
        tally.call("GroupManager::insert", r);
    }

    fn remove(&mut self, qid: QueryId, processor: NodeId, spans: &mut Spans) {
        if let Some(mgr) = self.managers.get_mut(&processor) {
            let t = Instant::now();
            std::hint::black_box(mgr.remove(qid));
            spans.record(name_id("query.remove"), 0, t, Instant::now());
        }
    }
}

fn interest_entries(sys: &Cosmos) -> f64 {
    (0..sys.graph().node_count() as u32)
        .map(|i| sys.router(NodeId(i)).interest_count() as f64)
        .sum()
}

/// The traced run: one deployment, the whole input once. Returns
/// whether a result line was printed.
pub fn traced_run(plan: &Plan) -> bool {
    let mut tally = Tally::default();
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
        batch: 0,
    };
    let mut submit_us = Vec::new();
    let deployed = {
        let mut rec = |name: &'static str, s: Instant, e: Instant| {
            spans.record(name_id(name), 0, s, e);
        };
        deploy(plan, &mut tally, &mut submit_us, &mut rec, false)
    };
    let Some((mut d, _)) = deployed else {
        eprintln!("cosmos-perfbench: deployment failed: {:?}", tally.errors);
        return false;
    };
    let mut processors: Vec<Option<NodeId>> = vec![None; d.qids.len()];
    let note_processors = |d: &Deployed, p: &mut Vec<Option<NodeId>>| {
        for (slot, qid) in d.qids.iter().enumerate() {
            if let (None, Some(q)) = (p[slot], qid) {
                p[slot] = d.sys.processor_of(*q);
            }
        }
    };
    note_processors(&d, &mut processors);
    let mut queries = QueryPath::default();
    for (slot, (text, _)) in plan.setup_queries.iter().enumerate() {
        if let (Some(qid), Some(p)) = (d.qids[slot], processors[slot]) {
            queries.insert(text, qid, p, &mut spans, &mut tally);
        }
    }

    let mut factors = vec![speed::factor()];
    let mut shadow = Shadow::new(&d.sys);
    let mut interest = vec![interest_entries(&d.sys)];
    let mut untraced_ns = 0u64;
    let mut replay_ns = 0u64;
    for (b, range) in plan.batches.iter().enumerate() {
        spans.batch = b as u32;
        if b % 256 == 255 {
            factors.push(speed::factor());
        }
        let mut rec = |name: &'static str, s: Instant, e: Instant| {
            spans.record(name_id(name), 0, s, e);
        };
        if d.controls_before(plan, b, &mut tally, &mut submit_us, &mut rec) {
            for c in plan.controls_at(b) {
                match c {
                    Control::Submit { slot, .. } => {
                        note_processors(&d, &mut processors);
                        if let (Some(qid), Some(p)) = (d.qids[*slot], processors[*slot]) {
                            queries.insert(query_text(plan, *slot), qid, p, &mut spans, &mut tally);
                        }
                    }
                    Control::Unsubscribe { slot } => {
                        let t = Instant::now();
                        d.sys.rebuild_routes();
                        spans.record(name_id("core.rebuild_routes"), 0, t, Instant::now());
                        if let (Some(qid), Some(p)) = (d.qids[*slot], processors[*slot]) {
                            queries.remove(qid, p, &mut spans);
                        }
                    }
                    Control::Retune => {}
                }
            }
            interest.push(interest_entries(&d.sys));
            shadow.refresh(&d.sys);
        }
        let tuples = &plan.inputs[range.clone()];
        let t = Instant::now();
        let r = d.sys.publish_batch(tuples);
        let e = Instant::now();
        spans.record(PUBLISH, 0, t, e);
        untraced_ns += (e - t).as_nanos() as u64;
        tally.call("publish_batch", r);
        let t = Instant::now();
        shadow.replay(&d.sys, tuples, &mut spans);
        replay_ns += t.elapsed().as_nanos() as u64;
    }
    let (allocs, alloc_bytes) = counted_allocations(plan, d.sys.total_bytes(), &mut tally);

    // The replay must have reproduced the system's data path exactly.
    let mut same = shadow.layers.link_bytes == d.sys.total_bytes();
    for qid in d.qids.iter().flatten() {
        let got = shadow.delivered.get(qid).map_or(&[][..], Vec::as_slice);
        same &= got == d.sys.results(*qid);
    }
    let m = d.sys.metrics().router;
    same &= shadow.layers.hop_tuples == m.tuples_routed + m.tuples_dropped;
    tally.attempted += 1;
    if !same {
        tally.fail(format!(
            "traced replay diverged: link bytes {} vs {}, tuple-hops {} vs {}",
            shadow.layers.link_bytes,
            d.sys.total_bytes(),
            shadow.layers.hop_tuples,
            m.tuples_routed + m.tuples_dropped
        ));
    }
    let grouping_ratio = d.sys.grouping_ratio();
    let state_rows: usize = shadow
        .execs
        .values()
        .map(|(_, e)| e.state_size().total_rows())
        .sum();

    if plan.controls.is_empty() {
        teardown(&mut d, &processors, &mut queries, &mut spans, &mut tally);
    }

    // Times are converted to reference-host time by the median host-speed
    // factor of the run (see `speed.rs`); counts and ratios are not.
    factors.push(speed::factor());
    let f = median(&factors);
    let n = plan.inputs.len() as f64;
    let l = &shadow.layers;
    let hops = l.hop_tuples.max(1) as f64;
    let route_ns = spans.total_ns(ROUTE) as f64;
    let match_ns = spans.total_ns(MATCH) as f64;
    let spe_ns = spans.total_ns(SPE) as f64;
    let hook_ns = (spans.total_ns(ON_PUBLISH)
        + spans.total_ns(ON_LINK)
        + spans.total_ns(ON_SPE_INTAKE)
        + spans.total_ns(ON_DELIVERY)) as f64;
    let traced_ns = replay_ns as f64 - match_ns;
    let residual_ns = untraced_ns as f64 - route_ns - spe_ns - hook_ns;
    let (route_ns, match_ns, spe_ns, hook_ns) =
        (route_ns * f, match_ns * f, spe_ns * f, hook_ns * f);
    let us_p50 = |name: &str| median(&spans.durations_us(name_id(name))) * f;
    let metrics = [
        Metric {
            name: "cbn.route_ns_per_hop",
            value: route_ns / hops,
            unit: "ns",
        },
        Metric {
            name: "cbn.match_ns_per_hop",
            value: match_ns / hops,
            unit: "ns",
        },
        Metric {
            name: "cbn.tuple_hops_per_tuple",
            value: l.hop_tuples as f64 / n,
            unit: "count",
        },
        Metric {
            name: "cbn.projections_per_hop",
            value: m.projections_built as f64 / hops,
            unit: "count",
        },
        Metric {
            name: "cbn.relay_hop_share",
            value: l.relay_tuples as f64 / hops,
            unit: "ratio",
        },
        Metric {
            name: "cbn.tuples_per_route_call",
            value: l.hop_tuples as f64 / l.route_calls.max(1) as f64,
            unit: "count",
        },
        Metric {
            name: "cbn.drop_ratio",
            value: m.tuples_dropped as f64 / (m.tuples_routed + m.tuples_dropped).max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "cbn.plan_hit_ratio",
            value: m.plan_hits as f64 / (m.plan_hits + m.plan_misses).max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "cbn.interest_entries",
            value: interest.iter().sum::<f64>() / interest.len() as f64,
            unit: "count",
        },
        Metric {
            name: "core.residual_ns_per_publish",
            value: residual_ns * f / plan.batches.len() as f64,
            unit: "ns",
        },
        Metric {
            name: "core.unsubscribe_us_p50",
            value: us_p50("core.unsubscribe"),
            unit: "us",
        },
        Metric {
            name: "core.rebuild_routes_us",
            value: us_p50("core.rebuild_routes"),
            unit: "us",
        },
        Metric {
            name: "spe.push_ns_per_tuple",
            value: spe_ns / l.spe_in.max(1) as f64,
            unit: "ns",
        },
        Metric {
            name: "spe.in_per_tuple",
            value: l.spe_in as f64 / n,
            unit: "count",
        },
        Metric {
            name: "spe.out_per_tuple",
            value: l.spe_out as f64 / n,
            unit: "count",
        },
        Metric {
            name: "spe.state_rows",
            value: state_rows as f64,
            unit: "count",
        },
        Metric {
            name: "spe.analyze_us",
            value: us_p50("spe.analyze"),
            unit: "us",
        },
        Metric {
            name: "cql.parse_us",
            value: us_p50("cql.parse_query"),
            unit: "us",
        },
        Metric {
            name: "bound.check_us",
            value: us_p50("bound.check_query"),
            unit: "us",
        },
        Metric {
            name: "query.grouping_ratio",
            value: grouping_ratio,
            unit: "ratio",
        },
        Metric {
            name: "query.insert_us_p50",
            value: us_p50("query.insert"),
            unit: "us",
        },
        Metric {
            name: "query.remove_us_p50",
            value: us_p50("query.remove"),
            unit: "us",
        },
        Metric {
            name: "metrics.ns_per_hop",
            value: hook_ns / hops,
            unit: "ns",
        },
        Metric {
            name: "overlay.autotune_us",
            value: us_p50("overlay.autotune"),
            unit: "us",
        },
        Metric {
            name: "process.allocs_per_tuple",
            value: allocs as f64 / n,
            unit: "count",
        },
        Metric {
            name: "process.alloc_bytes_per_tuple",
            value: alloc_bytes as f64 / n,
            unit: "B",
        },
        Metric {
            name: "trace.overhead_pct",
            value: (traced_ns / untraced_ns.max(1) as f64 - 1.0) * 100.0,
            unit: "%",
        },
    ];
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.csv",
        plan.kind.name(),
        plan.seed
    ));
    match spans.write(&path, 200_000, plan.batches.len()) {
        Ok(()) => println!(
            "detail {{\"spans\": {}, \"spans_file\": \"{}\"}}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("cosmos-perfbench: writing {}: {e}", path.display()),
    }
    for e in &tally.errors {
        eprintln!("cosmos-perfbench: {e}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    print_result(
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        &metrics,
    );
    true
}

/// Control calls measured after the data path on workloads without
/// churn: one `autotune`, three `rebuild_routes`, then every query
/// withdrawn, mirrored by standalone `GroupManager::remove` calls.
fn teardown(
    d: &mut Deployed,
    processors: &[Option<NodeId>],
    queries: &mut QueryPath,
    spans: &mut Spans,
    tally: &mut Tally,
) {
    let t = Instant::now();
    let r = d.sys.autotune(&AutotuneOptions::default());
    spans.record(name_id("overlay.autotune"), 0, t, Instant::now());
    tally.call("autotune", r);
    for _ in 0..3 {
        let t = Instant::now();
        d.sys.rebuild_routes();
        spans.record(name_id("core.rebuild_routes"), 0, t, Instant::now());
    }
    for (slot, qid) in d.qids.clone().into_iter().enumerate() {
        let Some(qid) = qid else { continue };
        let t = Instant::now();
        let r = d.sys.unsubscribe(qid);
        spans.record(name_id("core.unsubscribe"), 0, t, Instant::now());
        tally.call("unsubscribe", r);
        if let Some(p) = processors[slot] {
            queries.remove(qid, p, spans);
        }
    }
}

/// `(allocations, bytes)` of the system's `publish_batch` calls over the
/// whole input, counted on a second deployment that runs the same calls
/// untimed, so the publishes the traced run times run with counting off.
/// Its link bytes must equal the traced deployment's, `link_bytes`.
fn counted_allocations(plan: &Plan, link_bytes: u64, tally: &mut Tally) -> (u64, u64) {
    let Some((mut d, _)) = deploy(plan, tally, &mut Vec::new(), &mut no_record, false) else {
        return (0, 0);
    };
    for (b, range) in plan.batches.iter().enumerate() {
        d.controls_before(plan, b, tally, &mut Vec::new(), &mut no_record);
        alloc::set_counting(true);
        let r = d.sys.publish_batch(&plan.inputs[range.clone()]);
        alloc::set_counting(false);
        tally.call("publish_batch", r);
    }
    tally.attempted += 1;
    if d.sys.total_bytes() != link_bytes {
        tally.fail(format!(
            "allocation pass diverged: link bytes {} vs {link_bytes}",
            d.sys.total_bytes()
        ));
    }
    alloc::counted()
}
