//! The deployed COSMOS system: nodes, routing, query management, and the
//! discrete-event driver.

use crate::autotune::{AutotuneOptions, AutotunePass, AutotunePolicy, AutotuneReport};
use crate::overload::{Action, OverloadConfig, OverloadController};
use cosmos_cbn::{BatchForward, Destination, Profile, RegistryMode, Router, SchemaRegistry};
use cosmos_metrics::{relative_drift, MetricsConfig, MetricsHub, MetricsSnapshot, RouterTotals};
use cosmos_overlay::{generate, minimum_spanning_tree, Graph, TopologyKind, Tree};
use cosmos_query::{retighten_profile, GroupManager, StatsCatalog, StreamStats};
use cosmos_spe::{AnalyzedQuery, DisorderStats, Executor, LatePolicy, StateSize};
use cosmos_types::{
    CosmosError, FxHashMap, NeumaierSum, NodeId, Punctuation, QueryId, RateLimit, Result, Schema,
    StreamName, SubscriberId, TimeDelta, Timestamp, Tuple,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What a server contributes to the system (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Routes data only (data layer).
    Broker,
    /// Routes data and hosts an SPE (data layer + query layer).
    Processor,
}

/// Configuration of a COSMOS deployment.
#[derive(Debug, Clone)]
pub struct CosmosConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Topology generator for the overlay.
    pub topology: TopologyKind,
    /// Fraction of nodes equipped with an SPE.
    pub processor_fraction: f64,
    /// Schema registry mode (flooding vs DHT).
    pub registry_mode: RegistryMode,
    /// Master seed (topology, placement).
    pub seed: u64,
    /// Number of candidate processors per stream set considered by the
    /// query distribution service. `1` maximizes merging opportunities
    /// (all queries over a stream set meet at one processor); larger
    /// values trade sharing for load balance.
    pub affinity_candidates: usize,
    /// Whether the query layer merges queries (Section 4). Disabling it
    /// reproduces the "Non-Share" baseline of Figure 3: every query gets
    /// its own result stream.
    pub merging_enabled: bool,
    /// "Currently the nodes in COSMOS are organized into multiple
    /// overlay dissemination trees" (Section 3.2). When enabled, every
    /// stream is disseminated along a shortest-path tree rooted at its
    /// origin instead of the single shared MST — lower delivery delay at
    /// the price of more per-node routing state.
    pub per_source_trees: bool,
}

impl Default for CosmosConfig {
    fn default() -> Self {
        CosmosConfig {
            nodes: 16,
            topology: TopologyKind::BarabasiAlbert { m: 2 },
            processor_fraction: 0.25,
            registry_mode: RegistryMode::Flooding,
            seed: 0,
            affinity_candidates: 1,
            merging_enabled: true,
            per_source_trees: false,
        }
    }
}

/// Out-of-order operation: how the deployed system copes with
/// disordered publishes (ISSUE: disorder injection / watermark
/// datagrams / late-tuple semantics).
///
/// When set via [`Cosmos::set_disorder`], the driver tracks the global
/// high water (the largest timestamp any accepted publish carried) and,
/// after every publish, emits per-stream watermark [`Punctuation`]
/// datagrams at `high_water − bound` along the dissemination trees.
/// Every representative executor runs in staged (out-of-order) intake
/// mode with the given late-tuple `policy`. When unset (the default),
/// behavior is bit-for-bit identical to in-order operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisorderRuntime {
    /// How far watermarks lag behind the global high water. Sound when
    /// it covers the workload's maximum lateness (for the seeded
    /// `cosmos-workload` disorder transform: `DisorderSpec::bound()`).
    pub bound: TimeDelta,
    /// What executors do with tuples behind their watermark frontier.
    pub policy: LatePolicy,
}

/// Book-keeping of an armed [`AutotunePolicy`]: when the last pass
/// ran, how many consecutive rate windows exceeded the drift
/// threshold, and the lifetime pass/rollback counters.
#[derive(Debug)]
struct AutotuneSched {
    policy: AutotunePolicy,
    /// Virtual time of the last scheduled pass.
    last_run_ms: i64,
    /// Last rate-window ordinal the drift trigger evaluated.
    last_window: i64,
    /// Consecutive windows with drift above the threshold so far.
    over_windows: u32,
    runs: u64,
    rollbacks: u64,
    last: Option<AutotuneReport>,
}

/// One result-stream production site: the representative executor
/// running at a processor.
#[derive(Debug)]
struct RepSite {
    processor: NodeId,
    executor: Executor,
    /// Generation stamp of this executor (see [`Cosmos::executor_generation`]).
    generation: u64,
}

/// Read-only view of one running representative executor's identity and
/// retained-state occupancy (see [`Cosmos::rep_states`]).
#[derive(Debug, Clone, Copy)]
pub struct RepStateView<'a> {
    /// The result stream the representative produces.
    pub result_stream: &'a StreamName,
    /// The processor hosting the executor.
    pub processor: NodeId,
    /// The representative query the executor runs.
    pub query: &'a AnalyzedQuery,
    /// Measured per-component state occupancy.
    pub state: StateSize,
    /// Out-of-order ingestion counters (`None` when disorder mode is
    /// off).
    pub disorder: Option<DisorderStats>,
    /// The executor's watermark frontier (`None` when disorder mode is
    /// off).
    pub frontier: Option<Timestamp>,
}

/// One hop of the dissemination BFS: a stream-homogeneous batch of
/// datagrams arriving at `at` over the link from `from` (`None` when
/// the batch entered the network at `at`).
struct Hop {
    from: Option<NodeId>,
    at: NodeId,
    tuples: Vec<Tuple>,
    schema: Schema,
}

/// Upper bound on retained warning headlines per accepted query, so a
/// pathological submission cannot balloon [`Cosmos`]'s memory (entries
/// are also dropped on [`Cosmos::unsubscribe`]).
const MAX_LINT_WARNINGS_PER_QUERY: usize = 16;

/// The analyzed query of one member inside a group.
fn member_query(g: &cosmos_query::QueryGroup, qid: QueryId) -> Result<AnalyzedQuery> {
    g.members
        .iter()
        .find(|(m, _)| *m == qid)
        .map(|(_, q)| q.clone())
        .ok_or_else(|| CosmosError::System(format!("query {qid} is not in group {}", g.id)))
}

/// A running COSMOS deployment.
#[derive(Debug)]
pub struct Cosmos {
    cfg: CosmosConfig,
    graph: Graph,
    tree: Tree,
    /// Per-origin shortest-path dissemination trees (lazily built when
    /// `per_source_trees` is enabled).
    source_trees: BTreeMap<NodeId, Tree>,
    roles: Vec<NodeRole>,
    processors: Vec<NodeId>,
    registry: SchemaRegistry,
    catalog: StatsCatalog,
    routers: Vec<Router>,
    /// Query-layer state per processor.
    managers: BTreeMap<NodeId, GroupManager>,
    /// Representative executors, keyed by result-stream name. Changed
    /// only through [`Cosmos::set_rep`], which keeps `cascading` current.
    reps: BTreeMap<StreamName, RepSite>,
    /// Whether any representative consumes a stream another one
    /// produces (see [`Cosmos::publish_batch`]).
    cascading: bool,
    /// SPE-input subscriptions: subscriber → result stream it feeds.
    spe_subs: BTreeMap<SubscriberId, StreamName>,
    /// User subscriptions: subscriber → query it serves.
    user_subs: FxHashMap<SubscriberId, QueryId>,
    user_sub_of_query: FxHashMap<QueryId, SubscriberId>,
    /// Baseline (non-merging) mode: each query's private result stream.
    baseline_streams: BTreeMap<QueryId, StreamName>,
    delivered: FxHashMap<QueryId, Vec<Tuple>>,
    query_user: FxHashMap<QueryId, NodeId>,
    query_processor: FxHashMap<QueryId, NodeId>,
    processor_load: FxHashMap<NodeId, usize>,
    /// Warning-level lint findings per accepted query (error-level
    /// findings reject the query at submission instead).
    lint_warnings: FxHashMap<QueryId, Vec<String>>,
    link_bytes: BTreeMap<(NodeId, NodeId), u64>,
    /// Compensated so the readout is association-order insensitive
    /// (D0501 holds every oracle-feeding accumulation to that
    /// standard).
    weighted_cost: NeumaierSum,
    tuples_published: u64,
    next_sub: u64,
    next_query: u64,
    baseline_counter: u64,
    /// Monotone counter stamped onto every freshly created executor.
    executor_gen: u64,
    /// Per-query generation of the executor currently serving it.
    query_executor_gen: FxHashMap<QueryId, u64>,
    /// Runtime observability: sliding-window rates, sampled stream
    /// statistics, delivery latencies (see [`Cosmos::metrics`]).
    metrics: MetricsHub,
    /// Out-of-order operation (None = in-order, zero behavior change).
    disorder: Option<DisorderRuntime>,
    /// Largest timestamp any accepted publish carried (disorder mode).
    high_water: Option<Timestamp>,
    /// Last watermark emitted per stream (sources and, via executor
    /// frontier propagation, result streams).
    emitted_watermarks: BTreeMap<StreamName, Timestamp>,
    /// Source streams that have published at least once in disorder
    /// mode — the streams watermarks are emitted for.
    published_streams: BTreeSet<StreamName>,
    /// Disorder counters of executors that were replaced or torn down,
    /// folded in so [`Cosmos::disorder_totals`] stays conserved.
    retired_disorder: DisorderStats,
    /// Source streams closed by their final watermark
    /// ([`Cosmos::close_streams`]); their routing state is pruned.
    closed_streams: BTreeSet<StreamName>,
    /// Per-node overload controller (`None` = unbounded delivery; see
    /// [`Cosmos::set_overload`]).
    overload: Option<OverloadController>,
    /// Armed self-tuning scheduler (`None` = manual
    /// [`Cosmos::autotune`] calls only; see [`Cosmos::set_autotune`]).
    autotune_sched: Option<AutotuneSched>,
}

impl Cosmos {
    /// Deploy a system with a generated topology.
    pub fn new(cfg: CosmosConfig) -> Result<Cosmos> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let graph = generate(cfg.topology, cfg.nodes, &mut rng)?;
        Self::with_graph(cfg, graph)
    }

    /// Deploy a system on an explicitly constructed overlay graph
    /// (used by the Figure 3 experiment and by tests that need exact
    /// topologies). Processors are chosen by stride to match
    /// `processor_fraction`.
    pub fn with_graph(cfg: CosmosConfig, graph: Graph) -> Result<Cosmos> {
        let n = graph.node_count();
        if n == 0 {
            return Err(CosmosError::System("empty overlay".into()));
        }
        let tree = minimum_spanning_tree(&graph, NodeId(0))?;
        let want = ((n as f64 * cfg.processor_fraction).round() as usize).clamp(1, n);
        let stride = (n / want).max(1);
        let mut roles = vec![NodeRole::Broker; n];
        let mut processors = Vec::with_capacity(want);
        for i in (0..n).step_by(stride) {
            if processors.len() == want {
                break;
            }
            roles[i] = NodeRole::Processor;
            processors.push(NodeId(i as u32));
        }
        let registry = SchemaRegistry::new(cfg.registry_mode, (0..n as u32).map(NodeId));
        let routers = (0..n as u32).map(|i| Router::new(NodeId(i))).collect();
        Ok(Cosmos {
            cfg,
            tree,
            source_trees: BTreeMap::new(),
            roles,
            processors,
            registry,
            catalog: StatsCatalog::new(),
            routers,
            managers: BTreeMap::new(),
            reps: BTreeMap::new(),
            cascading: false,
            spe_subs: BTreeMap::new(),
            user_subs: FxHashMap::default(),
            user_sub_of_query: FxHashMap::default(),
            baseline_streams: BTreeMap::new(),
            delivered: FxHashMap::default(),
            query_user: FxHashMap::default(),
            query_processor: FxHashMap::default(),
            processor_load: FxHashMap::default(),
            lint_warnings: FxHashMap::default(),
            link_bytes: BTreeMap::new(),
            weighted_cost: NeumaierSum::new(),
            tuples_published: 0,
            next_sub: 0,
            next_query: 0,
            baseline_counter: 0,
            executor_gen: 0,
            query_executor_gen: FxHashMap::default(),
            metrics: MetricsHub::new(MetricsConfig::default()),
            disorder: None,
            high_water: None,
            emitted_watermarks: BTreeMap::new(),
            published_streams: BTreeSet::new(),
            retired_disorder: DisorderStats::default(),
            closed_streams: BTreeSet::new(),
            overload: None,
            autotune_sched: None,
            graph,
        })
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The dissemination tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Mutable overlay-graph access (fault module).
    pub(crate) fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Per-source trees by origin (fault module).
    pub(crate) fn source_trees(&self) -> &BTreeMap<NodeId, Tree> {
        &self.source_trees
    }

    /// Split borrow: the overlay graph plus the mutable shared tree
    /// (fault module repairs need both at once).
    pub(crate) fn graph_and_tree_mut(&mut self) -> (&Graph, &mut Tree) {
        (&self.graph, &mut self.tree)
    }

    /// Split borrow: the overlay graph plus one mutable per-source tree.
    pub(crate) fn graph_and_source_tree_mut(
        &mut self,
        origin: NodeId,
    ) -> (&Graph, Option<&mut Tree>) {
        (&self.graph, self.source_trees.get_mut(&origin))
    }

    /// The deployment configuration.
    pub fn config(&self) -> &CosmosConfig {
        &self.cfg
    }

    /// Run the Section 3.2 adaptive reorganizer on the shared
    /// dissemination tree, using each node's local-subscription count as
    /// its consumer demand, then re-derive all routing state from the
    /// new tree. Returns a zero-move report in per-source-tree mode
    /// (those trees are delay-optimal by construction).
    pub fn optimize_tree(
        &mut self,
        cfg: cosmos_overlay::OptimizerConfig,
    ) -> cosmos_overlay::OptimizeReport {
        let demand: Vec<f64> = self
            .routers
            .iter()
            .map(|r| r.local_subscribers().count() as f64)
            .collect();
        self.optimize_tree_with_demand(cfg, &demand)
    }

    /// [`Cosmos::optimize_tree`] with an explicit per-node demand vector
    /// instead of subscription counts — [`Cosmos::autotune`] passes the
    /// *measured* per-node consumed byte rates here.
    pub fn optimize_tree_with_demand(
        &mut self,
        cfg: cosmos_overlay::OptimizerConfig,
        demand: &[f64],
    ) -> cosmos_overlay::OptimizeReport {
        if self.cfg.per_source_trees {
            let cost = cosmos_overlay::TreeOptimizer::new(cfg).cost(
                &self.graph,
                &self.tree,
                &vec![0.0; self.graph.node_count()],
            );
            return cosmos_overlay::OptimizeReport {
                cost_before: cost,
                cost_after: cost,
                moves: 0,
            };
        }
        let report =
            cosmos_overlay::TreeOptimizer::new(cfg).optimize(&self.graph, &mut self.tree, demand);
        if report.moves > 0 {
            self.rebuild_routes();
        }
        report
    }

    /// The role of a node.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// The processor nodes.
    pub fn processors(&self) -> &[NodeId] {
        &self.processors
    }

    /// The schema registry.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// The statistics catalog.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Access a node's router (tests, diagnostics).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Advertise a source stream published at `origin`.
    pub fn register_stream(
        &mut self,
        name: impl Into<StreamName>,
        schema: Schema,
        stats: StreamStats,
        origin: NodeId,
    ) -> Result<()> {
        let name = name.into();
        if origin.index() >= self.routers.len() {
            return Err(CosmosError::System(format!("unknown origin {origin}")));
        }
        let tree = self.new_source_tree(origin)?;
        self.registry
            .register(name.clone(), schema.clone(), origin)?;
        self.catalog.register(name, schema, stats);
        if let Some(tree) = tree {
            self.source_trees.insert(origin, tree);
        }
        Ok(())
    }

    fn alloc_sub(&mut self) -> SubscriberId {
        let id = SubscriberId(self.next_sub);
        self.next_sub += 1;
        id
    }

    /// Query distribution (load management): pick the processor that
    /// will run this query. A small candidate set is derived from the
    /// query's stream set so queries over the same streams meet at the
    /// same processor(s); the least-loaded candidate wins.
    pub fn pick_processor(&self, q: &AnalyzedQuery) -> NodeId {
        let mut streams: Vec<&str> = q.streams.iter().map(|b| b.stream.as_str()).collect();
        streams.sort_unstable();
        let key = streams.join(",");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let k = self.cfg.affinity_candidates.clamp(1, self.processors.len());
        let start = (h as usize) % self.processors.len();
        (0..k)
            .map(|i| self.processors[(start + i) % self.processors.len()])
            .min_by_key(|p| (self.processor_load.get(p).copied().unwrap_or(0), p.raw()))
            .expect("at least one processor")
    }

    /// The dissemination tree used for streams originating at `origin`.
    pub fn tree_for(&self, origin: NodeId) -> &Tree {
        if self.cfg.per_source_trees {
            self.source_trees.get(&origin).unwrap_or(&self.tree)
        } else {
            &self.tree
        }
    }

    /// Lazily build the shortest-path dissemination tree rooted at a
    /// stream origin (multi-tree mode).
    fn ensure_source_tree(&mut self, origin: NodeId) -> Result<()> {
        if let Some(tree) = self.new_source_tree(origin)? {
            self.source_trees.insert(origin, tree);
        }
        Ok(())
    }

    /// The shortest-path tree [`Cosmos::ensure_source_tree`] would add
    /// for `origin`, or `None` when it adds nothing. Fails when the
    /// physical graph no longer reaches every node from `origin`: fault
    /// repair may have re-attached a subtree over a logical link only.
    fn new_source_tree(&self, origin: NodeId) -> Result<Option<Tree>> {
        if !self.cfg.per_source_trees || self.source_trees.contains_key(&origin) {
            return Ok(None);
        }
        let sp = cosmos_overlay::dijkstra(&self.graph, origin);
        let edges: Vec<(NodeId, NodeId)> = self
            .graph
            .nodes()
            .filter(|&v| v != origin)
            .map(|v| match sp.path_to(v).as_slice() {
                [.., parent, _] => Ok((*parent, v)),
                _ => Err(CosmosError::System(format!(
                    "no physical path from {origin} to {v}: cannot build its source tree"
                ))),
            })
            .collect::<Result<_>>()?;
        Tree::from_edges(self.graph.node_count(), origin, &edges).map(Some)
    }

    /// Propagate a data-interest profile from `from` towards `origin`
    /// along `origin`'s dissemination tree (reverse-path subscription).
    pub(crate) fn propagate_interest(&mut self, from: NodeId, origin: NodeId, profile: &Profile) {
        let normalized = profile.normalized();
        let path = self.tree_for(origin).path(from, origin);
        for w in path.windows(2) {
            let (down, up) = (w[0], w[1]);
            self.routers[up.index()].merge_neighbor_interest(down, &normalized);
        }
    }

    /// Propagate each stream of a profile towards that stream's origin.
    fn propagate_per_stream(&mut self, from: NodeId, profile: &Profile) -> Result<()> {
        let split: Vec<(NodeId, Profile)> = profile
            .iter()
            .map(|(stream, entry)| {
                let origin = self.registry.origin(stream).ok_or_else(|| {
                    CosmosError::System(format!("stream '{stream}' is not advertised"))
                })?;
                let mut single = Profile::new();
                single.add_entry(stream.clone(), entry.clone());
                Ok((origin, single))
            })
            .collect::<Result<_>>()?;
        for (origin, single) in split {
            self.propagate_interest(from, origin, &single);
        }
        Ok(())
    }

    /// Rebuild every router's reverse-path interests from the *current*
    /// local subscriptions. Reverse-path state is a pure function of the
    /// tree and the local profiles, so this both heals the network after
    /// a tree reorganization and flushes stale interest left behind when
    /// a subscription's profile is replaced (a widened representative).
    pub fn rebuild_routes(&mut self) {
        for r in &mut self.routers {
            r.clear_neighbor_interests();
        }
        let subs: Vec<(NodeId, Profile)> = self
            .routers
            .iter()
            .flat_map(|r| {
                let node = r.node();
                r.local_subscribers()
                    .map(move |(_, p)| (node, p.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (node, profile) in subs {
            // Streams can only vanish from the registry via explicit
            // unregistration, which the system layer never does while
            // subscriptions exist; ignore unknown streams defensively.
            let _ = self.propagate_per_stream(node, &profile);
        }
    }

    /// Submit a user query at node `user`. Returns the query id; results
    /// accumulate in [`Cosmos::results`] as data is published.
    pub fn submit_query(&mut self, text: &str, user: NodeId) -> Result<QueryId> {
        if user.index() >= self.routers.len() {
            return Err(CosmosError::System(format!("unknown user node {user}")));
        }
        let spanned = cosmos_cql::parse_query_spanned(text)?;
        // Static analysis gates registration: a continuous query with an
        // error-level finding (unsatisfiable WHERE, type mismatch, …)
        // would run forever and deliver nothing, so refuse it up front.
        // Warnings don't block; they are kept for inspection.
        let diags = cosmos_lint::check_query_with(&spanned, self.catalog.schema_fn());
        if let Some(err) = diags
            .iter()
            .find(|d| d.severity == cosmos_lint::Severity::Error)
        {
            return Err(CosmosError::Lint(format!("{}: {}", err.code, err.message)));
        }
        let warnings: Vec<String> = diags
            .iter()
            .take(MAX_LINT_WARNINGS_PER_QUERY)
            .map(cosmos_lint::Diagnostic::headline)
            .collect();
        let parsed = spanned.query;
        let analyzed = AnalyzedQuery::analyze(&parsed, self.catalog.schema_fn())?;
        // Admission control (cosmos-bound): a query whose executor state
        // provably grows without bound — a join buffer or aggregate
        // window under `[Unbounded]` — is rejected before any routing
        // state is allocated or the result stream is advertised.
        // Warning-level findings (DISTINCT dedup state) ride along with
        // the lint warnings.
        let mut warnings = warnings;
        for d in cosmos_bound::check_query(&analyzed) {
            match d.severity {
                cosmos_lint::Severity::Error => {
                    return Err(CosmosError::Lint(format!("{}: {}", d.code, d.message)));
                }
                _ => {
                    if warnings.len() < MAX_LINT_WARNINGS_PER_QUERY {
                        warnings.push(d.headline());
                    }
                }
            }
        }
        self.register_analyzed(analyzed, warnings, user)
    }

    /// Place, group and start an admitted query at user node `user`:
    /// the half of [`Cosmos::submit_query`] after parsing, lint and
    /// admission control.
    fn register_analyzed(
        &mut self,
        analyzed: AnalyzedQuery,
        warnings: Vec<String>,
        user: NodeId,
    ) -> Result<QueryId> {
        let processor = self.pick_processor(&analyzed);
        // A new representative needs its processor's source tree: build
        // it before anything changes, so a partitioned graph rejects the
        // query whole.
        let tree = self.new_source_tree(processor)?;
        let qid = QueryId(self.next_query);
        self.next_query += 1;
        if !warnings.is_empty() {
            self.lint_warnings.insert(qid, warnings);
        }
        *self.processor_load.entry(processor).or_insert(0) += 1;

        // Query management: group/merge, or the non-share baseline.
        let (result_stream, user_profile, rep, rep_is_new, rep_changed, updated_profiles) =
            if self.cfg.merging_enabled {
                let catalog = &self.catalog;
                let manager = self
                    .managers
                    .entry(processor)
                    .or_insert_with(|| GroupManager::new(format!("result::{processor}")));
                let outcome = manager.insert(qid, analyzed.clone(), catalog)?;
                let rep = manager
                    .group(outcome.group)
                    .expect("inserted group exists")
                    .representative
                    .clone();
                (
                    outcome.result_stream,
                    outcome.profile,
                    rep,
                    !outcome.joined_existing,
                    outcome.rep_changed,
                    outcome.updated_profiles,
                )
            } else {
                self.baseline_counter += 1;
                let stream =
                    StreamName::from(format!("result::{processor}::q{}", self.baseline_counter));
                let profile = retighten_profile(&analyzed, &analyzed, &stream)?;
                self.baseline_streams.insert(qid, stream.clone());
                (stream, profile, analyzed.clone(), true, false, Vec::new())
            };

        if rep_is_new {
            // Advertise the result stream and start the representative.
            if let Some(tree) = tree {
                self.source_trees.insert(processor, tree);
            }
            self.registry
                .register(result_stream.clone(), rep.output_schema.clone(), processor)?;
            self.catalog.register(
                result_stream.clone(),
                rep.output_schema.clone(),
                StreamStats::with_rate(cosmos_query::estimate::output_tuples_per_sec(
                    &rep,
                    &self.catalog,
                )),
            );
            let mut executor = Executor::new(rep.clone(), result_stream.clone())?;
            self.arm_executor(&mut executor);
            // The SPE subscribes to the source data (Section 4 profile).
            let sub = self.alloc_sub();
            let source_profile = rep.source_profile();
            self.routers[processor.index()].add_local_subscriber(sub, source_profile.clone());
            self.spe_subs.insert(sub, result_stream.clone());
            self.propagate_per_stream(processor, &source_profile)?;
            self.executor_gen += 1;
            self.query_executor_gen.insert(qid, self.executor_gen);
            self.set_rep(
                &result_stream,
                Some(RepSite {
                    processor,
                    executor,
                    generation: self.executor_gen,
                }),
            );
        } else if rep_changed {
            // Replace the running representative: wider query, same
            // result stream. (Window state restarts; experiments submit
            // queries before publishing data.)
            self.retire_executor(&result_stream);
            self.registry
                .update_schema(&result_stream, rep.output_schema.clone())?;
            let mut executor = Executor::new(rep.clone(), result_stream.clone())?;
            self.arm_executor(&mut executor);
            self.executor_gen += 1;
            self.set_rep(
                &result_stream,
                Some(RepSite {
                    processor,
                    executor,
                    generation: self.executor_gen,
                }),
            );
            // The replaced executor starts fresh: every member of the
            // group (the new one included) is now served by the new
            // generation.
            self.query_executor_gen.insert(qid, self.executor_gen);
            if let Some(manager) = self.managers.get(&processor) {
                if let Some((g, _)) = manager.placement(qid) {
                    for (mid, _) in &g.members {
                        self.query_executor_gen.insert(*mid, self.executor_gen);
                    }
                }
            }
            // Re-subscribe the SPE input with the widened profile.
            let source_profile = rep.source_profile();
            let sub = *self
                .spe_subs
                .iter()
                .find(|(_, s)| **s == result_stream)
                .map(|(k, _)| k)
                .expect("spe subscription exists");
            self.routers[processor.index()].add_local_subscriber(sub, source_profile.clone());
            self.propagate_per_stream(processor, &source_profile)?;
        } else {
            // Joined an existing group without widening it: the query is
            // served by the warm, already-running executor.
            let gen = self.reps[&result_stream].generation;
            self.query_executor_gen.insert(qid, gen);
        }

        // A widened representative invalidates the other members'
        // re-tightened profiles: replace their local subscriptions and
        // rebuild the reverse-path state so no stale (looser or tighter)
        // interest lingers on intermediate nodes.
        let must_rebuild = !updated_profiles.is_empty();
        for (mid, profile) in updated_profiles {
            let member_user = self.query_user[&mid];
            let member_sub = self.user_sub_of_query[&mid];
            self.routers[member_user.index()].add_local_subscriber(member_sub, profile);
        }

        // The user retrieves the results through the CBN.
        let sub = self.alloc_sub();
        self.routers[user.index()].add_local_subscriber(sub, user_profile.clone());
        self.user_subs.insert(sub, qid);
        self.user_sub_of_query.insert(qid, sub);
        if must_rebuild {
            self.rebuild_routes();
        } else {
            self.propagate_interest(user, processor, &user_profile);
        }

        self.delivered.insert(qid, Vec::new());
        self.query_user.insert(qid, user);
        self.query_processor.insert(qid, processor);
        Ok(qid)
    }

    /// Self-tuning (the "Self-tuning" of COSMOS's name): re-optimize the
    /// query grouping at every processor. Where a better grouping exists
    /// (greedy insertion is order-sensitive), the processor's
    /// representatives are rebuilt, its result streams re-advertised,
    /// every affected user subscription refreshed, and the routing state
    /// re-derived. Returns the number of processors whose grouping
    /// improved.
    ///
    /// Like representative replacement on merge, rebuilt executors start
    /// with empty windows; run this between workload phases.
    pub fn reoptimize_groups(&mut self) -> Result<usize> {
        if !self.cfg.merging_enabled {
            return Ok(0);
        }
        let processors: Vec<NodeId> = self.managers.keys().copied().collect();
        let mut improved = 0usize;
        for p in processors {
            let catalog = self.catalog.clone();
            let Some(mgr) = self.managers.get_mut(&p) else {
                continue;
            };
            let Some(placements) = mgr.reoptimize(&catalog)? else {
                continue;
            };
            improved += 1;
            // Tear down every representative this processor was running.
            let old_streams: Vec<StreamName> = self
                .reps
                .iter()
                .filter(|(_, site)| site.processor == p)
                .map(|(k, _)| k.clone())
                .collect();
            for s in &old_streams {
                self.retire_executor(s);
                self.set_rep(s, None);
                self.registry.unregister(s);
                let dead_subs: Vec<SubscriberId> = self
                    .spe_subs
                    .iter()
                    .filter(|(_, st)| *st == s)
                    .map(|(k, _)| *k)
                    .collect();
                for k in dead_subs {
                    self.spe_subs.remove(&k);
                    self.routers[p.index()].remove_local_subscriber(k);
                }
            }
            // Start the new representatives.
            let groups: Vec<(StreamName, AnalyzedQuery)> = self.managers[&p]
                .groups()
                .map(|g| (g.result_stream.clone(), g.representative.clone()))
                .collect();
            for (stream, rep) in groups {
                self.ensure_source_tree(p)?;
                let rate = cosmos_query::estimate::output_tuples_per_sec(&rep, &self.catalog);
                self.registry
                    .register(stream.clone(), rep.output_schema.clone(), p)?;
                self.catalog.register(
                    stream.clone(),
                    rep.output_schema.clone(),
                    StreamStats::with_rate(rate),
                );
                let mut executor = Executor::new(rep.clone(), stream.clone())?;
                self.arm_executor(&mut executor);
                let sub = self.alloc_sub();
                self.routers[p.index()].add_local_subscriber(sub, rep.source_profile());
                self.spe_subs.insert(sub, stream.clone());
                self.executor_gen += 1;
                self.set_rep(
                    &stream,
                    Some(RepSite {
                        processor: p,
                        executor,
                        generation: self.executor_gen,
                    }),
                );
            }
            // Refresh the affected users' subscriptions.
            for (qid, stream, profile) in placements {
                let user = self.query_user[&qid];
                let sub = self.user_sub_of_query[&qid];
                self.routers[user.index()].add_local_subscriber(sub, profile);
                let gen = self.reps[&stream].generation;
                self.query_executor_gen.insert(qid, gen);
            }
        }
        if improved > 0 {
            self.rebuild_routes();
        }
        Ok(improved)
    }

    /// Withdraw a query: remove its user subscription, drop it from its
    /// group (rebuilding the representative from the remaining members,
    /// or tearing the group down entirely), and re-derive routing state.
    ///
    /// Returns an error for unknown query ids. Results already delivered
    /// remain readable via [`Cosmos::results`].
    pub fn unsubscribe(&mut self, qid: QueryId) -> Result<()> {
        let user = self
            .query_user
            .get(&qid)
            .copied()
            .ok_or_else(|| CosmosError::System(format!("unknown query {qid}")))?;
        let sub = self.user_sub_of_query.remove(&qid).expect("sub per query");
        self.routers[user.index()].remove_local_subscriber(sub);
        self.user_subs.remove(&sub);
        let processor = self.query_processor[&qid];
        if let Some(load) = self.processor_load.get_mut(&processor) {
            *load = load.saturating_sub(1);
        }
        if self.cfg.merging_enabled {
            let manager = self.managers.get_mut(&processor).expect("manager exists");
            // Identify the group before removal to detect dissolution.
            let (group, _) = manager.placement(qid).expect("query placed");
            let (gid, result_stream) = (group.id, group.result_stream.clone());
            manager.remove(qid);
            match manager.group(gid) {
                None => {
                    // Group dissolved: stop the representative and drop
                    // its advertisement and SPE input subscription.
                    self.retire_executor(&result_stream);
                    self.set_rep(&result_stream, None);
                    self.registry.unregister(&result_stream);
                    let spe_sub = self
                        .spe_subs
                        .iter()
                        .find(|(_, s)| **s == result_stream)
                        .map(|(k, _)| *k);
                    if let Some(s) = spe_sub {
                        self.spe_subs.remove(&s);
                        self.routers[processor.index()].remove_local_subscriber(s);
                    }
                }
                Some(g) => {
                    // Representative shrank: restart it and refresh the
                    // remaining members' profiles.
                    let rep = g.representative.clone();
                    let members: Vec<QueryId> = g.members.iter().map(|(m, _)| *m).collect();
                    self.retire_executor(&result_stream);
                    self.registry
                        .update_schema(&result_stream, rep.output_schema.clone())?;
                    let mut executor = Executor::new(rep.clone(), result_stream.clone())?;
                    self.arm_executor(&mut executor);
                    self.executor_gen += 1;
                    self.set_rep(
                        &result_stream,
                        Some(RepSite {
                            processor,
                            executor,
                            generation: self.executor_gen,
                        }),
                    );
                    for mid in &members {
                        self.query_executor_gen.insert(*mid, self.executor_gen);
                    }
                    let source_profile = rep.source_profile();
                    let spe_sub = *self
                        .spe_subs
                        .iter()
                        .find(|(_, s)| **s == result_stream)
                        .map(|(k, _)| k)
                        .expect("spe subscription exists");
                    self.routers[processor.index()].add_local_subscriber(spe_sub, source_profile);
                    for mid in members {
                        let manager = self.managers.get(&processor).expect("manager");
                        let (g, _) = manager.placement(mid).expect("member placed");
                        let profile = retighten_profile(
                            &member_query(g, mid)?,
                            &g.representative,
                            &result_stream,
                        )?;
                        let member_user = self.query_user[&mid];
                        let member_sub = self.user_sub_of_query[&mid];
                        self.routers[member_user.index()].add_local_subscriber(member_sub, profile);
                    }
                }
            }
        } else {
            // Baseline mode: every query has its own representative;
            // tear it down directly.
            let stream = self
                .baseline_streams
                .remove(&qid)
                .expect("baseline query has a private result stream");
            self.retire_executor(&stream);
            self.set_rep(&stream, None);
            self.registry.unregister(&stream);
            let spe_sub = self
                .spe_subs
                .iter()
                .find(|(_, st)| **st == stream)
                .map(|(k, _)| *k);
            if let Some(k) = spe_sub {
                self.spe_subs.remove(&k);
                self.routers[processor.index()].remove_local_subscriber(k);
            }
        }
        self.query_user.remove(&qid);
        self.query_processor.remove(&qid);
        self.query_executor_gen.remove(&qid);
        self.lint_warnings.remove(&qid);
        self.rebuild_routes();
        Ok(())
    }

    fn account_link(&mut self, a: NodeId, b: NodeId, bytes: usize) {
        let key = (a.min(b), a.max(b));
        *self.link_bytes.entry(key).or_insert(0) += bytes as u64;
        // Price the hop exactly like TreeOptimizer::cost does, so the
        // measured weighted cost is comparable to the estimated one.
        let delay = self.graph.link_delay(a, b).unwrap_or_else(|| {
            debug_assert!(false, "traffic accounted on downed link {a}-{b}");
            self.graph.distance(a, b).max(f64::EPSILON)
        });
        self.weighted_cost.add(bytes as f64 * delay);
    }

    /// Publish one source datagram at its stream's origin node and drive
    /// it (and any result datagrams it triggers) through the network to
    /// completion.
    ///
    /// Thin wrapper over [`Cosmos::publish_batch`]; the input tuple is
    /// never cloned — the origin router borrows it and only the
    /// (projected, `Arc`-backed) forwarded copies are materialized.
    pub fn publish(&mut self, tuple: &Tuple) -> Result<()> {
        self.publish_batch(std::slice::from_ref(tuple))
    }

    /// Install (`Some`) or tear down (`None`) the representative
    /// producing `stream` — the one place `reps` changes, so the
    /// cascading flag is recomputed here rather than on every publish.
    /// A cascading topology (an executor consuming a stream another
    /// executor produces) would, batched, deliver a source batch and
    /// the result batch it triggers back-to-back instead of interleaved
    /// by timestamp, so [`Cosmos::publish_batch`] routes it per tuple.
    fn set_rep(&mut self, stream: &StreamName, site: Option<RepSite>) {
        match site {
            Some(site) => {
                self.reps.insert(stream.clone(), site);
            }
            None => {
                self.reps.remove(stream);
            }
        }
        self.cascading = self.reps.values().any(|site| {
            site.executor
                .query()
                .streams
                .iter()
                .any(|b| self.reps.contains_key(&b.stream))
        });
    }

    /// Publish a *stream-homogeneous* batch of source datagrams at their
    /// stream's origin and drive the whole batch through the network
    /// together: one match lookup per (router, batch), one projection
    /// plan per (router, destination), amortized link accounting, and
    /// whole batches fed to the SPE executors.
    ///
    /// Delivery is tuple-for-tuple identical to publishing the tuples
    /// one at a time (cosmos-testkit's batch oracle pins this down).
    pub fn publish_batch(&mut self, tuples: &[Tuple]) -> Result<()> {
        let Some(first) = tuples.first() else {
            return Ok(());
        };
        if tuples.iter().any(|t| t.stream != first.stream) {
            return Err(CosmosError::System(
                "publish_batch requires a single-stream batch".into(),
            ));
        }
        let reg = self.registry.peek(&first.stream).ok_or_else(|| {
            CosmosError::System(format!("stream '{}' is not advertised", first.stream))
        })?;
        let (origin, schema) = (reg.origin, reg.schema.clone());
        self.tuples_published += tuples.len() as u64;
        self.metrics.on_publish(&first.stream, &schema, tuples);
        if self.disorder.is_some() {
            self.published_streams.insert(first.stream.clone());
        }
        if tuples.len() > 1 && self.cascading {
            for t in tuples {
                self.drive(origin, std::slice::from_ref(t), &schema);
            }
            self.after_publish(tuples);
            self.autotune_tick();
            return Ok(());
        }
        self.drive(origin, tuples, &schema);
        self.after_publish(tuples);
        self.autotune_tick();
        Ok(())
    }

    /// Drive an already-validated source batch from its origin through
    /// the network to completion, breadth first.
    fn drive(&mut self, origin: NodeId, tuples: &[Tuple], schema: &Schema) {
        let mut queue: VecDeque<Hop> = VecDeque::new();
        let forwards = self.routers[origin.index()].route_hop(tuples, schema, None);
        self.process_forwards(origin, forwards, &mut queue);
        self.drain_hops(queue);
    }

    /// Route queued hops, and every hop they cause, to completion.
    fn drain_hops(&mut self, mut queue: VecDeque<Hop>) {
        while let Some(hop) = queue.pop_front() {
            let at = hop.at;
            let forwards = self.route_hop(hop);
            self.process_forwards(at, forwards, &mut queue);
        }
    }

    /// Route one hop — every hop goes through here. The router the batch arrived from is handed along,
    /// so the hop relays without matching where that is proven
    /// (DESIGN.md §17), moving the hop's owned batch.
    fn route_hop(&self, hop: Hop) -> Vec<BatchForward> {
        let upstream = hop.from.map(|n| &self.routers[n.index()]);
        self.routers[hop.at.index()].route_hop(hop.tuples, &hop.schema, upstream)
    }

    /// Handle the forwarding decisions of one (node, batch) routing
    /// step: account and enqueue neighbor hops, feed local SPE inputs
    /// (re-entering their outputs into the network), append user
    /// deliveries.
    fn process_forwards(
        &mut self,
        at: NodeId,
        forwards: Vec<BatchForward>,
        queue: &mut VecDeque<Hop>,
    ) {
        for f in forwards {
            match f.dest {
                Destination::Neighbor(n) => {
                    let bytes: usize = f.tuples.iter().map(Tuple::size_bytes).sum();
                    self.account_link(at, n, bytes);
                    self.metrics.on_link(at, n, f.tuples.len(), bytes);
                    queue.push_back(Hop {
                        from: Some(at),
                        at: n,
                        tuples: f.tuples,
                        schema: f.schema,
                    });
                }
                Destination::Local(sub) => {
                    if let Some(hop) = self.deliver_local(at, sub, f.tuples, &f.schema) {
                        queue.push_back(hop);
                    }
                }
            }
        }
    }

    /// Deliver a projected batch to one locally attached subscriber: an
    /// SPE input gets the batch pushed through its executor (returning
    /// the result datagrams re-entering the network as a new hop, if
    /// any), a user subscription gets the tuples appended to its
    /// delivery buffer.
    fn deliver_local(
        &mut self,
        at: NodeId,
        sub: SubscriberId,
        tuples: Vec<Tuple>,
        schema: &Schema,
    ) -> Option<Hop> {
        if let Some(stream) = self.spe_subs.get(&sub) {
            let stream = stream.clone();
            let site = self.reps.get_mut(&stream).expect("rep site exists");
            debug_assert_eq!(site.processor, at);
            let outputs = site.executor.push_projected_batch(&tuples, schema);
            let rep_schema = site.executor.result_schema().clone();
            self.metrics.on_spe_intake(at, &tuples);
            if !outputs.is_empty() {
                // Result datagrams enter the CBN here; observe them
                // like any other published stream.
                self.metrics.on_publish(&stream, &rep_schema, &outputs);
                return Some(Hop {
                    from: None,
                    at,
                    tuples: outputs,
                    schema: rep_schema,
                });
            }
        } else if let Some(&qid) = self.user_subs.get(&sub) {
            if self.overload.is_some() && self.metrics.enabled() {
                self.overload_deliver(at, qid, tuples);
            } else {
                self.metrics.on_delivery(qid, at, &tuples);
                self.delivered
                    .get_mut(&qid)
                    .expect("delivery buffer")
                    .extend(tuples);
            }
        }
        None
    }

    /// The overload-controlled user delivery path: consult the
    /// controller with the node's measured in-window intake, then map
    /// its verdict onto delivery-buffer and metrics effects. Budget
    /// decisions read only virtual-time state, so a replay of the same
    /// scenario reproduces identical shed decisions.
    fn overload_deliver(&mut self, at: NodeId, qid: QueryId, tuples: Vec<Tuple>) {
        let in_window = self.metrics.consumed_in_window(at);
        let window_index = self.metrics.now_ms().div_euclid(self.metrics.window_ms());
        let mut ctl = self.overload.take().expect("caller checked");
        let action = ctl.admit(at, qid, tuples, in_window, window_index);
        self.overload = Some(ctl);
        match action {
            Action::Deliver { tuples, .. } => {
                self.metrics.on_delivery(qid, at, &tuples);
                self.delivered
                    .get_mut(&qid)
                    .expect("delivery buffer")
                    .extend(tuples);
            }
            Action::Stage { coalesced } => {
                if coalesced {
                    self.metrics.on_coalesce();
                }
            }
            Action::Shed { tuples, bytes } => self.metrics.on_shed(tuples, bytes),
            Action::Throttle {
                tuples,
                bytes,
                limit,
            } => {
                self.metrics.on_shed(tuples, bytes);
                if let Some(limit) = limit {
                    self.send_rate_limit(at, limit);
                }
            }
        }
    }

    /// Route one [`RateLimit`] datagram from the overloaded consumer
    /// reverse along the throttled stream's dissemination tree to the
    /// stream's origin, accounting every link crossing in bytes exactly
    /// like a watermark punctuation. The notice is recorded at the
    /// origin (advisory in this build — sources are simulation-driven).
    fn send_rate_limit(&mut self, at: NodeId, limit: RateLimit) {
        let datagram_bytes = limit.size_bytes();
        let mut link_bytes = 0usize;
        if let Some(origin) = self.registry.origin(&limit.stream) {
            let path = self.tree_path(at, origin);
            for w in path.windows(2) {
                self.account_link(w[0], w[1], datagram_bytes);
                self.metrics.on_link(w[0], w[1], 0, datagram_bytes);
                link_bytes += datagram_bytes;
            }
        }
        self.metrics.on_throttle(link_bytes);
        if let Some(ctl) = self.overload.as_mut() {
            ctl.record_received(limit);
        }
    }

    /// The hop sequence between two nodes on the dissemination tree
    /// rooted for `to` (per-source mode uses `to`'s tree when one
    /// exists): up the parent chain from `from` to the lowest common
    /// ancestor, then down to `to`.
    fn tree_path(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let tree = if self.cfg.per_source_trees {
            self.source_trees.get(&to).unwrap_or(&self.tree)
        } else {
            &self.tree
        };
        let ancestors = |mut n: NodeId| {
            let mut v = vec![n];
            while let Some(p) = tree.parent(n) {
                v.push(p);
                n = p;
            }
            v
        };
        let up = ancestors(from);
        let down = ancestors(to);
        let on_down: BTreeSet<NodeId> = down.iter().copied().collect();
        let mut path = Vec::new();
        let mut lca = *up.last().expect("chain includes the node itself");
        for n in &up {
            path.push(*n);
            if on_down.contains(n) {
                lca = *n;
                break;
            }
        }
        let pos = down
            .iter()
            .position(|n| *n == lca)
            .expect("LCA lies on both chains");
        for n in down[..pos].iter().rev() {
            path.push(*n);
        }
        path
    }

    /// Switch the deployment into (or out of) out-of-order operation.
    ///
    /// With a runtime set, publishes may arrive in any timestamp order
    /// within `runtime.bound` of the global high water: every
    /// representative executor stages out-of-order intake behind a
    /// watermark frontier with the given late-tuple policy, and the
    /// driver emits watermark punctuations after every publish. Pass
    /// `None` (the default) for classic in-order operation — no
    /// punctuations, no staging, bit-for-bit identical behavior.
    ///
    /// Call before publishing; executors already running are switched
    /// in place with empty staging areas.
    pub fn set_disorder(&mut self, runtime: Option<DisorderRuntime>) {
        self.disorder = runtime;
        let Some(rt) = runtime else { return };
        let seeds: Vec<(StreamName, Timestamp)> = self
            .emitted_watermarks
            .iter()
            .map(|(s, wm)| (s.clone(), *wm))
            .collect();
        for site in self.reps.values_mut() {
            site.executor.enable_disorder(rt.policy);
            for (s, wm) in &seeds {
                let outputs = site.executor.advance_watermark(s, *wm);
                debug_assert!(outputs.is_empty(), "fresh staging cannot drain");
            }
        }
    }

    /// The out-of-order runtime, if disorder mode is on.
    pub fn disorder(&self) -> Option<DisorderRuntime> {
        self.disorder
    }

    /// Put a freshly created executor into disorder mode (when on) and
    /// seed it with every watermark already emitted, so its frontier
    /// starts where the network's has advanced to instead of at −∞.
    fn arm_executor(&self, executor: &mut Executor) {
        let Some(rt) = self.disorder else { return };
        executor.enable_disorder(rt.policy);
        for (s, wm) in &self.emitted_watermarks {
            let outputs = executor.advance_watermark(s, *wm);
            debug_assert!(outputs.is_empty(), "fresh staging cannot drain");
        }
    }

    /// Before an executor is replaced or torn down: flush its staging
    /// area through the engine (routing whatever results that drains)
    /// and fold its disorder counters into the retired totals, so
    /// conservation holds across the whole deployment lifetime.
    fn retire_executor(&mut self, stream: &StreamName) {
        if self.disorder.is_none() {
            return;
        }
        let Some(site) = self.reps.get_mut(stream) else {
            return;
        };
        let outputs = site.executor.flush_staged();
        if let Some(stats) = site.executor.disorder_stats() {
            self.retired_disorder = self.retired_disorder.merge(&stats);
        }
        let processor = site.processor;
        let schema = site.executor.result_schema().clone();
        if !outputs.is_empty() {
            self.metrics.on_publish(stream, &schema, &outputs);
            self.inject_results(processor, outputs, schema);
        }
    }

    /// Drive result tuples that entered the network at `at` (an executor
    /// drain outside the normal publish path) through to completion.
    fn inject_results(&mut self, at: NodeId, tuples: Vec<Tuple>, schema: Schema) {
        self.drain_hops(VecDeque::from([Hop {
            from: None,
            at,
            tuples,
            schema,
        }]));
    }

    /// Disorder-mode epilogue of every publish: advance the global high
    /// water and emit watermarks. A no-op in in-order operation.
    fn after_publish(&mut self, tuples: &[Tuple]) {
        if self.disorder.is_none() {
            return;
        }
        if let Some(hw) = tuples.iter().map(|t| t.timestamp).max() {
            self.high_water = Some(self.high_water.map_or(hw, |h| h.max(hw)));
        }
        self.emit_watermarks();
    }

    /// Emit `high_water − bound` as the watermark of every source
    /// stream that has published, where it advances past the last one
    /// emitted. Lagging the *global* high water is what makes the
    /// promise sound: the workload's disorder transform displaces a
    /// tuple's position by at most `bound` of application time, so no
    /// future publish of *any* stream can carry a timestamp at or below
    /// the emitted watermark.
    fn emit_watermarks(&mut self) {
        let (Some(rt), Some(hw)) = (self.disorder, self.high_water) else {
            return;
        };
        let wm = Timestamp(hw.0.saturating_sub(rt.bound.millis()));
        let streams: Vec<StreamName> = self.published_streams.iter().cloned().collect();
        for stream in streams {
            if self.closed_streams.contains(&stream) {
                continue;
            }
            if self
                .emitted_watermarks
                .get(&stream)
                .is_some_and(|l| wm <= *l)
            {
                continue;
            }
            let Some(origin) = self.registry.origin(&stream) else {
                continue;
            };
            self.emitted_watermarks.insert(stream.clone(), wm);
            self.disseminate_watermark(stream, wm, origin);
        }
    }

    /// Route one watermark punctuation from its origin along the
    /// stream's dissemination tree: every link crossing is accounted in
    /// bytes exactly like data (and counted by the metrics hub), every
    /// interested SPE input advances its executor's frontier (draining
    /// staged tuples into the network), and an executor whose frontier
    /// moved propagates a punctuation for its *result* stream — so
    /// watermarks cascade through operator chains. User subscriptions
    /// consume punctuations silently (their windows are the executors').
    fn disseminate_watermark(&mut self, stream: StreamName, watermark: Timestamp, origin: NodeId) {
        let mut queue: VecDeque<(Option<NodeId>, NodeId, StreamName, Timestamp)> = VecDeque::new();
        queue.push_back((None, origin, stream, watermark));
        while let Some((from, at, stream, wm)) = queue.pop_front() {
            for dest in self.routers[at.index()].route_punctuation(&stream, from) {
                match dest {
                    Destination::Neighbor(n) => {
                        let bytes = Punctuation::new(stream.clone(), wm).size_bytes();
                        self.account_link(at, n, bytes);
                        self.metrics.on_link(at, n, 0, bytes);
                        self.metrics.on_punctuation(bytes);
                        queue.push_back((Some(at), n, stream.clone(), wm));
                    }
                    Destination::Local(sub) => {
                        let Some(result_stream) = self.spe_subs.get(&sub).cloned() else {
                            continue;
                        };
                        let site = self.reps.get_mut(&result_stream).expect("rep site exists");
                        debug_assert_eq!(site.processor, at);
                        let processor = site.processor;
                        let before = site.executor.frontier();
                        let outputs = site.executor.advance_watermark(&stream, wm);
                        let after = site.executor.frontier();
                        let schema = site.executor.result_schema().clone();
                        if !outputs.is_empty() {
                            self.metrics.on_publish(&result_stream, &schema, &outputs);
                            self.inject_results(processor, outputs, schema);
                        }
                        // The executor's frontier is a low-water promise
                        // for its result stream (revision tuples may dip
                        // below it, but stay within the grace window any
                        // downstream executor retains).
                        let (Some(b), Some(a)) = (before, after) else {
                            continue;
                        };
                        if a > b
                            && self
                                .emitted_watermarks
                                .get(&result_stream)
                                .is_none_or(|l| a > *l)
                        {
                            self.emitted_watermarks.insert(result_stream.clone(), a);
                            queue.push_back((None, processor, result_stream, a));
                        }
                    }
                }
            }
        }
    }

    /// Declare every source stream finished: emit a final `+∞` watermark
    /// along each one's dissemination tree (draining every staging area
    /// and cascading through operator chains), then prune the streams'
    /// routing state — interest entries, filters, and the plan-cache
    /// lines they pinned — since no datagram of a closed stream can ever
    /// arrive again. Records the closed set for the network snapshot.
    /// Also drains any batches the overload controller was coalescing.
    /// Idempotent; apart from the overload drain, a no-op in in-order
    /// operation.
    pub fn close_streams(&mut self) {
        // Nothing more can arrive: release any coalesced batches the
        // overload controller is still holding.
        self.drain_overload_staged();
        if self.disorder.is_none() {
            return;
        }
        let mut sources: Vec<(StreamName, NodeId)> = self
            .registry
            .iter()
            .filter(|r| !self.reps.contains_key(&r.name))
            .map(|r| (r.name.clone(), r.origin))
            .collect();
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        for (stream, origin) in sources {
            if self.closed_streams.contains(&stream) {
                continue;
            }
            self.emitted_watermarks
                .insert(stream.clone(), Timestamp(i64::MAX));
            self.disseminate_watermark(stream.clone(), Timestamp(i64::MAX), origin);
            for r in &mut self.routers {
                r.prune_stream(&stream);
            }
            self.closed_streams.insert(stream);
        }
    }

    /// Source streams closed by [`Cosmos::close_streams`].
    pub fn closed_streams(&self) -> &BTreeSet<StreamName> {
        &self.closed_streams
    }

    /// Deployment-wide out-of-order ingestion counters: every live
    /// executor's statistics plus everything accumulated from executors
    /// that were replaced or torn down. `conserved()` holds on this
    /// total at any instant.
    pub fn disorder_totals(&self) -> DisorderStats {
        let mut total = self.retired_disorder;
        for site in self.reps.values() {
            if let Some(stats) = site.executor.disorder_stats() {
                total = total.merge(&stats);
            }
        }
        total
    }

    /// Publish a whole timestamp-ordered input sequence.
    pub fn run<I: IntoIterator<Item = Tuple>>(&mut self, inputs: I) -> Result<()> {
        for t in inputs {
            self.publish(&t)?;
        }
        Ok(())
    }

    /// Publish a timestamp-ordered input sequence, batching maximal
    /// consecutive same-stream runs through [`Cosmos::publish_batch`].
    pub fn run_batched<I: IntoIterator<Item = Tuple>>(&mut self, inputs: I) -> Result<()> {
        let mut pending: Vec<Tuple> = Vec::new();
        for t in inputs {
            if pending.last().is_some_and(|p| p.stream != t.stream) {
                self.publish_batch(&pending)?;
                pending.clear();
            }
            pending.push(t);
        }
        if !pending.is_empty() {
            self.publish_batch(&pending)?;
        }
        Ok(())
    }

    /// Arm (or disarm) the per-node overload controller. With a
    /// configuration set, every user delivery is admission-checked
    /// against the node's intake budget per metrics rate window and
    /// over-budget batches are shed, coalesced, or throttled per the
    /// per-query policy — ledger-accounted so that
    /// `offered == delivered + shed + staged` holds tuple- and
    /// byte-exact per query at any instant (cosmos-testkit checks the
    /// identity after every event).
    ///
    /// Budgets are measured against the metrics hub's virtual-time
    /// windows; the controller is inert while metrics recording is
    /// disabled. Disarming (or replacing) a controller first drains its
    /// pending coalesced batches into the delivery buffers.
    pub fn set_overload(&mut self, cfg: Option<OverloadConfig>) {
        self.drain_overload_staged();
        self.overload = cfg.map(OverloadController::new);
    }

    /// The armed overload controller (ledgers, high-water marks,
    /// received rate-limit notices), if any.
    pub fn overload(&self) -> Option<&OverloadController> {
        self.overload.as_ref()
    }

    /// Deliver every pending coalesced batch to its query's buffer
    /// (stream closure, controller disarm). The ledger moves the mass
    /// from `staged` to `delivered`, keeping the identity exact.
    fn drain_overload_staged(&mut self) {
        let Some(ctl) = self.overload.as_mut() else {
            return;
        };
        for (qid, tuples) in ctl.drain_all() {
            let node = self.query_user.get(&qid).copied();
            if let (Some(node), Some(buf)) = (node, self.delivered.get_mut(&qid)) {
                self.metrics.on_delivery(qid, node, &tuples);
                buf.extend(tuples);
            }
        }
    }

    /// Result tuples delivered to a query's user so far.
    pub fn results(&self, qid: QueryId) -> &[Tuple] {
        self.delivered.get(&qid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Warning-level lint findings recorded when the query was accepted
    /// (e.g. a join over an `[Unbounded]` window). Empty for clean
    /// queries; error-level findings reject submission instead.
    pub fn lint_warnings(&self, qid: QueryId) -> &[String] {
        self.lint_warnings
            .get(&qid)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The user node of a query.
    pub fn user_of(&self, qid: QueryId) -> Option<NodeId> {
        self.query_user.get(&qid).copied()
    }

    /// The processor a query was assigned to.
    pub fn processor_of(&self, qid: QueryId) -> Option<NodeId> {
        self.query_processor.get(&qid).copied()
    }

    /// One view per running representative executor: its result stream,
    /// the processor hosting it, the representative query it runs, and
    /// its current retained-state occupancy — the measured side of
    /// `cosmos-bound`'s per-executor state bounds. Ordered by result
    /// stream for determinism.
    pub fn rep_states(&self) -> Vec<RepStateView<'_>> {
        let mut out: Vec<RepStateView<'_>> = self
            .reps
            .iter()
            .map(|(stream, site)| RepStateView {
                result_stream: stream,
                processor: site.processor,
                query: site.executor.query(),
                state: site.executor.state_size(),
                disorder: site.executor.disorder_stats(),
                frontier: site.executor.frontier(),
            })
            .collect();
        out.sort_by_key(|v| v.result_stream.clone());
        out
    }

    /// Bytes that crossed the (undirected) overlay link `a - b`.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        self.link_bytes
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(0)
    }

    /// Total bytes that crossed any overlay link.
    pub fn total_bytes(&self) -> u64 {
        self.link_bytes.values().sum()
    }

    /// Total delay-weighted communication cost (`Σ bytes × link delay`).
    pub fn weighted_cost(&self) -> f64 {
        self.weighted_cost.total()
    }

    /// Number of source datagrams published.
    pub fn tuples_published(&self) -> u64 {
        self.tuples_published
    }

    /// The live metrics hub (read access for diagnostics and tests).
    pub fn metrics_hub(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Whether runtime metrics are being recorded.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.enabled()
    }

    /// Turn metrics recording on or off (history is kept). The off
    /// position exists for the bench overhead gate: every observation
    /// hook becomes an early return.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.metrics.set_enabled(enabled);
    }

    /// Replace the metrics configuration. Resets all recorded history
    /// (windows of a different span are not comparable).
    pub fn set_metrics_config(&mut self, cfg: MetricsConfig) {
        self.metrics = MetricsHub::new(cfg);
    }

    /// A deterministic snapshot of every runtime metric: per-link and
    /// per-node traffic, per-stream observed rates and sampled attribute
    /// statistics, per-query delivery rates and virtual-time latencies,
    /// plus the aggregated CBN router counters. Versioned and
    /// serializable like `NetworkSnapshot`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut router = RouterTotals::default();
        for r in &self.routers {
            router.fold_counters(&r.counters(), r.cached_plan_count() as u64);
        }
        self.metrics.snapshot(router)
    }

    /// Maximum relative drift between what registration-time estimates
    /// claim and what the metrics layer has measured, split into the
    /// stream-rate component and the per-group representative-cost
    /// component. Streams the metrics layer never observed contribute
    /// nothing.
    pub fn measured_drift(&self) -> (f64, f64) {
        let measured = self.metrics.measured();
        let mut stream_drift = 0.0f64;
        for s in self.catalog.streams() {
            let (Some(m), Some(e)) = (measured.stream_rate(s), self.catalog.stats(s)) else {
                continue;
            };
            stream_drift = stream_drift.max(relative_drift(m, e.rate));
        }
        let measured_catalog = measured.catalog(&self.catalog);
        let mut group_drift = 0.0f64;
        for mgr in self.managers.values() {
            for g in mgr.groups() {
                let est = cosmos_query::estimate::cost_bps(&g.representative, &self.catalog);
                let meas = cosmos_query::estimate::cost_bps(&g.representative, &measured_catalog);
                group_drift = group_drift.max(relative_drift(meas, est));
            }
        }
        (stream_drift, group_drift)
    }

    /// Replace the registered statistics of every *observed* stream with
    /// its measured statistics (rate always; attribute ranges and
    /// distinct counts where the samplers saw values). Returns how many
    /// streams were updated. Unobserved streams keep their estimates.
    pub fn adopt_measured_stats(&mut self) -> usize {
        let streams: Vec<StreamName> = self.catalog.streams().cloned().collect();
        let mut adopted = 0usize;
        for s in streams {
            let Some(stats) = self
                .metrics
                .measured()
                .stream_stats(&s, self.catalog.stats(&s))
            else {
                continue;
            };
            let schema = self.catalog.schema(&s).cloned().expect("stream registered");
            self.catalog.register(s, schema, stats);
            adopted += 1;
        }
        adopted
    }

    /// Measured per-node demand: the windowed byte rate each node
    /// consumes locally (user deliveries plus SPE intake).
    fn measured_demand(&self) -> Vec<f64> {
        (0..self.graph.node_count())
            .map(|i| self.metrics.consumed_byte_rate(NodeId(i as u32)))
            .collect()
    }

    /// Close the self-tuning loop: compare measured statistics against
    /// the registration-time estimates the system planned with, and if
    /// the relative drift exceeds `opts.drift_threshold`, adopt the
    /// measured statistics into the catalog and re-run the existing
    /// optimizers — query re-grouping ([`Cosmos::reoptimize_groups`])
    /// and dissemination-tree reorganization with *measured* per-node
    /// demand ([`Cosmos::optimize_tree_with_demand`]).
    ///
    /// Below the threshold this is read-only and returns a pass with
    /// `triggered: false`. With metrics recording disabled the pass
    /// returns [`AutotuneReport::MetricsDisabled`] immediately — every
    /// measured rate would read zero, so computing the full group-cost
    /// drift against it would be both wasted work and misleading.
    pub fn autotune(&mut self, opts: &AutotuneOptions) -> Result<AutotuneReport> {
        // A direct call runs without a hysteresis band: the optimizer
        // only reports strict improvements, so nothing rolls back.
        self.autotune_gated(opts, 0.0)
    }

    /// [`Cosmos::autotune`] with a hysteresis band: a tree
    /// re-organization whose fractional improvement does not *exceed*
    /// `hysteresis` is rolled back (tree restored, routes rebuilt) and
    /// reported with `tree_rolled_back: true`, so near-equal plans
    /// cannot oscillate across scheduled passes.
    fn autotune_gated(
        &mut self,
        opts: &AutotuneOptions,
        hysteresis: f64,
    ) -> Result<AutotuneReport> {
        if !self.metrics.enabled() {
            return Ok(AutotuneReport::MetricsDisabled);
        }
        let (stream_drift, group_drift) = self.measured_drift();
        let drift = stream_drift.max(group_drift);
        let mut pass = AutotunePass {
            stream_drift,
            group_drift,
            drift,
            threshold: opts.drift_threshold,
            triggered: false,
            adopted_streams: 0,
            groups_improved: 0,
            tree: None,
            tree_rolled_back: false,
        };
        if !drift.is_finite() || drift <= opts.drift_threshold {
            return Ok(AutotuneReport::Measured(pass));
        }
        pass.triggered = true;
        pass.adopted_streams = self.adopt_measured_stats();
        pass.groups_improved = self.reoptimize_groups()?;
        let demand = self.measured_demand();
        let saved = (hysteresis > 0.0).then(|| self.tree.clone());
        let report = self.optimize_tree_with_demand(opts.optimizer, &demand);
        if let Some(saved) = saved {
            if report.moves > 0 && report.improvement() <= hysteresis {
                self.tree = saved;
                self.rebuild_routes();
                pass.tree_rolled_back = true;
            }
        }
        pass.tree = Some(report);
        Ok(AutotuneReport::Measured(pass))
    }

    /// Arm (or disarm) the self-tuning scheduler. With a policy set,
    /// the publish driver evaluates the policy's triggers after every
    /// publish (in virtual time — wall clocks never participate) and
    /// runs a hysteresis-gated autotune pass when one fires; see
    /// [`AutotunePolicy`] for the trigger semantics. A pass that fails
    /// (e.g. a regrouping error) is skipped, never propagated into the
    /// publish path. Arming resets the scheduler's phase to "a pass
    /// just ran now".
    pub fn set_autotune(&mut self, policy: Option<AutotunePolicy>) {
        self.autotune_sched = policy.map(|policy| AutotuneSched {
            policy,
            last_run_ms: self.metrics.now_ms(),
            last_window: self.metrics.now_ms().div_euclid(self.metrics.window_ms()),
            over_windows: 0,
            runs: 0,
            rollbacks: 0,
            last: None,
        });
    }

    /// The armed self-tuning policy, if any.
    pub fn autotune_policy(&self) -> Option<AutotunePolicy> {
        self.autotune_sched.as_ref().map(|s| s.policy)
    }

    /// Scheduled autotune passes run since the policy was armed.
    pub fn autotune_runs(&self) -> u64 {
        self.autotune_sched.as_ref().map_or(0, |s| s.runs)
    }

    /// Scheduled passes whose tree re-organization was rolled back by
    /// the hysteresis band.
    pub fn autotune_rollbacks(&self) -> u64 {
        self.autotune_sched.as_ref().map_or(0, |s| s.rollbacks)
    }

    /// The report of the most recent scheduled pass, if any ran.
    pub fn last_autotune(&self) -> Option<&AutotuneReport> {
        self.autotune_sched.as_ref().and_then(|s| s.last.as_ref())
    }

    /// Evaluate the armed scheduling policy at the current virtual
    /// time. Called by the publish driver after each publish completes.
    fn autotune_tick(&mut self) {
        let Some(mut sched) = self.autotune_sched.take() else {
            return;
        };
        if self.metrics.enabled() {
            let now = self.metrics.now_ms();
            let mut due = false;
            let period = sched.policy.period_virtual.millis();
            if period > 0 && now - sched.last_run_ms >= period {
                due = true;
            }
            if sched.policy.trigger_after_k_windows > 0 {
                let win = now.div_euclid(self.metrics.window_ms());
                if win > sched.last_window {
                    // Evaluate drift once per rate window, on entry.
                    sched.last_window = win;
                    let (sd, gd) = self.measured_drift();
                    if sd.max(gd) > sched.policy.options.drift_threshold {
                        sched.over_windows += 1;
                    } else {
                        sched.over_windows = 0;
                    }
                    if sched.over_windows >= sched.policy.trigger_after_k_windows {
                        due = true;
                    }
                }
            }
            if due {
                if let Ok(report) =
                    self.autotune_gated(&sched.policy.options, sched.policy.hysteresis)
                {
                    sched.runs += 1;
                    if report.pass().is_some_and(|p| p.tree_rolled_back) {
                        sched.rollbacks += 1;
                    }
                    sched.last = Some(report);
                }
                sched.last_run_ms = now;
                sched.over_windows = 0;
            }
        }
        self.autotune_sched = Some(sched);
    }

    /// Grouping state of one processor (if it hosts any queries).
    pub fn group_manager(&self, processor: NodeId) -> Option<&GroupManager> {
        self.managers.get(&processor)
    }

    /// Overall grouping ratio (`Σ groups / Σ queries`) across processors.
    pub fn grouping_ratio(&self) -> f64 {
        let groups: usize = self.managers.values().map(|m| m.group_count()).sum();
        let queries: usize = self.managers.values().map(|m| m.query_count()).sum();
        if queries == 0 {
            1.0
        } else {
            groups as f64 / queries as f64
        }
    }

    /// Number of queries in the system.
    pub fn query_count(&self) -> usize {
        self.next_query as usize
    }

    /// Generation stamp of the executor currently serving a query.
    ///
    /// Every time an executor is (re)created — a group is founded, a
    /// representative is widened by a new member, a group is rebuilt by
    /// [`Cosmos::reoptimize_groups`], or it shrinks after an
    /// [`Cosmos::unsubscribe`] — the affected queries are stamped with a
    /// fresh, globally monotone generation. A query that joins a warm
    /// group without widening it inherits the running executor's stamp.
    /// The scenario harness uses this to cut oracle epochs exactly where
    /// window state restarts; `None` after unsubscription or for unknown
    /// ids.
    pub fn executor_generation(&self, qid: QueryId) -> Option<u64> {
        self.query_executor_gen.get(&qid).copied()
    }

    /// A deterministic digest of the routing state: dissemination-tree
    /// edges (shared and per-source), every router's local subscriptions,
    /// and every router's reverse-path neighbor interests.
    ///
    /// Two runs of the same seeded scenario must produce identical
    /// digests at every step (the harness's determinism contract); the
    /// digest also pins routing-state invariance across replays.
    pub fn routing_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (parent, child) in self.tree.edges() {
            (parent.raw(), child.raw()).hash(&mut h);
        }
        let mut origins: Vec<NodeId> = self.source_trees.keys().copied().collect();
        origins.sort_unstable();
        for origin in origins {
            origin.raw().hash(&mut h);
            for (parent, child) in self.source_trees[&origin].edges() {
                (parent.raw(), child.raw()).hash(&mut h);
            }
        }
        for r in &self.routers {
            let mut locals: Vec<String> = r
                .local_subscribers()
                .map(|(sub, p)| format!("{sub:?}={p:?}"))
                .collect();
            locals.sort_unstable();
            locals.hash(&mut h);
            let mut interests: Vec<String> = self
                .graph
                .neighbors(r.node())
                .iter()
                .filter_map(|(n, _)| r.neighbor_interest(*n).map(|p| format!("{n}={p:?}")))
                .collect();
            interests.sort_unstable();
            interests.hash(&mut h);
        }
        h.finish()
    }

    /// Capture the complete deployed network state as a serializable
    /// [`crate::snapshot::NetworkSnapshot`] for static verification
    /// (`cosmos-verify`): every dissemination tree, every router's
    /// reverse-path interests and local subscriptions, every
    /// advertisement, and every query group with its representative and
    /// re-tightened member profiles. Queries travel as CQL text (the
    /// analyzed form has no serde shape); baseline deployments appear as
    /// singleton groups whose representative *is* the member.
    pub fn snapshot(&self) -> Result<crate::snapshot::NetworkSnapshot> {
        use crate::snapshot::*;
        let topo = |tree: &Tree| TreeTopology {
            root: tree.root(),
            node_count: tree.node_count(),
            edges: tree.edges().collect(),
        };
        let mut source_trees: Vec<TreeTopology> = self.source_trees.values().map(topo).collect();
        source_trees.sort_by_key(|t| t.root);

        let mut advertisements: Vec<Advertisement> = self
            .registry
            .iter()
            .map(|r| Advertisement {
                stream: r.name.clone(),
                origin: r.origin,
                schema: r.schema.clone(),
            })
            .collect();
        advertisements.sort_by(|a, b| a.stream.cmp(&b.stream));

        let routers = self
            .routers
            .iter()
            .map(|r| {
                let mut local_subscribers: Vec<LocalSubscriber> = r
                    .local_subscribers()
                    .map(|(id, profile)| {
                        let kind = if let Some(stream) = self.spe_subs.get(&id) {
                            SubscriberKind::SpeInput {
                                result_stream: stream.clone(),
                            }
                        } else if let Some(qid) = self.user_subs.get(&id) {
                            SubscriberKind::User { query: *qid }
                        } else {
                            // Unreachable in a consistent system; keep
                            // the snapshot total so the verifier can
                            // flag it rather than snapshotting failing.
                            SubscriberKind::User {
                                query: QueryId(u64::MAX),
                            }
                        };
                        LocalSubscriber {
                            id,
                            kind,
                            profile: profile.clone(),
                        }
                    })
                    .collect::<Vec<_>>();
                local_subscribers.sort_by_key(|s| s.id);
                RouterState {
                    node: r.node(),
                    neighbor_interests: r
                        .neighbor_interests()
                        .map(|(n, p)| (n, p.clone()))
                        .collect(),
                    local_subscribers,
                }
            })
            .collect();

        let unparse =
            |q: &AnalyzedQuery| -> Result<String> { Ok(cosmos_query::to_query(q)?.to_string()) };
        let mut groups: Vec<GroupSnapshot> = Vec::new();
        if self.cfg.merging_enabled {
            let mut procs: Vec<NodeId> = self.managers.keys().copied().collect();
            procs.sort_unstable();
            for p in procs {
                let manager = &self.managers[&p];
                for g in manager.groups() {
                    let mut members = Vec::new();
                    for (qid, member) in &g.members {
                        let (_, split) = manager
                            .placement(*qid)
                            .ok_or_else(|| CosmosError::System(format!("{qid} unplaced")))?;
                        members.push(MemberSnapshot {
                            query: *qid,
                            cql: unparse(member)?,
                            user: self.query_user[qid],
                            user_sub: self.user_sub_of_query[qid],
                            split_profile: split.clone(),
                        });
                    }
                    groups.push(GroupSnapshot {
                        processor: p,
                        result_stream: g.result_stream.clone(),
                        representative_cql: unparse(&g.representative)?,
                        members,
                    });
                }
            }
        } else {
            let mut qids: Vec<QueryId> = self.baseline_streams.keys().copied().collect();
            qids.sort_unstable();
            for qid in qids {
                let stream = &self.baseline_streams[&qid];
                let site = self
                    .reps
                    .get(stream)
                    .ok_or_else(|| CosmosError::System(format!("no rep for {stream}")))?;
                let rep = site.executor.query();
                let sub = self.user_sub_of_query[&qid];
                let split = self.routers[self.query_user[&qid].index()]
                    .local_interest(sub)
                    .cloned()
                    .unwrap_or_default();
                groups.push(GroupSnapshot {
                    processor: site.processor,
                    result_stream: stream.clone(),
                    representative_cql: unparse(rep)?,
                    members: vec![MemberSnapshot {
                        query: qid,
                        cql: unparse(rep)?,
                        user: self.query_user[&qid],
                        user_sub: sub,
                        split_profile: split,
                    }],
                });
            }
        }
        groups.sort_by(|a, b| a.result_stream.cmp(&b.result_stream));

        let overload = self
            .overload
            .as_ref()
            .map(|ctl| {
                ctl.ledgers()
                    .iter()
                    .map(|(qid, l)| OverloadLedgerSnapshot {
                        query: *qid,
                        offered_tuples: l.offered_tuples,
                        offered_bytes: l.offered_bytes,
                        delivered_tuples: l.delivered_tuples,
                        delivered_bytes: l.delivered_bytes,
                        shed_tuples: l.shed_tuples,
                        shed_bytes: l.shed_bytes,
                        staged_tuples: l.staged_tuples,
                        staged_bytes: l.staged_bytes,
                    })
                    .collect()
            })
            .unwrap_or_default();

        Ok(NetworkSnapshot {
            version: SNAPSHOT_VERSION,
            merging_enabled: self.cfg.merging_enabled,
            nodes: self.routers.len(),
            shared_tree: topo(&self.tree),
            source_trees,
            advertisements,
            routers,
            groups,
            closed_streams: self.closed_streams.iter().cloned().collect(),
            overload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{AttrStats, StreamStats};
    use cosmos_types::{AttrType, Timestamp, Value};

    /// Line overlay 0 - 1 - 2 - 3 with the processor at node 0.
    fn line_system(merging: bool) -> Cosmos {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.set_position(NodeId(i), i as f64 / 4.0, 0.0);
        }
        for i in 0..3u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let cfg = CosmosConfig {
            nodes: 4,
            processor_fraction: 0.25,
            merging_enabled: merging,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::with_graph(cfg, g).unwrap();
        sys.register_stream(
            "S",
            Schema::of(&[
                ("k", AttrType::Int),
                ("x", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(1.0)
                .attr("k", AttrStats::categorical(10.0))
                .attr("x", AttrStats::numeric(0.0, 100.0, 100.0)),
            NodeId(0),
        )
        .unwrap();
        sys
    }

    fn s_tuple(ts: i64, k: i64, x: f64) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(ts),
            vec![Value::Int(k), Value::Float(x), Value::Int(ts)],
        )
    }

    #[test]
    fn roles_and_processor_choice() {
        let sys = line_system(true);
        assert_eq!(sys.role(NodeId(0)), NodeRole::Processor);
        assert_eq!(sys.role(NodeId(1)), NodeRole::Broker);
        assert_eq!(sys.processors(), &[NodeId(0)]);
        assert_eq!(sys.graph().node_count(), 4);
        assert_eq!(sys.tree().node_count(), 4);
    }

    #[test]
    fn end_to_end_query_delivery() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x > 50.0", NodeId(3))
            .unwrap();
        sys.run((0..10).map(|i| s_tuple(i * 1000, i, (i * 12) as f64)))
            .unwrap();
        let res = sys.results(q);
        // x = 0, 12, 24, 36, 48 fail; 60, 72, 84, 96, 108 pass
        assert_eq!(res.len(), 5);
        assert_eq!(res[0].values()[1], Value::Float(60.0));
        assert_eq!(sys.user_of(q), Some(NodeId(3)));
        assert_eq!(sys.processor_of(q), Some(NodeId(0)));
        // data flowed over every link on the path 0→3
        assert!(sys.link_bytes(NodeId(0), NodeId(1)) > 0);
        assert!(sys.link_bytes(NodeId(2), NodeId(3)) > 0);
        assert!(sys.total_bytes() > 0);
        assert!(sys.weighted_cost() > 0.0);
        assert_eq!(sys.tuples_published(), 10);
    }

    #[test]
    fn unbounded_state_query_is_rejected_at_admission() {
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(0),
        )
        .unwrap();
        // Join buffers under [Unbounded] never evict: rejected before
        // any routing state is allocated or data published.
        let err = sys
            .submit_query(
                "SELECT S.k FROM S [Unbounded] S, T [Unbounded] T WHERE S.k = T.k",
                NodeId(3),
            )
            .unwrap_err();
        assert!(err.to_string().contains("B0101"), "{err}");
        // Aggregates over [Unbounded] retain their whole history.
        let err = sys
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Unbounded] GROUP BY k",
                NodeId(2),
            )
            .unwrap_err();
        assert!(err.to_string().contains("B0102"), "{err}");
        // Rejection left nothing behind: a fresh query gets id 0 and
        // the system still works end to end.
        let q = sys
            .submit_query("SELECT DISTINCT k FROM S [Range 5 Second]", NodeId(3))
            .unwrap();
        assert_eq!(q, QueryId(0));
        assert!(
            sys.lint_warnings(q).iter().any(|w| w.contains("B0103")),
            "DISTINCT warning recorded: {:?}",
            sys.lint_warnings(q)
        );
        sys.run((0..4).map(|i| s_tuple(i * 1000, i % 2, i as f64)))
            .unwrap();
        assert_eq!(sys.results(q).len(), 2);
        // The admission gate's measured counterpart: rep state views.
        let views = sys.rep_states();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].processor, NodeId(0));
        assert_eq!(views[0].state.distinct_rows, 2);
    }

    #[test]
    fn publish_batch_matches_per_tuple_publish() {
        let inputs: Vec<Tuple> = (0..40)
            .map(|i| s_tuple(i * 500, i % 7, (i * 3) as f64))
            .collect();
        let deliver = |batched: bool| -> (Vec<Tuple>, Vec<Tuple>, u64, u64) {
            let mut sys = line_system(true);
            let q1 = sys
                .submit_query("SELECT k, x FROM S [Now] WHERE x > 30.0", NodeId(3))
                .unwrap();
            let q2 = sys
                .submit_query("SELECT k FROM S [Range 5 Second] WHERE k = 3", NodeId(2))
                .unwrap();
            if batched {
                sys.publish_batch(&inputs).unwrap();
            } else {
                sys.run(inputs.iter().cloned()).unwrap();
            }
            (
                sys.results(q1).to_vec(),
                sys.results(q2).to_vec(),
                sys.tuples_published(),
                sys.total_bytes(),
            )
        };
        let single = deliver(false);
        let batched = deliver(true);
        assert_eq!(single.0, batched.0, "q1 deliveries differ");
        assert_eq!(single.1, batched.1, "q2 deliveries differ");
        assert_eq!(single.2, batched.2, "published counts differ");
        assert_eq!(single.3, batched.3, "link bytes differ");
    }

    #[test]
    fn run_batched_segments_mixed_streams() {
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(1),
        )
        .unwrap();
        let q = sys
            .submit_query("SELECT k, x FROM S [Now]", NodeId(3))
            .unwrap();
        let mut inputs = Vec::new();
        for i in 0..12i64 {
            inputs.push(s_tuple(i * 1000, i, i as f64));
            if i % 3 == 0 {
                inputs.push(Tuple::new(
                    "T",
                    Timestamp(i * 1000 + 1),
                    vec![Value::Int(i), Value::Int(i * 1000 + 1)],
                ));
            }
        }
        sys.run_batched(inputs).unwrap();
        assert_eq!(sys.results(q).len(), 12);
        assert_eq!(sys.tuples_published(), 16);
    }

    /// Relays on a Line: source batches of T cross nodes 2 and 1 on
    /// their way from origin 3 to the processor at 0, and result
    /// batches cross node 1 on their way back. Relaying must fire on
    /// both nodes, and both queries must deliver.
    #[test]
    fn line_hops_relay() {
        let inputs: Vec<Tuple> = (0..60i64)
            .map(|i| {
                Tuple::new(
                    "T",
                    Timestamp(i * 500),
                    vec![Value::Int(i % 7), Value::Int(i * 500)],
                )
            })
            .collect();
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(3),
        )
        .unwrap();
        let q1 = sys
            .submit_query("SELECT k FROM T [Now] WHERE k > 2", NodeId(2))
            .unwrap();
        let q2 = sys
            .submit_query("SELECT k FROM T [Range 5 Second] WHERE k = 3", NodeId(3))
            .unwrap();
        sys.run_batched(inputs).unwrap();
        let relay_hops: Vec<u64> = (0..4)
            .map(|n| sys.router(NodeId(n)).counters().relay_hops)
            .collect();
        assert!(
            relay_hops[1] > 0 && relay_hops[2] > 0,
            "relays: {relay_hops:?}"
        );
        assert!(!sys.results(q1).is_empty() && !sys.results(q2).is_empty());
    }

    /// The cascading flag follows every change of the representative
    /// set between publishes, and batched delivery stays equal to
    /// per-tuple delivery while it is set and after it clears.
    #[test]
    fn cascading_flag_follows_submit_and_unsubscribe() {
        let inputs: Vec<Tuple> = (0..40)
            .map(|i| s_tuple(i * 500, i % 7, (i * 3) as f64))
            .collect();
        let scan = |sys: &Cosmos| {
            sys.reps.values().any(|site| {
                site.executor
                    .query()
                    .streams
                    .iter()
                    .any(|b| sys.reps.contains_key(&b.stream))
            })
        };
        let run = |batched: bool| {
            let mut sys = line_system(true);
            let publish = |sys: &mut Cosmos, chunk: &[Tuple]| {
                if batched {
                    sys.publish_batch(chunk).unwrap();
                } else {
                    sys.run(chunk.iter().cloned()).unwrap();
                }
            };
            let mut chunks = inputs.chunks(10);
            let q1 = sys
                .submit_query("SELECT k, x FROM S [Now] WHERE x > 30.0", NodeId(3))
                .unwrap();
            publish(&mut sys, chunks.next().unwrap());
            assert!(!sys.cascading && !scan(&sys));

            // A query over q1's result stream. CQL cannot name a result
            // stream, so the stream is bound after parsing and the query
            // enters through submit_query's own registration half.
            let r1 = sys.rep_states()[0].result_stream.clone();
            let mut parsed = cosmos_cql::parse_query("SELECT k FROM R [Now] WHERE k > 2").unwrap();
            parsed.from[0].stream = r1.to_string();
            let analyzed = AnalyzedQuery::analyze(&parsed, sys.catalog.schema_fn()).unwrap();
            let q2 = sys
                .register_analyzed(analyzed, Vec::new(), NodeId(2))
                .unwrap();
            assert!(sys.cascading && scan(&sys));
            publish(&mut sys, chunks.next().unwrap());

            // Another, independent query keeps the flag set.
            let q3 = sys
                .submit_query("SELECT k FROM S [Now] WHERE k = 3", NodeId(1))
                .unwrap();
            assert!(sys.cascading && scan(&sys));
            publish(&mut sys, chunks.next().unwrap());

            sys.unsubscribe(q2).unwrap();
            assert!(!sys.cascading && !scan(&sys));
            publish(&mut sys, chunks.next().unwrap());
            (
                [q1, q2, q3].map(|q| sys.results(q).to_vec()),
                sys.total_bytes(),
                sys.routing_digest(),
            )
        };
        let single = run(false);
        assert!(!single.0[1].is_empty(), "the cascading query delivers");
        assert_eq!(single, run(true));
    }

    /// A bad batch in the middle of `run_batched` stops the run there:
    /// every batch before it has fully taken effect, and the bad one
    /// changes nothing.
    #[test]
    fn run_batched_stops_at_a_bad_batch() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x > 30.0", NodeId(3))
            .unwrap();
        for i in 0..10i64 {
            sys.publish(&s_tuple(i * 1000, i, (i * 12) as f64)).unwrap();
        }
        let delivered = sys.results(q).len();
        let bad = vec![Tuple::new("Nope", Timestamp(99), vec![Value::Int(1)])];
        let mixed: Vec<Tuple> = (10..14i64)
            .map(|i| s_tuple(i * 1000, i, (i * 12) as f64))
            .chain(bad)
            .collect();
        assert!(sys.run_batched(mixed).is_err());
        assert_eq!(sys.tuples_published(), 14, "the four good tuples count");
        assert_eq!(sys.results(q).len(), delivered + 4, "x = 120..156 > 30");
    }

    #[test]
    fn publish_batch_rejects_bad_batches() {
        let mut sys = line_system(true);
        // empty batch is a no-op
        sys.publish_batch(&[]).unwrap();
        assert_eq!(sys.tuples_published(), 0);
        // mixed streams are refused
        let mixed = vec![
            s_tuple(0, 1, 1.0),
            Tuple::new("T", Timestamp(1), vec![Value::Int(1)]),
        ];
        assert!(sys.publish_batch(&mixed).is_err());
        // unadvertised stream is refused without counting anything
        let unknown = vec![Tuple::new("Nope", Timestamp(0), vec![Value::Int(1)])];
        assert!(sys.publish_batch(&unknown).is_err());
        assert_eq!(sys.tuples_published(), 0);
    }

    #[test]
    fn merged_queries_share_one_result_stream_on_the_trunk() {
        // Two identical queries from nodes 2 and 3: with merging the
        // shared trunk link 0-1 carries the result stream once; without
        // merging it carries it twice.
        let queries = ["SELECT k, x FROM S [Now] WHERE x >= 0.0"; 2];
        let run = |merging: bool| -> (u64, usize, usize) {
            let mut sys = line_system(merging);
            let q1 = sys.submit_query(queries[0], NodeId(2)).unwrap();
            let q2 = sys.submit_query(queries[1], NodeId(3)).unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i % 5, i as f64)))
                .unwrap();
            (
                sys.link_bytes(NodeId(0), NodeId(1)),
                sys.results(q1).len(),
                sys.results(q2).len(),
            )
        };
        let (shared, r1, r2) = run(true);
        let (unshared, r1b, r2b) = run(false);
        // identical results either way
        assert_eq!(r1, 50);
        assert_eq!(r2, 50);
        assert_eq!(r1, r1b);
        assert_eq!(r2, r2b);
        // sharing saves trunk bandwidth
        assert!(
            shared < unshared,
            "shared {shared} should be < unshared {unshared}"
        );
    }

    #[test]
    fn grouping_state_is_visible() {
        let mut sys = line_system(true);
        sys.submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(2))
            .unwrap();
        sys.submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(3))
            .unwrap();
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.query_count(), 2);
        assert_eq!(gm.group_count(), 1);
        assert!((sys.grouping_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(sys.query_count(), 2);
    }

    #[test]
    fn early_projection_reduces_upstream_bytes() {
        // A query projecting one attribute must move fewer bytes than a
        // query projecting everything.
        let narrow = {
            let mut sys = line_system(true);
            sys.submit_query("SELECT k FROM S [Now]", NodeId(3))
                .unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
                .unwrap();
            sys.total_bytes()
        };
        let wide = {
            let mut sys = line_system(true);
            sys.submit_query("SELECT k, x, timestamp FROM S [Now]", NodeId(3))
                .unwrap();
            sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
                .unwrap();
            sys.total_bytes()
        };
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn filters_drop_traffic_at_the_source() {
        // A highly selective filter must keep almost all tuples off the
        // wire entirely (filtering happens at the origin's router).
        let mut sys = line_system(true);
        sys.submit_query("SELECT k, x FROM S [Now] WHERE x > 1000.0", NodeId(3))
            .unwrap();
        sys.run((0..50).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        // only subscription control state, no data bytes at all
        assert_eq!(sys.total_bytes(), 0);
    }

    #[test]
    fn join_query_runs_end_to_end() {
        let mut sys = line_system(true);
        sys.register_stream(
            "T",
            Schema::of(&[
                ("k", AttrType::Int),
                ("y", AttrType::Float),
                ("timestamp", AttrType::Int),
            ]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(10.0)),
            NodeId(1),
        )
        .unwrap();
        let q = sys
            .submit_query(
                "SELECT A.k, A.x, B.y FROM S [Range 10 Second] A, T [Range 10 Second] B \
                 WHERE A.k = B.k",
                NodeId(3),
            )
            .unwrap();
        let mut inputs = Vec::new();
        for i in 0..10i64 {
            inputs.push(s_tuple(i * 1000, i % 3, i as f64));
            inputs.push(Tuple::new(
                "T",
                Timestamp(i * 1000 + 500),
                vec![
                    Value::Int(i % 3),
                    Value::Float(-(i as f64)),
                    Value::Int(i * 1000 + 500),
                ],
            ));
        }
        sys.run(inputs).unwrap();
        assert!(!sys.results(q).is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let mut sys = line_system(true);
        // unknown stream in query
        assert!(sys
            .submit_query("SELECT a FROM Nope [Now]", NodeId(1))
            .is_err());
        // unknown user node
        assert!(sys
            .submit_query("SELECT k FROM S [Now]", NodeId(99))
            .is_err());
        // unadvertised stream published
        assert!(sys
            .publish(&Tuple::new("Nope", Timestamp(0), vec![]))
            .is_err());
        // duplicate stream registration
        assert!(sys
            .register_stream(
                "S",
                Schema::of(&[("a", AttrType::Int)]),
                StreamStats::default(),
                NodeId(0)
            )
            .is_err());
        // bad origin
        assert!(sys
            .register_stream(
                "U",
                Schema::of(&[("a", AttrType::Int)]),
                StreamStats::default(),
                NodeId(42)
            )
            .is_err());
        // empty overlay rejected
        assert!(Cosmos::with_graph(CosmosConfig::default(), Graph::new(0)).is_err());
    }

    #[test]
    fn lint_rejects_unsatisfiable_queries_at_registration() {
        let mut sys = line_system(false);
        let err = sys
            .submit_query("SELECT k FROM S [Now] WHERE x > 5.0 AND x < 3.0", NodeId(1))
            .unwrap_err();
        assert_eq!(err.kind(), "lint");
        assert!(err.message().contains("C0101"), "{}", err.message());
        // type errors are caught before registration too
        let err = sys
            .submit_query("SELECT k FROM S [Now] WHERE k = 'red'", NodeId(1))
            .unwrap_err();
        assert_eq!(err.kind(), "lint");
        assert!(err.message().contains("C0203"), "{}", err.message());
        // a rejected query must leave no state behind
        assert_eq!(sys.query_count(), 0);
    }

    #[test]
    fn lint_warnings_are_recorded_for_accepted_queries() {
        let mut sys = line_system(false);
        let q = sys
            .submit_query("SELECT k, AVG(x) FROM S [Now] GROUP BY k", NodeId(1))
            .unwrap();
        let warnings = sys.lint_warnings(q);
        assert!(
            warnings.iter().any(|w| w.contains("C0302")),
            "expected a zero-width-aggregate warning, got {warnings:?}"
        );
        // clean queries carry no warnings
        let q2 = sys
            .submit_query("SELECT k FROM S [Now] WHERE x < 10.0", NodeId(2))
            .unwrap();
        assert!(sys.lint_warnings(q2).is_empty());
    }

    #[test]
    fn reoptimize_groups_end_to_end() {
        // Adversarial arrival order: two disjoint narrow queries seed
        // separate groups before the wide query arrives.
        let mut sys = line_system(true);
        let qa = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 0.0 AND 10.0",
                NodeId(1),
            )
            .unwrap();
        let qb = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 90.0 AND 100.0",
                NodeId(2),
            )
            .unwrap();
        let qc = sys
            .submit_query(
                "SELECT k, x FROM S [Now] WHERE x BETWEEN 0.0 AND 100.0",
                NodeId(3),
            )
            .unwrap();
        assert_eq!(sys.group_manager(NodeId(0)).unwrap().group_count(), 2);
        let improved = sys.reoptimize_groups().unwrap();
        assert_eq!(improved, 1);
        assert_eq!(sys.group_manager(NodeId(0)).unwrap().group_count(), 1);
        // delivery stays exact for every member after retuning
        sys.run((0..21).map(|i| s_tuple(i * 1000, i, (i * 5) as f64)))
            .unwrap();
        assert_eq!(sys.results(qa).len(), 3); // x ∈ {0, 5, 10}
        assert_eq!(sys.results(qb).len(), 3); // x ∈ {90, 95, 100}
        assert_eq!(sys.results(qc).len(), 21);
        // idempotent afterwards
        assert_eq!(sys.reoptimize_groups().unwrap(), 0);
        // no-op in baseline mode
        let mut base = line_system(false);
        base.submit_query("SELECT k FROM S [Now]", NodeId(1))
            .unwrap();
        assert_eq!(base.reoptimize_groups().unwrap(), 0);
    }

    #[test]
    fn unsubscribe_stops_one_query_and_keeps_others() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        sys.run((0..5).map(|i| s_tuple(i * 1000, i, (i * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 3);
        assert_eq!(sys.results(q2).len(), 5);
        // Drop the wide member: the representative must shrink back to
        // q1's shape, and q1 keeps receiving exactly its results.
        sys.unsubscribe(q2).unwrap();
        sys.run((5..10).map(|i| s_tuple(i * 1000, i % 5, ((i % 5) * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 6); // +3 new matches (0,10,20)
        assert_eq!(sys.results(q2).len(), 5); // frozen after unsubscribe
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.query_count(), 1);
        assert_eq!(gm.group_count(), 1);
    }

    #[test]
    fn unsubscribe_last_member_dissolves_group_and_silences_traffic() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query("SELECT k, x FROM S [Now]", NodeId(3))
            .unwrap();
        sys.run((0..3).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        let bytes_before = sys.total_bytes();
        assert!(bytes_before > 0);
        sys.unsubscribe(q).unwrap();
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.group_count(), 0);
        // further publishes move no bytes at all
        sys.run((3..10).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        assert_eq!(sys.total_bytes(), bytes_before);
        // delivered results remain readable; unknown ids error
        assert_eq!(sys.results(q).len(), 3);
        assert!(sys.unsubscribe(q).is_err());
        assert!(sys.unsubscribe(QueryId(99)).is_err());
    }

    #[test]
    fn unsubscribe_in_baseline_mode() {
        let mut sys = line_system(false);
        let q1 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(2))
            .unwrap();
        let q2 = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(3))
            .unwrap();
        sys.unsubscribe(q1).unwrap();
        sys.run((0..4).map(|i| s_tuple(i * 1000, i, i as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 0);
        assert_eq!(sys.results(q2).len(), 4);
    }

    #[test]
    fn per_source_trees_deliver_and_shorten_paths() {
        // A ring-ish overlay where the shared MST forces a long detour
        // for one source, but its own shortest-path tree is direct.
        let mut g = Graph::new(5);
        g.set_position(NodeId(0), 0.0, 0.0);
        g.set_position(NodeId(1), 0.25, 0.0);
        g.set_position(NodeId(2), 0.5, 0.0);
        g.set_position(NodeId(3), 0.75, 0.0);
        g.set_position(NodeId(4), 1.0, 0.0);
        for i in 0..4u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        // direct (slightly heavier than the 4-hop sum, so the MST keeps
        // the chain but a per-source tree from node 4 can use it)
        g.add_edge(NodeId(0), NodeId(4), 1.02).unwrap();
        let run = |per_source: bool| {
            let cfg = CosmosConfig {
                nodes: 5,
                processor_fraction: 0.2,
                per_source_trees: per_source,
                ..CosmosConfig::default()
            };
            let mut sys = Cosmos::with_graph(cfg, g.clone()).unwrap();
            sys.register_stream(
                "S",
                Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
                StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(8.0)),
                NodeId(4),
            )
            .unwrap();
            let q = sys
                .submit_query("SELECT k FROM S [Now]", NodeId(1))
                .unwrap();
            sys.run((0..6).map(|i| {
                Tuple::new(
                    "S",
                    Timestamp(i * 1000),
                    vec![Value::Int(i), Value::Int(i * 1000)],
                )
            }))
            .unwrap();
            assert_eq!(sys.results(q).len(), 6);
            sys
        };
        let shared = run(false);
        let multi = run(true);
        // both deliver; the per-source tree of origin 4 exists
        assert!(multi.tree_for(NodeId(4)).parent(NodeId(4)).is_none());
        assert_eq!(multi.tree_for(NodeId(4)).root(), NodeId(4));
        // shared mode uses the MST regardless of origin
        assert_eq!(shared.tree_for(NodeId(4)).root(), NodeId(0));
    }

    #[test]
    fn optimize_tree_rewires_and_keeps_delivering() {
        // Line overlay, user far from the source: the optimizer can
        // shortcut the path (overlay links are logical).
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.set_position(NodeId(i), 0.15 * i as f64, 0.0);
        }
        for i in 0..5u32 {
            g.add_edge_by_distance(NodeId(i), NodeId(i + 1)).unwrap();
        }
        let cfg = CosmosConfig {
            nodes: 6,
            processor_fraction: 0.17,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::with_graph(cfg, g).unwrap();
        sys.register_stream(
            "S",
            Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
            StreamStats::with_rate(1.0).attr("k", AttrStats::categorical(8.0)),
            NodeId(0),
        )
        .unwrap();
        let q = sys
            .submit_query("SELECT k FROM S [Now]", NodeId(5))
            .unwrap();
        sys.run((0..3).map(|i| {
            Tuple::new(
                "S",
                Timestamp(i * 1000),
                vec![Value::Int(i), Value::Int(i * 1000)],
            )
        }))
        .unwrap();
        let report = sys.optimize_tree(cosmos_overlay::OptimizerConfig {
            max_degree: 4,
            w_delay: 1.0,
            w_load: 0.0,
            rounds: 4,
        });
        assert!(report.cost_after <= report.cost_before);
        // delivery continues after reorganization
        sys.run((3..6).map(|i| {
            Tuple::new(
                "S",
                Timestamp(i * 1000),
                vec![Value::Int(i), Value::Int(i * 1000)],
            )
        }))
        .unwrap();
        assert_eq!(sys.results(q).len(), 6);
    }

    #[test]
    fn optimize_tree_noop_with_per_source_trees() {
        let cfg = CosmosConfig {
            nodes: 8,
            per_source_trees: true,
            seed: 2,
            ..CosmosConfig::default()
        };
        let mut sys = Cosmos::new(cfg).unwrap();
        let report = sys.optimize_tree(cosmos_overlay::OptimizerConfig::default());
        assert_eq!(report.moves, 0);
        assert_eq!(report.cost_before, report.cost_after);
    }

    #[test]
    fn rep_change_replaces_executor_and_still_delivers() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        // widening second member forces a representative change
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        sys.run((0..10).map(|i| s_tuple(i * 1000, i, (i * 10) as f64)))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 3); // x = 0, 10, 20
        assert_eq!(sys.results(q2).len(), 5); // x = 0..40
        let gm = sys.group_manager(NodeId(0)).unwrap();
        assert_eq!(gm.group_count(), 1);
    }

    #[test]
    fn disordered_publishes_converge_after_close() {
        let mut sys = line_system(true);
        let q = sys
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
                NodeId(3),
            )
            .unwrap();
        sys.set_disorder(Some(DisorderRuntime {
            bound: TimeDelta::from_millis(3_000),
            policy: LatePolicy::Revise {
                grace: TimeDelta::from_millis(3_000),
            },
        }));
        // Timestamps displaced by up to the bound, plus one exact
        // duplicate. In-order reference below must agree post-close.
        let ts = [2_000i64, 1_000, 3_000, 5_000, 4_000, 5_000, 7_000, 6_000];
        for t in ts {
            let k = t / 1_000;
            sys.publish(&s_tuple(t, k % 2, k as f64)).unwrap();
        }
        sys.close_streams();
        let totals = sys.disorder_totals();
        assert!(totals.conserved(), "{totals:?}");
        assert_eq!(totals.duplicates, 1);
        assert_eq!(totals.staged, 0, "close must drain all staging");
        // The in-order reference run (disorder off, duplicate removed).
        let mut reference = line_system(true);
        let rq = reference
            .submit_query(
                "SELECT k, COUNT(*) FROM S [Range 10 Second] GROUP BY k",
                NodeId(3),
            )
            .unwrap();
        let mut sorted: Vec<i64> = ts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, t)| *t)
            .collect();
        sorted.sort_unstable();
        for t in sorted {
            let k = t / 1_000;
            reference.publish(&s_tuple(t, k % 2, k as f64)).unwrap();
        }
        assert_eq!(sys.results(q), reference.results(rq));
        // Punctuations crossed links and were accounted both ways.
        let snap = sys.metrics();
        assert!(snap.punctuations > 0);
        assert_eq!(snap.punctuation_bytes, 18 * snap.punctuations);
        assert_eq!(snap.link_bytes_total(), sys.total_bytes());
        // The closed set reached the network snapshot (and only there:
        // an in-order snapshot stays byte-identical to the old format).
        let netsnap = sys.snapshot().unwrap();
        assert_eq!(netsnap.closed_streams, vec![StreamName::from("S")]);
        let json = netsnap.to_json().unwrap();
        let back = crate::snapshot::NetworkSnapshot::from_json(&json).unwrap();
        assert_eq!(back, netsnap);
        let plain = reference.snapshot().unwrap().to_json().unwrap();
        assert!(!plain.contains("closed_streams"));
    }

    #[test]
    fn in_order_disorder_mode_changes_nothing_but_watermarks() {
        // Same in-order feed, disorder mode on vs off: deliveries are
        // identical tuple for tuple (staging releases everything, no
        // late path is ever taken).
        let feed: Vec<Tuple> = (0..12).map(|i| s_tuple(i * 500, i % 3, i as f64)).collect();
        let deliver = |disorder: bool| -> Vec<Tuple> {
            let mut sys = line_system(true);
            let q = sys
                .submit_query(
                    "SELECT k, COUNT(*) FROM S [Range 2 Second] GROUP BY k",
                    NodeId(3),
                )
                .unwrap();
            if disorder {
                sys.set_disorder(Some(DisorderRuntime {
                    bound: TimeDelta::from_millis(1_000),
                    policy: LatePolicy::Drop,
                }));
            }
            sys.run(feed.iter().cloned()).unwrap();
            sys.close_streams();
            sys.results(q).to_vec()
        };
        assert_eq!(deliver(false), deliver(true));
    }

    #[test]
    fn retiring_a_rep_flushes_its_staging_through_the_engine() {
        let mut sys = line_system(true);
        let q1 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 20.0", NodeId(2))
            .unwrap();
        sys.set_disorder(Some(DisorderRuntime {
            bound: TimeDelta::from_millis(10_000),
            policy: LatePolicy::Drop,
        }));
        // A huge bound keeps every publish staged (watermark trails far
        // behind), so results only exist if replacement flushes.
        sys.publish(&s_tuple(1_000, 1, 10.0)).unwrap();
        sys.publish(&s_tuple(2_000, 2, 20.0)).unwrap();
        assert!(sys.results(q1).is_empty(), "still staged");
        // Widening member replaces the representative executor, which
        // must flush the staged tuples through the old engine first.
        let q2 = sys
            .submit_query("SELECT k, x FROM S [Now] WHERE x <= 40.0", NodeId(3))
            .unwrap();
        assert_eq!(sys.results(q1).len(), 2);
        assert!(sys.results(q2).is_empty(), "flushed before q2 subscribed");
        let totals = sys.disorder_totals();
        assert!(totals.conserved(), "{totals:?}");
        assert_eq!(totals.drained, 2);
        sys.close_streams();
        assert!(sys.disorder_totals().conserved());
    }
}
