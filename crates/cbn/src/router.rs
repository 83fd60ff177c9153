//! Per-node CBN routing state.
//!
//! Each overlay node (broker or processor) runs a [`Router`]. The router
//! knows, for every overlay neighbor, the merged data interest of the
//! subtree reachable through that neighbor, plus the interests of locally
//! attached subscribers (users, processors' SPE inputs). Incoming
//! datagrams are matched against these interests and forwarded — after
//! *early projection* onto each destination's attribute set — to every
//! interested next hop except the link they arrived on (reverse-path
//! forwarding on the dissemination tree).
//!
//! Subscription propagation itself (walking the dissemination tree from a
//! subscriber towards a stream's origin, merging profiles at every hop)
//! is orchestrated by the `cosmos` system crate; the router exposes
//! [`Router::aggregated_interest`] to compute the profile a node must
//! forward upstream.
//!
//! # Plan cache
//!
//! A router keeps its interests and match engine beside a cache of
//! compiled projection plans and relay verdicts, keyed by (incoming
//! schema, stream), and a block of [`RouterCounters`]. Every
//! interest mutation clears the whole cache and bumps
//! [`Router::interest_generation`] — the blunt "any mutation clears
//! everything" invalidation contract. The generation also stamps relay
//! verdicts cached downstream (below).
//!
//! # Relay bypass
//!
//! A hop whose router has nothing to decide — one way out, every tuple
//! provably wanted there, no projection — moves the batch straight
//! through without matching ([`Router::route_hop`]). The proof needs
//! the filter the upstream router installed toward this node, so the
//! hop is routed with the upstream router in hand; the verdict is cached
//! beside the plans and stamped with the upstream's interest generation
//! (DESIGN.md §17).

use crate::matcher::{CountingMatcher, FlatMatches, MatchEngine};
use crate::predicate::Conjunction;
use crate::profile::{Profile, ProfileEntry};
use cosmos_types::{NodeId, Schema, SchemaId, StreamName, SubscriberId, Tuple};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a routed datagram goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Destination {
    /// Forward over the overlay link to a neighbor node.
    Neighbor(NodeId),
    /// Deliver to a locally attached subscriber.
    Local(SubscriberId),
}

/// One forwarding decision for an incoming datagram: the (possibly
/// projected) tuple to send and the schema describing its layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardDecision {
    /// The next hop.
    pub dest: Destination,
    /// The tuple to deliver (projected onto the destination's interest).
    pub tuple: Tuple,
    /// The layout of `tuple` (projection of the arriving schema).
    pub schema: Schema,
}

/// All tuples of one routed batch bound for one destination: the
/// projected tuples in arrival order and their shared layout.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchForward {
    /// The next hop.
    pub dest: Destination,
    /// The projected tuples, in batch order.
    pub tuples: Vec<Tuple>,
    /// The layout shared by every tuple in `tuples`.
    pub schema: Schema,
}

/// A compiled projection for one (incoming schema, destination) pair:
/// the per-tuple work is reduced to a bounds-checked column gather (or
/// a refcount bump when the projection is the identity).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionPlan {
    /// Gather indices into the incoming tuple; `None` = identity.
    indices: Option<Box<[usize]>>,
    /// The (interned) layout of the projected tuples.
    out_schema: Schema,
}

impl ProjectionPlan {
    /// Compile the projection of one profile entry against a schema.
    fn compile(entry: &ProfileEntry, schema: &Schema) -> ProjectionPlan {
        if !entry.projection.narrows(schema) {
            let out_schema = schema.clone();
            let _ = out_schema.id(); // pre-intern for cheap fan-out keys
            return ProjectionPlan {
                indices: None,
                out_schema,
            };
        }
        let idx = entry.projection.indices(schema);
        let names: Vec<&str> = idx
            .iter()
            .map(|&i| schema.fields()[i].name.as_str())
            .collect();
        let out_schema = schema
            .project(&names)
            .expect("projection indices come from the schema itself");
        let _ = out_schema.id();
        ProjectionPlan {
            indices: Some(idx.into_boxed_slice()),
            out_schema,
        }
    }

    /// The layout this plan produces.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Whether the plan forwards tuples unchanged.
    pub fn is_identity(&self) -> bool {
        self.indices.is_none()
    }
}

/// The router's throughput and plan-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Datagrams that produced at least one forwarding decision.
    pub tuples_routed: u64,
    /// Datagrams that matched no interest and were dropped.
    pub tuples_dropped: u64,
    /// Projection-plan cache hits.
    pub plan_hits: u64,
    /// Projection-plan cache misses (each one compiled a plan).
    pub plan_misses: u64,
    /// Narrowing projections actually materialized.
    pub projections_built: u64,
    /// Hops relayed without matching. Their tuples and plan lookups are
    /// counted in the fields above exactly as the matched path would
    /// count them, so this is the only field a relay adds to.
    pub relay_hops: u64,
}

/// Per-destination compiled plans for one (schema, stream) pair. A
/// linear-scan small-map: a node forwards to a handful of destinations,
/// and `Destination` compares as two integers — cheaper per tuple than
/// hashing into a `HashMap` ever was.
type PlanMap = Vec<(Destination, Option<Arc<ProjectionPlan>>)>;

/// Compiled projection plans and relay verdicts of one router, keyed by
/// (incoming schema, stream) and then destination or arrival link, plus
/// the router's reusable match and grouping buffers.
///
/// Also a linear-scan structure: the first key component is an interned
/// [`SchemaId`] (an integer compare) and the second an `Arc<str>` whose
/// pointer identity short-circuits the string compare on the hot path.
/// A router only ever sees the few (schema, stream) pairs routed through
/// it, so the scan beats hashing the stream name per tuple.
#[derive(Debug, Clone, Default)]
struct PlanStore {
    entries: Vec<PlanEntry>,
    scratch: Scratch,
}

#[derive(Debug, Clone)]
struct PlanEntry {
    schema: SchemaId,
    stream: StreamName,
    plans: PlanMap,
    relays: Vec<RelayVerdict>,
}

/// Whether batches of one (schema, stream) arriving from `from` relay,
/// and to which neighbor. Valid while `from`'s interest generation is
/// `up_gen`; the router's own generation moving clears the whole store.
#[derive(Debug, Clone, Copy)]
struct RelayVerdict {
    from: NodeId,
    up_gen: u64,
    to: Option<NodeId>,
}

/// One destination of the batch being routed: its plan, looked up once
/// per batch, its tuple count and its index in the output.
#[derive(Debug, Clone)]
struct Slot {
    dest: Destination,
    plan: Option<Arc<ProjectionPlan>>,
    count: usize,
    out: usize,
}

/// Buffers reused from batch to batch by one router. `key_slot[k]` is
/// the slot of `matches.keys()[k]`, or [`NO_SLOT`] for the arrival link.
#[derive(Debug, Clone, Default)]
struct Scratch {
    matches: FlatMatches<Destination>,
    key_slot: Vec<usize>,
    slots: Vec<Slot>,
}

const NO_SLOT: usize = usize::MAX;

impl PlanStore {
    /// Drop every compiled plan and relay verdict.
    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of compiled plans currently cached.
    fn plan_count(&self) -> usize {
        self.entries.iter().map(|e| e.plans.len()).sum()
    }

    /// The entry for one (schema, stream) pair, created empty on first
    /// use, and the scratch buffers beside it.
    fn entry_mut(
        &mut self,
        schema: SchemaId,
        stream: &StreamName,
    ) -> (&mut PlanEntry, &mut Scratch) {
        let pos = self
            .entries
            .iter()
            .position(|e| e.schema == schema && e.stream == *stream);
        let pos = match pos {
            Some(p) => p,
            None => {
                self.entries.push(PlanEntry {
                    schema,
                    stream: stream.clone(),
                    plans: Vec::new(),
                    relays: Vec::new(),
                });
                self.entries.len() - 1
            }
        };
        (&mut self.entries[pos], &mut self.scratch)
    }
}

/// The installed interests of a router and the match engine built from
/// them.
#[derive(Debug, Clone)]
struct RouterCore {
    node: NodeId,
    neighbor_interest: BTreeMap<NodeId, Profile>,
    local_interest: BTreeMap<SubscriberId, Profile>,
    engine: CountingMatcher<Destination>,
}

impl RouterCore {
    /// The profile installed for a destination, if any.
    fn profile_of(&self, dest: Destination) -> Option<&Profile> {
        match dest {
            Destination::Neighbor(n) => self.neighbor_interest.get(&n),
            Destination::Local(s) => self.local_interest.get(&s),
        }
    }

    /// Fetch (compiling on first use) the plan for one destination from
    /// the per-(schema, stream) plan map. `None` means the destination
    /// has no entry for this stream and must be skipped.
    fn lookup_plan(
        &self,
        map: &mut PlanMap,
        counters: &mut RouterCounters,
        dest: Destination,
        stream: &StreamName,
        schema: &Schema,
    ) -> Option<Arc<ProjectionPlan>> {
        if let Some((_, cached)) = map.iter().find(|(d, _)| *d == dest) {
            counters.plan_hits += 1;
            return cached.clone();
        }
        counters.plan_misses += 1;
        let plan = self
            .profile_of(dest)
            .and_then(|p| p.entry(stream))
            .map(|entry| Arc::new(ProjectionPlan::compile(entry, schema)));
        map.push((dest, plan.clone()));
        plan
    }

    /// Project `tuple` through `plan`, sharing one projected tuple among
    /// every destination of this fan-out whose plan produces the same
    /// layout (`memo` lives for one incoming tuple).
    fn apply_plan(
        plan: &ProjectionPlan,
        tuple: &Tuple,
        memo: &mut Vec<(SchemaId, Tuple)>,
        counters: &mut RouterCounters,
    ) -> Tuple {
        if plan.is_identity() {
            return tuple.clone();
        }
        let out_id = plan.out_schema.id();
        if let Some((_, shared)) = memo.iter().find(|(id, _)| *id == out_id) {
            return shared.clone();
        }
        let projected = tuple
            .project_indices(
                plan.indices
                    .as_ref()
                    .expect("non-identity plan has indices"),
            )
            .expect("plan indices are in bounds for the compiled schema");
        counters.projections_built += 1;
        memo.push((out_id, projected.clone()));
        projected
    }

    /// The neighbor a batch of `stream`, laid out by `schema` and
    /// arriving from `up`, can be relayed to without matching: the five
    /// proof obligations of DESIGN.md §17. `None` when any fails.
    fn relay_target(
        &self,
        up: &RouterCore,
        stream: &StreamName,
        schema: &Schema,
    ) -> Option<NodeId> {
        if self
            .local_interest
            .values()
            .any(|p| p.entry(stream).is_some())
        {
            return None;
        }
        let mut outgoing = self
            .neighbor_interest
            .iter()
            .filter_map(|(n, p)| Some((*n, p.entry(stream)?)))
            .filter(|(n, _)| *n != up.node);
        let (to, entry) = outgoing.next()?;
        if outgoing.next().is_some() {
            return None;
        }
        let installed = up.neighbor_interest.get(&self.node)?.entry(stream)?;
        let implied = installed.filters == entry.filters
            || crate::sat::filters_imply(&installed.filters, &entry.filters);
        let attrs_arrive = entry
            .filters
            .iter()
            .flat_map(Conjunction::referenced_attrs)
            .all(|a| schema.contains(&a));
        (implied && attrs_arrive && !entry.projection.narrows(schema)).then_some(to)
    }

    /// The cached relay verdict for batches of `entry`'s (schema,
    /// stream) arriving from `up`, recomputed when `up`'s interest
    /// generation has moved since it was cached.
    fn relay_verdict(
        &self,
        entry: &mut PlanEntry,
        up: &RouterCore,
        up_gen: u64,
        schema: &Schema,
    ) -> Option<NodeId> {
        let cached = entry.relays.iter().position(|v| v.from == up.node);
        if let Some(i) = cached {
            if entry.relays[i].up_gen == up_gen {
                return entry.relays[i].to;
            }
        }
        let verdict = RelayVerdict {
            from: up.node,
            up_gen,
            to: self.relay_target(up, &entry.stream, schema),
        };
        match cached {
            Some(i) => entry.relays[i] = verdict,
            None => entry.relays.push(verdict),
        }
        verdict.to
    }

    /// Route one datagram, caching plans in `store`.
    fn route_with(
        &self,
        store: &mut PlanStore,
        counters: &mut RouterCounters,
        tuple: &Tuple,
        schema: &Schema,
        from: Option<NodeId>,
    ) -> Vec<ForwardDecision> {
        let matched = self.engine.matches(tuple, schema);
        let mut out = Vec::with_capacity(matched.len());
        let (entry, _) = store.entry_mut(schema.id(), &tuple.stream);
        let mut memo: Vec<(SchemaId, Tuple)> = Vec::new();
        for dest in matched {
            if let Destination::Neighbor(n) = dest {
                if Some(n) == from {
                    continue;
                }
            }
            let Some(plan) =
                self.lookup_plan(&mut entry.plans, counters, dest, &tuple.stream, schema)
            else {
                continue;
            };
            let t = Self::apply_plan(&plan, tuple, &mut memo, counters);
            out.push(ForwardDecision {
                dest,
                tuple: t,
                schema: plan.out_schema.clone(),
            });
        }
        if out.is_empty() {
            counters.tuples_dropped += 1;
        } else {
            counters.tuples_routed += 1;
        }
        out
    }

    /// Route a stream-homogeneous batch, caching plans and relay
    /// verdicts in `store`. `upstream` is the router the batch arrived
    /// from and its interest generation (`None` for a batch entering the network
    /// here, or when the caller cannot name it): with it the hop may
    /// relay, moving an owned batch through untouched.
    fn route_batch_with(
        &self,
        store: &mut PlanStore,
        counters: &mut RouterCounters,
        tuples: Cow<'_, [Tuple]>,
        schema: &Schema,
        from: Option<NodeId>,
        upstream: Option<(&RouterCore, u64)>,
    ) -> Vec<BatchForward> {
        let Some(first) = tuples.first() else {
            return Vec::new();
        };
        debug_assert!(
            tuples.iter().all(|t| t.stream == first.stream),
            "route_batch requires a stream-homogeneous batch"
        );
        let (entry, scratch) = store.entry_mut(schema.id(), &first.stream);
        if let Some((up, up_gen)) = upstream {
            if let Some(to) = self.relay_verdict(entry, up, up_gen, schema) {
                let n = tuples.len() as u64;
                let dest = Destination::Neighbor(to);
                let plan = self
                    .lookup_plan(&mut entry.plans, counters, dest, &entry.stream, schema)
                    .expect("the relay target has an entry for the stream");
                // The matched path looks the plan up once per tuple.
                counters.plan_hits += n - 1;
                counters.tuples_routed += n;
                counters.relay_hops += 1;
                return vec![BatchForward {
                    dest,
                    tuples: tuples.into_owned(),
                    schema: plan.out_schema.clone(),
                }];
            }
        }

        let Scratch {
            matches,
            key_slot,
            slots,
        } = scratch;
        self.engine.matches_batch_into(&tuples, schema, matches);
        // One slot per destination: its plan looked up once per batch,
        // the other lookups the per-tuple path would make counted as
        // the hits they would be.
        slots.clear();
        key_slot.clear();
        let mut out: Vec<BatchForward> = Vec::new();
        for &dest in matches.keys() {
            if matches!(dest, Destination::Neighbor(n) if Some(n) == from) {
                key_slot.push(NO_SLOT);
                continue;
            }
            let s = match slots.iter().position(|s| s.dest == dest) {
                Some(s) => {
                    counters.plan_hits += 1;
                    s
                }
                None => {
                    let plan =
                        self.lookup_plan(&mut entry.plans, counters, dest, &entry.stream, schema);
                    slots.push(Slot {
                        dest,
                        plan,
                        count: 0,
                        out: NO_SLOT,
                    });
                    slots.len() - 1
                }
            };
            slots[s].count += 1;
            key_slot.push(s);
        }
        for slot in slots.iter_mut() {
            if let Some(plan) = &slot.plan {
                slot.out = out.len();
                out.push(BatchForward {
                    dest: slot.dest,
                    tuples: Vec::with_capacity(slot.count),
                    schema: plan.out_schema.clone(),
                });
            }
        }
        let mut memo: Vec<(SchemaId, Tuple)> = Vec::new();
        let mut start = 0;
        for (tuple, &end) in tuples.iter().zip(matches.ends()) {
            memo.clear();
            let mut forwarded = false;
            for &s in &key_slot[start..end] {
                let Some(Slot {
                    plan: Some(plan),
                    out: o,
                    ..
                }) = slots.get(s)
                else {
                    continue;
                };
                out[*o]
                    .tuples
                    .push(Self::apply_plan(plan, tuple, &mut memo, counters));
                forwarded = true;
            }
            if forwarded {
                counters.tuples_routed += 1;
            } else {
                counters.tuples_dropped += 1;
            }
            start = end;
        }
        out.sort_unstable_by_key(|f| f.dest);
        out
    }
}

/// The routing state of one CBN node.
#[derive(Debug, Clone)]
pub struct Router {
    /// Interests + match engine.
    core: RouterCore,
    /// Compiled projection plans and relay verdicts. Cleared whenever
    /// the installed interests change (see
    /// [`Router::interest_generation`]).
    plans: RefCell<PlanStore>,
    /// Bumped on every interest mutation, in the same call that clears
    /// the plan cache; downstream relay verdicts are stamped with it.
    interest_gen: u64,
    counters: Cell<RouterCounters>,
}

impl Router {
    /// A router for the given node with no interests installed.
    pub fn new(node: NodeId) -> Router {
        Router {
            core: RouterCore {
                node,
                neighbor_interest: BTreeMap::new(),
                local_interest: BTreeMap::new(),
                engine: CountingMatcher::new(),
            },
            plans: RefCell::new(PlanStore::default()),
            interest_gen: 0,
            counters: Cell::new(RouterCounters::default()),
        }
    }

    /// Drop every compiled plan and stamp a new interest generation.
    /// Called by every interest mutator — the invalidation contract is
    /// "any change to any installed profile clears the whole cache".
    /// Skipping the clear serves stale plans
    /// (`widened_projection_is_not_served_from_a_stale_plan`); skipping
    /// the bump serves stale relay verdicts downstream
    /// (`verdict_is_recomputed_when_the_upstream_generation_moves`).
    fn invalidate_plans(&mut self) {
        self.interest_gen += 1;
        self.plans.get_mut().clear();
    }

    /// The node this router belongs to.
    pub fn node(&self) -> NodeId {
        self.core.node
    }

    /// Replace the merged interest of the subtree behind `neighbor`.
    pub fn set_neighbor_interest(&mut self, neighbor: NodeId, profile: Profile) {
        self.invalidate_plans();
        let core = &mut self.core;
        if profile.is_empty() {
            core.neighbor_interest.remove(&neighbor);
            core.engine.remove(&Destination::Neighbor(neighbor));
        } else {
            core.engine
                .insert(Destination::Neighbor(neighbor), profile.clone());
            core.neighbor_interest.insert(neighbor, profile);
        }
    }

    /// Union a new profile into the interest of `neighbor` (what happens
    /// when one more subscription propagates up through that link).
    pub fn merge_neighbor_interest(&mut self, neighbor: NodeId, profile: &Profile) {
        let merged = match self.core.neighbor_interest.get(&neighbor) {
            Some(existing) => existing.union(profile),
            None => profile.clone(),
        };
        self.set_neighbor_interest(neighbor, merged);
    }

    /// Drop every neighbor interest (local subscribers stay). Used when
    /// the dissemination tree is reorganized and subscriptions are
    /// re-propagated along the new paths.
    pub fn clear_neighbor_interests(&mut self) {
        self.invalidate_plans();
        let core = &mut self.core;
        let neighbors: Vec<NodeId> = core.neighbor_interest.keys().copied().collect();
        for n in neighbors {
            core.engine.remove(&Destination::Neighbor(n));
        }
        core.neighbor_interest.clear();
    }

    /// Interest of the subtree behind `neighbor`, if any.
    pub fn neighbor_interest(&self, neighbor: NodeId) -> Option<&Profile> {
        self.core.neighbor_interest.get(&neighbor)
    }

    /// All neighbor interests, in neighbor order (introspection for
    /// whole-network snapshots — see `cosmos-verify`).
    pub fn neighbor_interests(&self) -> impl Iterator<Item = (NodeId, &Profile)> {
        self.core.neighbor_interest.iter().map(|(n, p)| (*n, p))
    }

    /// Install the profile of a locally attached subscriber.
    pub fn add_local_subscriber(&mut self, sub: SubscriberId, profile: Profile) {
        self.invalidate_plans();
        let core = &mut self.core;
        core.engine.insert(Destination::Local(sub), profile.clone());
        core.local_interest.insert(sub, profile);
    }

    /// Remove a locally attached subscriber.
    pub fn remove_local_subscriber(&mut self, sub: SubscriberId) {
        self.invalidate_plans();
        let core = &mut self.core;
        core.local_interest.remove(&sub);
        core.engine.remove(&Destination::Local(sub));
    }

    /// The profile of a local subscriber, if installed.
    pub fn local_interest(&self, sub: SubscriberId) -> Option<&Profile> {
        self.core.local_interest.get(&sub)
    }

    /// Iterate over the locally attached subscribers and their profiles.
    pub fn local_subscribers(&self) -> impl Iterator<Item = (SubscriberId, &Profile)> {
        self.core.local_interest.iter().map(|(s, p)| (*s, p))
    }

    /// Number of installed interests (neighbors plus locals).
    pub fn interest_count(&self) -> usize {
        self.core.neighbor_interest.len() + self.core.local_interest.len()
    }

    /// The union of every interest at this node except the one behind
    /// `exclude` — the profile this node must propagate towards a stream
    /// origin reachable through `exclude` (reverse-path subscription).
    ///
    /// The result is [normalized](Profile::normalized): projections are
    /// widened to the filters' attributes so this node still receives
    /// everything its local filtering needs.
    pub fn aggregated_interest(&self, exclude: Option<NodeId>) -> Profile {
        let mut out = Profile::new();
        for (n, p) in &self.core.neighbor_interest {
            if Some(*n) != exclude {
                out = out.union(p);
            }
        }
        for p in self.core.local_interest.values() {
            out = out.union(p);
        }
        out.normalized()
    }

    /// Route an incoming datagram.
    ///
    /// `from` is the neighbor the datagram arrived from (`None` when it
    /// was published locally); it is excluded from the forwarding set.
    /// Each decision carries the tuple projected onto that destination's
    /// attribute set and the projected schema.
    pub fn route(
        &self,
        tuple: &Tuple,
        schema: &Schema,
        from: Option<NodeId>,
    ) -> Vec<ForwardDecision> {
        let mut counters = self.counters.get();
        let out = self.core.route_with(
            &mut self.plans.borrow_mut(),
            &mut counters,
            tuple,
            schema,
            from,
        );
        self.counters.set(counters);
        out
    }

    /// Route a *stream-homogeneous* batch (every tuple on the same
    /// stream, laid out by `schema`) through this node together.
    ///
    /// Equivalent to calling [`Router::route`] per tuple and grouping
    /// the decisions by destination — per-destination tuple order is
    /// batch order — but the match-index partition is looked up once,
    /// each projection plan once per destination, and the accounting
    /// amortized. Never relays: without the upstream router there is
    /// nothing to prove a relay with.
    pub fn route_batch(
        &self,
        tuples: &[Tuple],
        schema: &Schema,
        from: Option<NodeId>,
    ) -> Vec<BatchForward> {
        self.route_with_upstream(Cow::Borrowed(tuples), schema, from, None)
    }

    /// Route one hop of a batch that arrived from `upstream` (`None` =
    /// entered the network here). Decisions and counters are those of
    /// [`Router::route_batch`]; where the relay verdict holds (DESIGN.md
    /// §17) the batch skips matching and an owned batch moves through
    /// without a copy.
    pub fn route_hop<'a>(
        &self,
        tuples: impl Into<Cow<'a, [Tuple]>>,
        schema: &Schema,
        upstream: Option<&Router>,
    ) -> Vec<BatchForward> {
        self.route_with_upstream(
            tuples.into(),
            schema,
            upstream.map(Router::node),
            upstream.map(|u| (&u.core, u.interest_gen)),
        )
    }

    fn route_with_upstream(
        &self,
        tuples: Cow<'_, [Tuple]>,
        schema: &Schema,
        from: Option<NodeId>,
        upstream: Option<(&RouterCore, u64)>,
    ) -> Vec<BatchForward> {
        let mut counters = self.counters.get();
        let out = self.core.route_batch_with(
            &mut self.plans.borrow_mut(),
            &mut counters,
            tuples,
            schema,
            from,
            upstream,
        );
        self.counters.set(counters);
        out
    }

    /// Route a punctuation (watermark datagram) for `stream`.
    ///
    /// Punctuations follow the *interest set*, not the filters: every
    /// destination holding any entry for the stream receives the
    /// watermark, because a promise about future timestamps is
    /// independent of which attribute values a subscriber filters on.
    /// The arrival link is excluded (reverse-path forwarding, exactly
    /// like data). Destinations come out in deterministic
    /// neighbors-then-locals order.
    pub fn route_punctuation(&self, stream: &StreamName, from: Option<NodeId>) -> Vec<Destination> {
        let mut out = Vec::new();
        for (n, p) in &self.core.neighbor_interest {
            if Some(*n) != from && p.entry(stream).is_some() {
                out.push(Destination::Neighbor(*n));
            }
        }
        for (s, p) in &self.core.local_interest {
            if p.entry(stream).is_some() {
                out.push(Destination::Local(*s));
            }
        }
        out
    }

    /// Drop every interest entry for `stream` — neighbor and local —
    /// shrinking the match engine and clearing the plan cache. Called
    /// when a stream is closed by its final watermark: no datagram of it
    /// will ever arrive again, so the routing state is dead weight.
    /// Destinations whose whole profile becomes empty are removed.
    pub fn prune_stream(&mut self, stream: &StreamName) {
        let neighbors: Vec<NodeId> = self
            .core
            .neighbor_interest
            .iter()
            .filter(|(_, p)| p.entry(stream).is_some())
            .map(|(n, _)| *n)
            .collect();
        for n in neighbors {
            let mut p = self.core.neighbor_interest[&n].clone();
            p.remove_entry(stream);
            self.set_neighbor_interest(n, p);
        }
        let locals: Vec<SubscriberId> = self
            .core
            .local_interest
            .iter()
            .filter(|(_, p)| p.entry(stream).is_some())
            .map(|(s, _)| *s)
            .collect();
        for s in locals {
            let mut p = self.core.local_interest[&s].clone();
            p.remove_entry(stream);
            if p.is_empty() {
                self.remove_local_subscriber(s);
            } else {
                self.add_local_subscriber(s, p);
            }
        }
    }

    /// Generation stamp of the installed interests; moves on every
    /// interest mutation, at which point the plan cache is empty.
    pub fn interest_generation(&self) -> u64 {
        self.interest_gen
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plan_count(&self) -> usize {
        self.plans.borrow().plan_count()
    }

    /// The counter block (throughput + plan-cache counters).
    pub fn counters(&self) -> RouterCounters {
        self.counters.get()
    }

    /// `(hits, misses)` of the projection-plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let c = self.counters.get();
        (c.plan_hits, c.plan_misses)
    }

    /// Narrowing projections actually materialized (fan-out sharing and
    /// plan identity both avoid builds this counter would otherwise see).
    pub fn projections_built(&self) -> u64 {
        self.counters.get().projections_built
    }

    /// Datagrams that produced at least one forwarding decision.
    pub fn tuples_routed(&self) -> u64 {
        self.counters.get().tuples_routed
    }

    /// Datagrams that matched no interest and were dropped here.
    pub fn tuples_dropped(&self) -> u64 {
        self.counters.get().tuples_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::Projection;
    use cosmos_types::{AttrType, Timestamp, Value};

    fn schema() -> Schema {
        Schema::of(&[
            ("id", AttrType::Int),
            ("price", AttrType::Float),
            ("note", AttrType::Str),
        ])
    }

    fn tup(id: i64, price: f64) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(1),
            vec![Value::Int(id), Value::Float(price), Value::str("n")],
        )
    }

    fn interest(lo: i64, hi: i64, attrs: &[&str]) -> Profile {
        let mut f = Conjunction::always();
        f.between("id", lo, hi);
        let mut p = Profile::new();
        let proj = if attrs.is_empty() {
            Projection::All
        } else {
            Projection::of(attrs.iter().copied())
        };
        p.add_interest("S", proj, f);
        p
    }

    #[test]
    fn routes_to_matching_neighbors_and_locals() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(20, 30, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(5, 25, &[]));
        let s = schema();

        let d = r.route(&tup(7, 1.0), &s, None);
        let dests: Vec<_> = d.iter().map(|x| x.dest).collect();
        assert_eq!(
            dests,
            vec![
                Destination::Neighbor(NodeId(1)),
                Destination::Local(SubscriberId(7))
            ]
        );

        let d2 = r.route(&tup(25, 1.0), &s, None);
        assert_eq!(d2.len(), 2); // neighbor 2 and local 7
        assert_eq!(r.tuples_routed(), 2);
    }

    #[test]
    fn excludes_arrival_link() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &[]));
        let d = r.route(&tup(5, 1.0), &schema(), Some(NodeId(1)));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dest, Destination::Neighbor(NodeId(2)));
    }

    #[test]
    fn early_projection_narrows_tuples_per_destination() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &["id", "price"]));
        let s = schema();
        let d = r.route(&tup(5, 2.5), &s, None);
        assert_eq!(d.len(), 2);
        let d1 = d
            .iter()
            .find(|x| x.dest == Destination::Neighbor(NodeId(1)))
            .unwrap();
        assert_eq!(d1.schema.names().collect::<Vec<_>>(), vec!["id"]);
        assert_eq!(d1.tuple.values(), &[Value::Int(5)]);
        let d2 = d
            .iter()
            .find(|x| x.dest == Destination::Neighbor(NodeId(2)))
            .unwrap();
        assert_eq!(d2.schema.names().collect::<Vec<_>>(), vec!["id", "price"]);
        // the original tuple is untouched
        assert!(d2.tuple.size_bytes() < tup(5, 2.5).size_bytes());
    }

    #[test]
    fn non_matching_tuple_is_dropped() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        let d = r.route(&tup(99, 1.0), &schema(), None);
        assert!(d.is_empty());
        assert_eq!(r.tuples_dropped(), 1);
    }

    #[test]
    fn merge_neighbor_interest_unions() {
        let mut r = Router::new(NodeId(0));
        r.merge_neighbor_interest(NodeId(1), &interest(0, 10, &[]));
        r.merge_neighbor_interest(NodeId(1), &interest(20, 30, &[]));
        let s = schema();
        assert_eq!(r.route(&tup(5, 1.0), &s, None).len(), 1);
        assert_eq!(r.route(&tup(25, 1.0), &s, None).len(), 1);
        assert_eq!(r.route(&tup(15, 1.0), &s, None).len(), 0);
        assert_eq!(r.interest_count(), 1);
    }

    #[test]
    fn aggregated_interest_excludes_upstream() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(2), interest(20, 30, &[]));
        r.add_local_subscriber(SubscriberId(9), interest(50, 60, &[]));
        let up = r.aggregated_interest(Some(NodeId(1)));
        // the subtree behind node 1 is upstream; its interest must not
        // be echoed back to it
        let s = schema();
        assert!(!up.covers_tuple(&tup(5, 0.0), &s));
        assert!(up.covers_tuple(&tup(25, 0.0), &s));
        assert!(up.covers_tuple(&tup(55, 0.0), &s));
        let all = r.aggregated_interest(None);
        assert!(all.covers_tuple(&tup(5, 0.0), &s));
    }

    #[test]
    fn subscriber_removal_stops_delivery() {
        let mut r = Router::new(NodeId(0));
        r.add_local_subscriber(SubscriberId(1), interest(0, 10, &[]));
        assert_eq!(r.route(&tup(5, 0.0), &schema(), None).len(), 1);
        r.remove_local_subscriber(SubscriberId(1));
        assert_eq!(r.route(&tup(5, 0.0), &schema(), None).len(), 0);
        assert!(r.local_interest(SubscriberId(1)).is_none());
    }

    #[test]
    fn plans_are_cached_and_invalidated_on_churn() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 10, &[]));
        let g0 = r.interest_generation();
        let s = schema();
        assert_eq!(r.cached_plan_count(), 0);

        r.route(&tup(5, 1.0), &s, None);
        let (h1, m1) = r.plan_cache_stats();
        assert_eq!((h1, m1), (0, 2), "first tuple compiles both plans");
        assert_eq!(r.cached_plan_count(), 2);

        r.route(&tup(6, 1.0), &s, None);
        let (h2, m2) = r.plan_cache_stats();
        assert_eq!((h2, m2), (2, 2), "second tuple hits both plans");

        // Any interest mutation clears the cache and moves the stamp.
        r.add_local_subscriber(SubscriberId(8), interest(0, 10, &[]));
        assert!(r.interest_generation() > g0);
        assert_eq!(r.cached_plan_count(), 0);
        r.route(&tup(5, 1.0), &s, None);
        assert_eq!(r.cached_plan_count(), 3, "plans recompiled after churn");

        r.remove_local_subscriber(SubscriberId(8));
        assert_eq!(r.cached_plan_count(), 0);
        let g1 = r.interest_generation();
        r.clear_neighbor_interests();
        assert!(r.interest_generation() > g1);
    }

    /// The behavioural half of the invalidation contract: after an
    /// interest mutation widens a projection, the next batch is routed
    /// with a freshly compiled plan, never the cached narrow one.
    #[test]
    fn widened_projection_is_not_served_from_a_stale_plan() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        let s = schema();
        let narrow = r.route_batch(&[tup(5, 1.0)], &s, None);
        assert_eq!(narrow[0].tuples[0].values(), &[Value::Int(5)]);
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id", "price"]));
        let wide = r.route_batch(&[tup(5, 2.5)], &s, None);
        assert_eq!(
            wide[0].tuples[0].values(),
            &[Value::Int(5), Value::Float(2.5)]
        );
    }

    #[test]
    fn identical_projections_share_one_projected_tuple() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(0, 10, &["id"]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 10, &["id"]));
        let s = schema();
        let d = r.route(&tup(5, 1.0), &s, None);
        assert_eq!(d.len(), 3);
        assert_eq!(
            r.projections_built(),
            1,
            "one gather serves all three destinations"
        );
        assert!(d.windows(2).all(|w| w[0].tuple == w[1].tuple));
    }

    #[test]
    fn route_batch_agrees_with_single_routing() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &["id"]));
        r.set_neighbor_interest(NodeId(2), interest(5, 25, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 30, &["id", "price"]));
        let s = schema();
        let batch: Vec<Tuple> = (0..40).map(|i| tup(i % 35, i as f64)).collect();

        // Reference: per-tuple plan-cached routing, grouped by dest.
        let reference = r.clone();
        let mut grouped: std::collections::BTreeMap<Destination, (Vec<Tuple>, Schema)> =
            std::collections::BTreeMap::new();
        for t in &batch {
            for d in reference.route(t, &s, Some(NodeId(2))) {
                grouped
                    .entry(d.dest)
                    .or_insert_with(|| (Vec::new(), d.schema.clone()))
                    .0
                    .push(d.tuple);
            }
        }

        let batched = r.route_batch(&batch, &s, Some(NodeId(2)));
        assert_eq!(batched.len(), grouped.len());
        for bf in &batched {
            let (ref_tuples, ref_schema) = &grouped[&bf.dest];
            assert_eq!(&bf.tuples, ref_tuples, "dest {:?}", bf.dest);
            assert_eq!(&bf.schema, ref_schema);
        }
        assert_eq!(reference.counters(), r.counters());
        assert!(r.route_batch(&[], &s, None).is_empty());
    }

    #[test]
    fn punctuations_follow_interest_not_filters() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(90, 99, &["id"]));
        let s: StreamName = "S".into();
        // Both destinations hold an entry for S; filters are irrelevant.
        assert_eq!(
            r.route_punctuation(&s, None),
            vec![
                Destination::Neighbor(NodeId(1)),
                Destination::Local(SubscriberId(7))
            ]
        );
        // The arrival link is excluded, and unknown streams go nowhere.
        assert_eq!(
            r.route_punctuation(&s, Some(NodeId(1))),
            vec![Destination::Local(SubscriberId(7))]
        );
        assert!(r.route_punctuation(&"T".into(), None).is_empty());
    }

    #[test]
    fn prune_stream_drops_interest_and_plans() {
        let mut r = Router::new(NodeId(0));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        let mut multi = interest(0, 10, &[]);
        multi.add_interest("T", Projection::All, Conjunction::always());
        r.add_local_subscriber(SubscriberId(7), multi);
        let s = schema();
        r.route(&tup(5, 1.0), &s, None);
        assert!(r.cached_plan_count() > 0);

        r.prune_stream(&"S".into());
        // Neighbor 1's profile became empty and was removed entirely;
        // subscriber 7 keeps its interest in T.
        assert!(r.neighbor_interest(NodeId(1)).is_none());
        assert!(r.route(&tup(5, 1.0), &s, None).is_empty());
        assert!(r.route_punctuation(&"S".into(), None).is_empty());
        assert_eq!(r.cached_plan_count(), 0);
        let p7 = r.local_interest(SubscriberId(7)).unwrap();
        assert!(p7.entry(&"T".into()).is_some());
        assert!(p7.entry(&"S".into()).is_none());
    }

    #[test]
    fn setting_empty_profile_clears_neighbor() {
        let mut r = Router::new(NodeId(3));
        assert_eq!(r.node(), NodeId(3));
        r.set_neighbor_interest(NodeId(1), interest(0, 10, &[]));
        assert!(r.neighbor_interest(NodeId(1)).is_some());
        r.set_neighbor_interest(NodeId(1), Profile::new());
        assert!(r.neighbor_interest(NodeId(1)).is_none());
        assert_eq!(r.route(&tup(5, 0.0), &schema(), None).len(), 0);
    }

    /// A three-node chain 0 → 1 → 2 for the relay tests: the upstream
    /// router 0 installs `up` toward node 1, and node 1 holds `down`
    /// toward node 2 plus an interest back toward node 0 (the arrival
    /// link, which a relay verdict ignores).
    fn chain(up: Profile, down: Profile) -> (Router, Router) {
        let mut r0 = Router::new(NodeId(0));
        r0.set_neighbor_interest(NodeId(1), up);
        let mut r1 = Router::new(NodeId(1));
        r1.set_neighbor_interest(NodeId(2), down);
        r1.set_neighbor_interest(NodeId(0), interest(0, 99, &[]));
        (r0, r1)
    }

    #[test]
    fn relays_when_the_upstream_filter_implies_the_only_outgoing_entry() {
        let (up, r) = chain(interest(2, 8, &[]), interest(0, 10, &[]));
        let matched = r.clone();
        let s = schema();
        for round in 0..2 {
            // Only tuples that passed the upstream filter arrive.
            let batch: Vec<Tuple> = (2..=8).map(|i| tup(i, round as f64)).collect();
            let reference = matched.route_batch(&batch, &s, Some(NodeId(0)));
            let buffer = batch.as_ptr();
            let relayed = r.route_hop(batch, &s, Some(&up));
            assert_eq!(relayed, reference);
            assert_eq!(
                relayed[0].tuples.as_ptr(),
                buffer,
                "the batch moves, not copied"
            );
        }
        assert_eq!(r.counters().relay_hops, 2);
        assert_eq!(
            RouterCounters {
                relay_hops: 0,
                ..r.counters()
            },
            matched.counters(),
            "a relay counts tuples and plan lookups like the matched path"
        );
        assert_eq!(r.cached_plan_count(), matched.cached_plan_count());
    }

    #[test]
    fn wider_upstream_filter_falls_back_to_matching() {
        let (up, r) = chain(interest(0, 20, &[]), interest(0, 10, &[]));
        let matched = r.clone();
        let s = schema();
        let batch: Vec<Tuple> = (0..=20).map(|i| tup(i, 1.0)).collect();
        let out = r.route_hop(batch.clone(), &s, Some(&up));
        assert_eq!(out, matched.route_batch(&batch, &s, Some(NodeId(0))));
        assert_eq!(out[0].tuples.len(), 11, "ids 11..=20 are dropped");
        assert_eq!(r.tuples_dropped(), 10);
        assert_eq!(r.counters(), matched.counters());
        assert_eq!(r.counters().relay_hops, 0);
    }

    #[test]
    fn verdict_is_recomputed_when_the_upstream_generation_moves() {
        let (mut up, r) = chain(interest(2, 8, &[]), interest(0, 10, &[]));
        let s = schema();
        let batch = || (2..=8).map(|i| tup(i, 1.0)).collect::<Vec<_>>();
        r.route_hop(batch(), &s, Some(&up));
        assert_eq!(r.counters().relay_hops, 1);

        // Only the upstream changes: node 1's own generation (and so its
        // store) stays, and the stale verdict must not be served.
        let own = r.interest_generation();
        up.set_neighbor_interest(NodeId(1), interest(0, 20, &[]));
        r.route_hop(batch(), &s, Some(&up));
        assert_eq!(r.interest_generation(), own);
        assert_eq!(r.counters().relay_hops, 1, "wider upstream: matched");

        up.set_neighbor_interest(NodeId(1), interest(3, 4, &[]));
        r.route_hop(vec![tup(3, 1.0)], &s, Some(&up));
        assert_eq!(r.counters().relay_hops, 2, "narrower again: relayed");
    }

    #[test]
    fn never_relays_without_the_proof() {
        let s = schema();
        let batch: Vec<Tuple> = (2..=8).map(|i| tup(i, 1.0)).collect();
        let check = |up: &Router, r: &Router, arriving: &Schema, batch: &[Tuple]| {
            let matched = r.clone();
            let out = r.route_hop(batch.to_vec(), arriving, Some(up));
            assert_eq!(out, matched.route_batch(batch, arriving, Some(NodeId(0))));
            assert_eq!(r.counters(), matched.counters());
            assert_eq!(r.counters().relay_hops, 0);
        };

        // A local subscriber on the stream.
        let (up, mut r) = chain(interest(2, 8, &[]), interest(0, 10, &[]));
        r.add_local_subscriber(SubscriberId(7), interest(0, 99, &["id"]));
        check(&up, &r, &s, &batch);

        // Two ways out.
        let (up, mut r) = chain(interest(2, 8, &[]), interest(0, 10, &[]));
        r.set_neighbor_interest(NodeId(3), interest(5, 6, &[]));
        check(&up, &r, &s, &batch);

        // A projection that narrows the arriving schema.
        let (up, r) = chain(interest(2, 8, &[]), interest(0, 10, &["id", "price"]));
        check(&up, &r, &s, &batch);

        // The filter references an attribute the arriving schema lacks:
        // matching drops every tuple, so relaying would deliver them.
        let mut on_price = Conjunction::always();
        on_price.between("price", 0.0, 5.0);
        let mut down = Profile::new();
        down.add_interest("S", Projection::All, on_price.clone());
        let mut upstream = Profile::new();
        upstream.add_interest("S", Projection::of(["id", "note"]), on_price);
        let (up, r) = chain(upstream, down);
        let narrow = s.project(&["id", "note"]).unwrap();
        let projected: Vec<Tuple> = batch
            .iter()
            .map(|t| t.project_indices(&[0, 2]).unwrap())
            .collect();
        check(&up, &r, &narrow, &projected);
        assert_eq!(r.tuples_dropped(), projected.len() as u64);
    }
}
