//! Profile matching engines.
//!
//! Every CBN node must answer, per incoming datagram, "which of the
//! profiles installed here cover it?". This module provides two
//! implementations behind the [`MatchEngine`] trait:
//!
//! * [`NaiveMatcher`] — scans every installed profile. The baseline.
//! * [`CountingMatcher`] — a Siena-style *counting algorithm*: each
//!   conjunctive filter is decomposed into per-attribute constraints; an
//!   index keyed by attribute finds the satisfied constraints and a
//!   per-filter counter detects filters whose constraint count is fully
//!   satisfied. Pure equality constraints (the common case for key
//!   attributes like `itemID` or `station_id`) take a hash-lookup fast
//!   path instead of a scan.
//!
//! Both engines return deterministic (sorted) key lists and are checked
//! against each other by property tests; `cosmos-bench` compares their
//! throughput (ablation A1 in DESIGN.md).

use crate::predicate::{AttrConstraint, DiffRange};
use crate::profile::Profile;
use cosmos_types::{FxHashMap, Schema, StreamName, Tuple, Value};
use std::collections::BTreeSet;
use std::hash::Hash;

/// A pluggable profile-matching engine.
///
/// Keys identify subscriptions (a local subscriber or a next-hop
/// neighbor). `matches` returns the keys of every installed profile that
/// covers the tuple, sorted and deduplicated.
pub trait MatchEngine<K: Ord + Clone> {
    /// Install (or replace) the profile for a key.
    fn insert(&mut self, key: K, profile: Profile);
    /// Remove the profile for a key, if present.
    fn remove(&mut self, key: &K);
    /// Keys of all profiles covering the tuple, sorted.
    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K>;
    /// Per-tuple match keys for a *stream-homogeneous* batch (all tuples
    /// share `tuples[0].stream` and `schema`), written into one reused
    /// flat buffer. The default delegates to [`MatchEngine::matches`];
    /// indexed engines override it to pay the stream-partition lookup
    /// once per batch instead of once per tuple, and to allocate nothing
    /// once the buffer has grown.
    fn matches_batch_into(&self, tuples: &[Tuple], schema: &Schema, out: &mut FlatMatches<K>) {
        out.clear();
        for t in tuples {
            out.keys.extend(self.matches(t, schema));
            out.finish_tuple();
        }
    }
    /// [`MatchEngine::matches_batch_into`] with one `Vec` per tuple.
    fn matches_batch(&self, tuples: &[Tuple], schema: &Schema) -> Vec<Vec<K>> {
        let mut flat = FlatMatches::new();
        self.matches_batch_into(tuples, schema, &mut flat);
        flat.iter().map(<[K]>::to_vec).collect()
    }
    /// Number of installed profiles.
    fn len(&self) -> usize;
    /// Whether no profile is installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The match keys of a whole batch in one flat buffer: tuple `i`'s
/// sorted, deduplicated keys are `keys[ends[i - 1]..ends[i]]` (from 0
/// for the first tuple). Owned by the caller and reused from batch to
/// batch, so matching allocates only while the buffers grow.
#[derive(Debug, Clone)]
pub struct FlatMatches<K> {
    keys: Vec<K>,
    ends: Vec<usize>,
    /// The counting matcher's per-filter counters, reused per tuple.
    counts: Vec<u32>,
}

impl<K> Default for FlatMatches<K> {
    fn default() -> Self {
        FlatMatches {
            keys: Vec::new(),
            ends: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl<K: Ord> FlatMatches<K> {
    /// An empty buffer.
    pub fn new() -> Self {
        FlatMatches::default()
    }

    /// Forget the previous batch, keeping the capacity.
    fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
    }

    /// Number of tuples matched.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no tuple was matched.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every key of every tuple, tuple after tuple.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The end offset of each tuple's keys in [`FlatMatches::keys`].
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// The keys of tuple `i`.
    pub fn get(&self, i: usize) -> &[K] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.keys[start..self.ends[i]]
    }

    /// The keys of each tuple, in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[K]> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Close the current tuple: sort and deduplicate the keys pushed
    /// since the previous end, in place.
    fn finish_tuple(&mut self) {
        let start = self.ends.last().copied().unwrap_or(0);
        self.keys[start..].sort_unstable();
        let mut w = start;
        for r in start..self.keys.len() {
            if w == start || self.keys[r] != self.keys[w - 1] {
                self.keys.swap(w, r);
                w += 1;
            }
        }
        self.keys.truncate(w);
        self.ends.push(w);
    }
}

/// Baseline engine: evaluate every profile against the tuple.
#[derive(Debug, Clone, Default)]
pub struct NaiveMatcher<K> {
    profiles: Vec<(K, Profile)>,
}

impl<K: Ord + Clone> NaiveMatcher<K> {
    /// An empty engine.
    pub fn new() -> Self {
        NaiveMatcher {
            profiles: Vec::new(),
        }
    }
}

impl<K: Ord + Clone> MatchEngine<K> for NaiveMatcher<K> {
    fn insert(&mut self, key: K, profile: Profile) {
        match self.profiles.iter_mut().find(|(k, _)| *k == key) {
            Some((_, p)) => *p = profile,
            None => self.profiles.push((key, profile)),
        }
    }

    fn remove(&mut self, key: &K) {
        self.profiles.retain(|(k, _)| k != key);
    }

    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K> {
        let mut out: Vec<K> = self
            .profiles
            .iter()
            .filter(|(_, p)| p.covers_tuple(tuple, schema))
            .map(|(k, _)| k.clone())
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.profiles.len()
    }
}

/// One decomposed conjunctive filter inside the counting index.
#[derive(Debug, Clone)]
struct FilterEntry<K> {
    key: K,
    /// Number of per-attribute constraints that must be counted.
    needed: u32,
    /// Difference constraints, checked after the counter fires.
    diffs: Vec<(String, String, DiffRange)>,
}

/// Per-stream constraint index.
#[derive(Debug, Clone, Default)]
struct StreamIndex<K> {
    /// Keys whose entry for this stream has no filters (accept all).
    accept_all: Vec<K>,
    filters: Vec<FilterEntry<K>>,
    /// Fast path: pure point constraints without exclusions, keyed by
    /// attribute then value. Nested (rather than `(String, Value)`-keyed)
    /// so a probe borrows the tuple's name and value — the hot path
    /// allocates nothing.
    eq_index: FxHashMap<String, FxHashMap<Value, Vec<u32>>>,
    /// General constraints evaluated by scan: `(attribute, constraint,
    /// filter index)`.
    scan: Vec<(String, AttrConstraint, u32)>,
}

/// Counting-algorithm engine with an equality fast path.
#[derive(Debug, Clone, Default)]
pub struct CountingMatcher<K> {
    profiles: FxHashMap<K, Profile>,
    streams: FxHashMap<StreamName, StreamIndex<K>>,
}

impl<K: Ord + Clone + Hash + Eq> CountingMatcher<K> {
    /// An empty engine.
    pub fn new() -> Self {
        CountingMatcher {
            profiles: FxHashMap::default(),
            streams: FxHashMap::default(),
        }
    }

    /// Rebuild the index of one stream from all installed profiles.
    fn rebuild_stream(&mut self, stream: &StreamName) {
        let mut idx = StreamIndex {
            accept_all: Vec::new(),
            filters: Vec::new(),
            eq_index: FxHashMap::default(),
            scan: Vec::new(),
        };
        for (key, profile) in &self.profiles {
            let Some(entry) = profile.entry(stream) else {
                continue;
            };
            if entry.filters.is_empty() {
                idx.accept_all.push(key.clone());
                continue;
            }
            // Dead conjunctions can never match; skip indexing them. An
            // entry whose every filter is pruned stays out of `accept_all`
            // (only an originally-empty filter list means accept-all), so
            // it simply matches nothing — which is what an unsatisfiable
            // disjunction denotes.
            for conj in entry
                .filters
                .iter()
                .filter(|conj| !crate::sat::conjunction_unsat(conj))
            {
                let fid = idx.filters.len() as u32;
                let mut needed = 0u32;
                for (attr, c) in conj.attr_constraints() {
                    if c.is_any() {
                        continue;
                    }
                    needed += 1;
                    // Fast path for `attr = v` without exclusions.
                    if c.excluded.is_empty() {
                        if let (Some((lo, true)), Some((hi, true))) =
                            (&c.interval.lo, &c.interval.hi)
                        {
                            if lo == hi {
                                idx.eq_index
                                    .entry(attr.to_string())
                                    .or_default()
                                    .entry(lo.clone())
                                    .or_default()
                                    .push(fid);
                                continue;
                            }
                        }
                    }
                    idx.scan.push((attr.to_string(), c.clone(), fid));
                }
                let diffs: Vec<_> = conj
                    .diff_constraints()
                    .map(|(a, b, r)| (a.to_string(), b.to_string(), *r))
                    .collect();
                idx.filters.push(FilterEntry {
                    key: key.clone(),
                    needed,
                    diffs,
                });
            }
        }
        idx.accept_all.sort_unstable();
        if idx.accept_all.is_empty() && idx.filters.is_empty() {
            self.streams.remove(stream);
        } else {
            self.streams.insert(stream.clone(), idx);
        }
    }

    /// Streams referenced by a profile.
    fn profile_streams(profile: &Profile) -> Vec<StreamName> {
        profile.streams().cloned().collect()
    }
}

impl<K: Ord + Clone> StreamIndex<K> {
    /// Match one tuple against this stream's index, appending its keys
    /// to `out` unsorted and possibly repeated (one per satisfied
    /// disjunct). `counts` is a scratch buffer reused across the tuples
    /// of a batch.
    fn match_into(&self, tuple: &Tuple, schema: &Schema, counts: &mut Vec<u32>, out: &mut Vec<K>) {
        out.extend_from_slice(&self.accept_all);
        if !self.filters.is_empty() {
            let lookup = |name: &str| -> Option<&Value> { tuple.get_by_name(schema, name) };
            counts.clear();
            counts.resize(self.filters.len(), 0);
            // Equality fast path: probe (attr, value) for every attribute
            // the tuple actually carries, borrowing both.
            for (i, f) in schema.fields().iter().enumerate() {
                let Some(v) = tuple.get(i) else { continue };
                if let Some(fids) = self
                    .eq_index
                    .get(f.name.as_str())
                    .and_then(|per_value| per_value.get(v))
                {
                    for &fid in fids {
                        counts[fid as usize] += 1;
                    }
                }
            }
            // General constraints.
            for (attr, c, fid) in &self.scan {
                if let Some(v) = lookup(attr) {
                    if c.satisfies(v) {
                        counts[*fid as usize] += 1;
                    }
                }
            }
            for (fid, entry) in self.filters.iter().enumerate() {
                if counts[fid] != entry.needed {
                    continue;
                }
                let diffs_ok = entry.diffs.iter().all(|(a, b, r)| {
                    matches!((lookup(a), lookup(b)), (Some(x), Some(y)) if r.satisfies(x, y))
                });
                if diffs_ok {
                    out.push(entry.key.clone());
                }
            }
        }
    }
}

impl<K: Ord + Clone + Hash + Eq> MatchEngine<K> for CountingMatcher<K> {
    fn insert(&mut self, key: K, profile: Profile) {
        let mut affected: BTreeSet<StreamName> =
            Self::profile_streams(&profile).into_iter().collect();
        if let Some(prev) = self.profiles.insert(key, profile) {
            affected.extend(Self::profile_streams(&prev));
        }
        for s in affected {
            self.rebuild_stream(&s);
        }
    }

    fn remove(&mut self, key: &K) {
        if let Some(prev) = self.profiles.remove(key) {
            for s in Self::profile_streams(&prev) {
                self.rebuild_stream(&s);
            }
        }
    }

    fn matches(&self, tuple: &Tuple, schema: &Schema) -> Vec<K> {
        let Some(idx) = self.streams.get(&tuple.stream) else {
            return Vec::new();
        };
        let mut counts = Vec::new();
        let mut out = Vec::new();
        idx.match_into(tuple, schema, &mut counts, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn matches_batch_into(&self, tuples: &[Tuple], schema: &Schema, out: &mut FlatMatches<K>) {
        out.clear();
        let Some(first) = tuples.first() else {
            return;
        };
        debug_assert!(
            tuples.iter().all(|t| t.stream == first.stream),
            "matches_batch requires a stream-homogeneous batch"
        );
        let idx = self.streams.get(&first.stream);
        for t in tuples {
            if let Some(idx) = idx {
                idx.match_into(t, schema, &mut out.counts, &mut out.keys);
            }
            out.finish_tuple();
        }
    }

    fn len(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::{ProfileEntry, Projection};
    use cosmos_types::{AttrType, Timestamp};

    fn schema() -> Schema {
        Schema::of(&[
            ("id", AttrType::Int),
            ("price", AttrType::Float),
            ("tag", AttrType::Str),
        ])
    }

    fn tup(id: i64, price: f64, tag: &str) -> Tuple {
        Tuple::new(
            "S",
            Timestamp(0),
            vec![Value::Int(id), Value::Float(price), Value::str(tag)],
        )
    }

    fn profile_eq_id(id: i64) -> Profile {
        let mut f = Conjunction::always();
        f.equals("id", id);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        p
    }

    fn profile_price_range(lo: f64, hi: f64) -> Profile {
        let mut f = Conjunction::always();
        f.between("price", lo, hi);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        p
    }

    fn both_engines() -> (NaiveMatcher<u32>, CountingMatcher<u32>) {
        (NaiveMatcher::new(), CountingMatcher::new())
    }

    #[test]
    fn matches_equality_and_range() {
        let (mut n, mut c) = both_engines();
        for (k, p) in [
            (1u32, profile_eq_id(7)),
            (2, profile_price_range(0.0, 100.0)),
            (3, Profile::whole_stream("S")),
            (4, Profile::whole_stream("T")),
        ] {
            n.insert(k, p.clone());
            c.insert(k, p);
        }
        let s = schema();
        let t = tup(7, 50.0, "a");
        assert_eq!(n.matches(&t, &s), vec![1, 2, 3]);
        assert_eq!(c.matches(&t, &s), vec![1, 2, 3]);
        let t2 = tup(8, 500.0, "a");
        assert_eq!(n.matches(&t2, &s), vec![3]);
        assert_eq!(c.matches(&t2, &s), vec![3]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn unknown_stream_matches_nothing() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        let t = Tuple::new("Other", Timestamp(0), vec![Value::Int(7)]);
        let s = Schema::of(&[("id", AttrType::Int)]);
        assert!(n.matches(&t, &s).is_empty());
        assert!(c.matches(&t, &s).is_empty());
    }

    #[test]
    fn remove_uninstalls() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        n.remove(&1);
        c.remove(&1);
        let t = tup(7, 0.0, "a");
        assert!(n.matches(&t, &schema()).is_empty());
        assert!(c.matches(&t, &schema()).is_empty());
        assert!(c.is_empty());
        // removing a missing key is a no-op
        c.remove(&9);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let (mut n, mut c) = both_engines();
        n.insert(1, profile_eq_id(7));
        c.insert(1, profile_eq_id(7));
        n.insert(1, profile_eq_id(8));
        c.insert(1, profile_eq_id(8));
        let s = schema();
        assert!(n.matches(&tup(7, 0.0, "a"), &s).is_empty());
        assert!(c.matches(&tup(7, 0.0, "a"), &s).is_empty());
        assert_eq!(c.matches(&tup(8, 0.0, "a"), &s), vec![1]);
        assert_eq!(n.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multi_filter_profile_matches_once() {
        // Two overlapping filters in one profile must yield the key once.
        let mut p = Profile::new();
        let mut f1 = Conjunction::always();
        f1.between("id", 0, 10);
        let mut f2 = Conjunction::always();
        f2.between("id", 5, 15);
        p.add_entry(
            "S",
            ProfileEntry {
                projection: Projection::All,
                filters: vec![f1, f2],
            },
        );
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let t = tup(7, 0.0, "a");
        assert_eq!(n.matches(&t, &schema()), vec![1]);
        assert_eq!(c.matches(&t, &schema()), vec![1]);
    }

    #[test]
    fn diff_constraints_checked() {
        let mut f = Conjunction::always();
        f.diff("id", "price", DiffRange::new(0.0, 5.0));
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let s = schema();
        assert_eq!(c.matches(&tup(7, 4.0, "a"), &s), vec![1]); // diff 3
        assert!(c.matches(&tup(7, 0.5, "a"), &s).is_empty()); // diff 6.5
        assert_eq!(
            n.matches(&tup(7, 4.0, "a"), &s),
            c.matches(&tup(7, 4.0, "a"), &s)
        );
    }

    #[test]
    fn ne_constraint_not_on_fast_path() {
        // id = 7 with an exclusion can't use the eq fast path; the scan
        // path must still be correct.
        let mut f = Conjunction::always();
        f.between("id", 7, 7).excludes("id", 7);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, f);
        let mut c = CountingMatcher::new();
        c.insert(1, p);
        assert!(c.matches(&tup(7, 0.0, "a"), &schema()).is_empty());
    }

    #[test]
    fn deep_unsat_filters_are_pruned_from_the_index() {
        // One dead conjunction (id ≥ price, price ≥ 5, id < 5 — unsat only
        // through interaction) plus one live one. The dead filter must not
        // be indexed at all, and matching must agree with the naive engine.
        let mut dead = Conjunction::always();
        dead.diff(
            "id",
            "price",
            crate::predicate::DiffRange::new(0.0, f64::INFINITY),
        )
        .lower("price", 5, true)
        .upper("id", 5, false);
        assert!(!dead.is_unsat(), "must be invisible to the shallow check");
        let mut live = Conjunction::always();
        live.equals("id", 7);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, dead);
        p.add_interest("S", Projection::All, live);
        let (mut n, mut c) = both_engines();
        n.insert(1, p.clone());
        c.insert(1, p);
        let idx = &c.streams[&"S".into()];
        assert_eq!(idx.filters.len(), 1, "dead conjunction still indexed");
        assert!(idx.accept_all.is_empty());
        let s = schema();
        let hit = tup(7, 50.0, "a");
        let miss = tup(3, 50.0, "a");
        assert_eq!(n.matches(&hit, &s), vec![1]);
        assert_eq!(c.matches(&hit, &s), vec![1]);
        assert!(n.matches(&miss, &s).is_empty());
        assert!(c.matches(&miss, &s).is_empty());
    }

    #[test]
    fn batch_matches_agree_with_single() {
        let (mut n, mut c) = both_engines();
        // Key 4 has two overlapping disjuncts: a tuple satisfying both
        // must still list it once in its flat range.
        let mut two = Profile::new();
        let mut low = Conjunction::always();
        low.between("id", 0, 5);
        let mut high = Conjunction::always();
        high.between("id", 3, 8);
        two.add_interest("S", Projection::All, low);
        two.add_interest("S", Projection::All, high);
        for (k, p) in [
            (1u32, profile_eq_id(7)),
            (2, profile_price_range(0.0, 100.0)),
            (3, Profile::whole_stream("S")),
            (4, two),
        ] {
            n.insert(k, p.clone());
            c.insert(k, p);
        }
        let s = schema();
        let batch: Vec<Tuple> = (0..20).map(|i| tup(i % 9, (i * 13) as f64, "x")).collect();
        let singles: Vec<Vec<u32>> = batch.iter().map(|t| c.matches(t, &s)).collect();
        assert_eq!(
            singles[4],
            vec![2, 3, 4],
            "id 4 satisfies both disjuncts of key 4"
        );
        assert_eq!(c.matches_batch(&batch, &s), singles);
        assert_eq!(n.matches_batch(&batch, &s), singles);

        // The flat form, refilled in place: the same ranges, and a
        // second batch leaves nothing of the first behind.
        let mut flat = FlatMatches::new();
        for engine in [&c as &dyn MatchEngine<u32>, &n] {
            engine.matches_batch_into(&batch[..3], &s, &mut flat);
            engine.matches_batch_into(&batch, &s, &mut flat);
            assert_eq!(flat.len(), batch.len());
            assert_eq!(flat.iter().collect::<Vec<_>>(), singles);
            assert_eq!(flat.keys().len(), *flat.ends().last().unwrap());
        }

        // unknown stream: one empty result per tuple
        let other = vec![Tuple::new("Other", Timestamp(0), vec![Value::Int(1)])];
        let os = Schema::of(&[("id", AttrType::Int)]);
        assert_eq!(c.matches_batch(&other, &os), vec![Vec::<u32>::new()]);
        c.matches_batch_into(&other, &os, &mut flat);
        assert_eq!((flat.len(), flat.get(0)), (1, &[][..]));
        assert!(c.matches_batch(&[], &s).is_empty());
        c.matches_batch_into(&[], &s, &mut flat);
        assert!(flat.is_empty());
    }

    #[test]
    fn profile_of_only_dead_filters_matches_nothing_but_stays_installed() {
        let mut dead = Conjunction::always();
        dead.diff(
            "id",
            "price",
            crate::predicate::DiffRange::new(0.0, f64::INFINITY),
        )
        .lower("price", 5, true)
        .upper("id", 5, false);
        let mut p = Profile::new();
        p.add_interest("S", Projection::All, dead);
        let mut c = CountingMatcher::new();
        c.insert(1, p);
        assert_eq!(c.len(), 1);
        assert!(c.matches(&tup(7, 50.0, "a"), &schema()).is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::predicate::Conjunction;
    use crate::profile::Projection;
    use cosmos_types::{AttrType, Timestamp};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::of(&[("a", AttrType::Int), ("b", AttrType::Int)])
    }

    #[derive(Debug, Clone)]
    enum Constr {
        Eq(&'static str, i64),
        Ne(&'static str, i64),
        Between(&'static str, i64, i64),
        Lower(&'static str, i64, bool),
        Upper(&'static str, i64, bool),
        Diff(i64, i64),
    }

    fn arb_constr() -> impl Strategy<Value = Constr> {
        let attr = prop_oneof![Just("a"), Just("b")];
        prop_oneof![
            (attr.clone(), -10i64..10).prop_map(|(a, v)| Constr::Eq(a, v)),
            (attr.clone(), -10i64..10).prop_map(|(a, v)| Constr::Ne(a, v)),
            (attr.clone(), -10i64..10, -10i64..10).prop_map(|(a, l, h)| Constr::Between(
                a,
                l.min(h),
                l.max(h)
            )),
            (attr.clone(), -10i64..10, any::<bool>()).prop_map(|(a, v, i)| Constr::Lower(a, v, i)),
            (attr, -10i64..10, any::<bool>()).prop_map(|(a, v, i)| Constr::Upper(a, v, i)),
            (-10i64..10, -10i64..10).prop_map(|(l, h)| Constr::Diff(l.min(h), l.max(h))),
        ]
    }

    fn build_profile(constrs: &[Vec<Constr>]) -> Profile {
        let mut p = Profile::new();
        if constrs.is_empty() {
            return Profile::whole_stream("S");
        }
        for filter in constrs {
            let mut c = Conjunction::always();
            for k in filter {
                match k {
                    Constr::Eq(a, v) => {
                        c.equals(*a, *v);
                    }
                    Constr::Ne(a, v) => {
                        c.excludes(*a, *v);
                    }
                    Constr::Between(a, l, h) => {
                        c.between(*a, *l, *h);
                    }
                    Constr::Lower(a, v, i) => {
                        c.lower(*a, *v, *i);
                    }
                    Constr::Upper(a, v, i) => {
                        c.upper(*a, *v, *i);
                    }
                    Constr::Diff(l, h) => {
                        c.diff("a", "b", DiffRange::new(*l as f64, *h as f64));
                    }
                }
            }
            p.add_interest("S", Projection::All, c);
        }
        p
    }

    proptest! {
        /// The counting matcher and the naive matcher agree on arbitrary
        /// profile sets and tuples.
        #[test]
        fn engines_agree(
            profiles in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(arb_constr(), 0..3), 0..3), 1..6),
            points in proptest::collection::vec((-12i64..12, -12i64..12), 1..12),
        ) {
            let mut naive = NaiveMatcher::new();
            let mut counting = CountingMatcher::new();
            for (i, spec) in profiles.iter().enumerate() {
                let p = build_profile(spec);
                naive.insert(i as u32, p.clone());
                counting.insert(i as u32, p);
            }
            let s = schema();
            let batch: Vec<Tuple> = points
                .iter()
                .map(|&(a, b)| Tuple::new("S", Timestamp(0), vec![Value::Int(a), Value::Int(b)]))
                .collect();
            let mut flat = FlatMatches::new();
            counting.matches_batch_into(&batch, &s, &mut flat);
            prop_assert_eq!(flat.len(), batch.len());
            for (i, t) in batch.iter().enumerate() {
                let expected = naive.matches(t, &s);
                prop_assert_eq!(&expected, &counting.matches(t, &s));
                prop_assert_eq!(&expected[..], flat.get(i));
            }
        }
    }
}
