//! Secondary indexes on stored relations: single-attribute hash indexes
//! (point lookups), single-attribute ordered BTree indexes (point and
//! range lookups), and multi-attribute composite ordered indexes
//! (prefix lookups). [`Index`] unifies the three for the engine, which
//! keeps any number of them per entity type.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use toposem_core::AttrId;
use toposem_extension::{Instance, Value};

use crate::query::Predicate;

/// A secondary index: attribute value → matching instances of one entity
/// type's relation.
///
/// There is deliberately no `Default` impl: an index always knows its
/// attribute, so an unconfigured index is unrepresentable and `attr()`
/// cannot fail.
///
/// Like [`toposem_extension::Relation`], the map is copy-on-write behind
/// an `Arc` and its buckets hold the relation's own row handles: cloning
/// an index (into a snapshot) is a refcount bump, and only a commit that
/// changes the index copies it.
#[derive(Clone, Debug)]
pub struct HashIndex {
    attr: AttrId,
    buckets: Arc<HashMap<Value, Vec<Instance>>>,
    /// Total entries over all buckets, so [`HashIndex::len`] is O(1).
    entries: usize,
}

impl HashIndex {
    /// An index on `attr`.
    pub fn new(attr: AttrId) -> Self {
        HashIndex {
            attr,
            buckets: Arc::default(),
            entries: 0,
        }
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Registers an instance.
    pub fn insert(&mut self, t: &Instance) {
        if let Some(v) = t.get(self.attr) {
            Arc::make_mut(&mut self.buckets)
                .entry(v.clone())
                .or_default()
                .push(t.clone());
            self.entries += 1;
        }
    }

    /// Unregisters an instance, dropping the bucket when it empties so
    /// long-lived engines under churn don't accumulate dead entries.
    pub fn remove(&mut self, t: &Instance) {
        let Some(v) = t.get(self.attr) else { return };
        if !self.buckets.get(v).is_some_and(|b| b.contains(t)) {
            return;
        }
        let buckets = Arc::make_mut(&mut self.buckets);
        let bucket = buckets.get_mut(v).expect("checked above");
        let before = bucket.len();
        bucket.retain(|u| u != t);
        self.entries -= before - bucket.len();
        if bucket.is_empty() {
            buckets.remove(v);
        }
    }

    /// Point lookup.
    pub fn lookup(&self, v: &Value) -> &[Instance] {
        self.buckets.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.buckets.len()
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The distinct indexed values, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.buckets.keys()
    }

    /// The instances holding `key`, for key iteration callers.
    pub fn group(&self, key: &Value) -> &[Instance] {
        self.lookup(key)
    }
}

/// An ordered secondary index: a BTree from attribute value to matching
/// instances, supporting point *and* range lookups under the total
/// order on [`Value`].
///
/// Copy-on-write and handle-sharing like [`HashIndex`].
#[derive(Clone, Debug)]
pub struct OrdIndex {
    attr: AttrId,
    tree: Arc<BTreeMap<Value, Vec<Instance>>>,
    /// Total entries over all nodes, so [`OrdIndex::len`] is O(1).
    entries: usize,
}

impl OrdIndex {
    /// An ordered index on `attr`.
    pub fn new(attr: AttrId) -> Self {
        OrdIndex {
            attr,
            tree: Arc::default(),
            entries: 0,
        }
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Registers an instance.
    pub fn insert(&mut self, t: &Instance) {
        if let Some(v) = t.get(self.attr) {
            Arc::make_mut(&mut self.tree)
                .entry(v.clone())
                .or_default()
                .push(t.clone());
            self.entries += 1;
        }
    }

    /// Unregisters an instance, dropping the node when it empties (the
    /// same churn guarantee as [`HashIndex::remove`]).
    pub fn remove(&mut self, t: &Instance) {
        let Some(v) = t.get(self.attr) else { return };
        self.entries -= remove_from(&mut self.tree, v, t);
    }

    /// Point lookup.
    pub fn lookup(&self, v: &Value) -> &[Instance] {
        self.tree.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Range lookup: every instance whose indexed value lies between the
    /// bounds (`(value, inclusive)`; `None` = unbounded). An inverted
    /// range yields nothing rather than panicking.
    pub fn range<'a>(
        &'a self,
        lo: Option<(&'a Value, bool)>,
        hi: Option<(&'a Value, bool)>,
    ) -> impl Iterator<Item = &'a Instance> {
        let start = match lo {
            Some((v, true)) => Bound::Included(v),
            Some((v, false)) => Bound::Excluded(v),
            None => Bound::Unbounded,
        };
        let end = match hi {
            Some((v, true)) => Bound::Included(v),
            Some((v, false)) => Bound::Excluded(v),
            None => Bound::Unbounded,
        };
        // BTreeMap::range panics on start > end; an inverted predicate
        // simply matches nothing.
        let inverted = match (lo, hi) {
            (Some((l, li)), Some((h, hi_inc))) => l > h || (l == h && !(li && hi_inc)),
            _ => false,
        };
        let iter = if inverted {
            None
        } else {
            Some(self.tree.range::<Value, _>((start, end)))
        };
        iter.into_iter().flatten().flat_map(|(_, ts)| ts.iter())
    }

    /// Every instance whose indexed value satisfies `pred`, walking only
    /// the qualifying BTree range.
    pub fn seek<'a>(&'a self, pred: &'a Predicate) -> impl Iterator<Item = &'a Instance> {
        let (lo, hi) = pred.bounds();
        self.range(lo, hi)
    }

    /// Smallest indexed value.
    pub fn min(&self) -> Option<&Value> {
        self.tree.keys().next()
    }

    /// Largest indexed value.
    pub fn max(&self) -> Option<&Value> {
        self.tree.keys().next_back()
    }

    /// The distinct indexed values, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.tree.keys()
    }

    /// The instances holding `key`.
    pub fn group(&self, key: &Value) -> &[Instance] {
        self.lookup(key)
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.tree.len()
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

/// Removes every entry equal to `t` from the node at `key` of a
/// copy-on-write tree, dropping the node when it empties; returns how
/// many entries went. The tree is copied (when shared) only if the node
/// actually holds `t`.
fn remove_from<K: Ord + Clone + std::borrow::Borrow<Q>, Q: Ord + ?Sized>(
    tree: &mut Arc<BTreeMap<K, Vec<Instance>>>,
    key: &Q,
    t: &Instance,
) -> usize {
    if !tree.get(key).is_some_and(|node| node.contains(t)) {
        return 0;
    }
    let tree = Arc::make_mut(tree);
    let node = tree.get_mut(key).expect("checked above");
    let before = node.len();
    node.retain(|u| u != t);
    let removed = before - node.len();
    if node.is_empty() {
        tree.remove(key);
    }
    removed
}

/// A composite secondary index: a BTree from the tuple of values of an
/// ordered attribute list to matching instances. Lexicographic key
/// order makes any *prefix* of the attribute list seekable.
///
/// Copy-on-write and handle-sharing like [`HashIndex`].
#[derive(Clone, Debug)]
pub struct CompositeIndex {
    attrs: Vec<AttrId>,
    tree: Arc<BTreeMap<Vec<Value>, Vec<Instance>>>,
    /// Total entries over all nodes, so [`CompositeIndex::len`] is O(1).
    entries: usize,
}

impl CompositeIndex {
    /// A composite index over `attrs` (order is significant: lookups
    /// match key *prefixes*). At least one attribute is required.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        assert!(!attrs.is_empty(), "composite index needs attributes");
        CompositeIndex {
            attrs,
            tree: Arc::default(),
            entries: 0,
        }
    }

    /// The indexed attributes, in key order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    fn key_of(&self, t: &Instance) -> Option<Vec<Value>> {
        self.attrs.iter().map(|a| t.get(*a).cloned()).collect()
    }

    /// Registers an instance (ignored when it lacks any key attribute).
    pub fn insert(&mut self, t: &Instance) {
        if let Some(key) = self.key_of(t) {
            Arc::make_mut(&mut self.tree)
                .entry(key)
                .or_default()
                .push(t.clone());
            self.entries += 1;
        }
    }

    /// Unregisters an instance, dropping the node when it empties.
    pub fn remove(&mut self, t: &Instance) {
        if let Some(key) = self.key_of(t) {
            self.entries -= remove_from(&mut self.tree, &key, t);
        }
    }

    /// Prefix lookup: every instance whose first `prefix.len()` key
    /// attributes equal `prefix` (which may be shorter than the full
    /// attribute list, but not longer).
    pub fn lookup_prefix<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = &'a Instance> {
        assert!(prefix.len() <= self.attrs.len(), "prefix too long");
        self.tree
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k[..prefix.len()] == *prefix)
            .flat_map(|(_, ts)| ts.iter())
    }

    /// Prefix-plus-range lookup: every instance whose first
    /// `prefix.len()` key attributes equal `prefix` *and* whose next key
    /// attribute lies between the bounds (`(value, inclusive)`; `None` =
    /// unbounded). The qualifying keys form one contiguous BTree range,
    /// so only that slice is walked (plus, for an exclusive lower bound,
    /// the run of keys equal to the bound, which are skipped). Requires
    /// `prefix.len() < attrs.len()`; an inverted range yields nothing.
    pub fn lookup_prefix_range<'a>(
        &'a self,
        prefix: &'a [Value],
        lo: Option<(&'a Value, bool)>,
        hi: Option<(&'a Value, bool)>,
    ) -> impl Iterator<Item = &'a Instance> {
        assert!(
            prefix.len() < self.attrs.len(),
            "range suffix needs a key attribute past the prefix"
        );
        let p = prefix.len();
        // Start at the first key carrying the prefix and (when bounded
        // below) the lower-bound value; an exclusive bound starts at the
        // same key and skips the equal run.
        let start: Vec<Value> = match lo {
            Some((v, _)) => prefix.iter().chain(std::iter::once(v)).cloned().collect(),
            None => prefix.to_vec(),
        };
        self.tree
            .range::<[Value], _>((Bound::Included(start.as_slice()), Bound::Unbounded))
            .skip_while(move |(k, _)| matches!(lo, Some((v, false)) if &k[p] == v))
            .take_while(move |(k, _)| {
                k[..p] == *prefix
                    && match hi {
                        Some((v, true)) => &k[p] <= v,
                        Some((v, false)) => &k[p] < v,
                        None => true,
                    }
            })
            .flat_map(|(_, ts)| ts.iter())
    }

    /// The distinct keys, in ascending lexicographic order.
    pub fn keys(&self) -> impl Iterator<Item = &[Value]> {
        self.tree.keys().map(Vec::as_slice)
    }

    /// The instances holding `key` (a full-length key).
    pub fn group(&self, key: &[Value]) -> &[Instance] {
        self.tree.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_values(&self) -> usize {
        self.tree.len()
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

/// The kind of a secondary index, for DDL and logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Single-attribute hash index.
    Hash,
    /// Single-attribute ordered index.
    Ordered,
    /// Multi-attribute composite ordered index.
    Composite,
}

impl IndexKind {
    /// Lowercase name, as rendered in `explain` and logged definitions.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::Ordered => "ordered",
            IndexKind::Composite => "composite",
        }
    }
}

/// Any secondary index the engine can hold on an entity type.
#[derive(Clone, Debug)]
pub enum Index {
    /// Hash index (point lookups only).
    Hash(HashIndex),
    /// Ordered index (point and range lookups).
    Ord(OrdIndex),
    /// Composite ordered index (prefix lookups).
    Composite(CompositeIndex),
}

impl Index {
    /// This index's kind.
    pub fn kind(&self) -> IndexKind {
        match self {
            Index::Hash(_) => IndexKind::Hash,
            Index::Ord(_) => IndexKind::Ordered,
            Index::Composite(_) => IndexKind::Composite,
        }
    }

    /// The indexed attributes, in key order.
    pub fn attrs(&self) -> Vec<AttrId> {
        match self {
            Index::Hash(i) => vec![i.attr()],
            Index::Ord(i) => vec![i.attr()],
            Index::Composite(i) => i.attrs().to_vec(),
        }
    }

    /// Registers an instance.
    pub fn insert(&mut self, t: &Instance) {
        match self {
            Index::Hash(i) => i.insert(t),
            Index::Ord(i) => i.insert(t),
            Index::Composite(i) => i.insert(t),
        }
    }

    /// Unregisters an instance.
    pub fn remove(&mut self, t: &Instance) {
        match self {
            Index::Hash(i) => i.remove(t),
            Index::Ord(i) => i.remove(t),
            Index::Composite(i) => i.remove(t),
        }
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        match self {
            Index::Hash(i) => i.len(),
            Index::Ord(i) => i.len(),
            Index::Composite(i) => i.len(),
        }
    }

    /// True when the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point lookup on a single-attribute index (`None` for composites
    /// — use [`CompositeIndex::lookup_prefix`] through
    /// [`Index::as_composite`]).
    pub fn lookup(&self, attr: AttrId, v: &Value) -> Option<&[Instance]> {
        match self {
            Index::Hash(i) if i.attr() == attr => Some(i.lookup(v)),
            Index::Ord(i) if i.attr() == attr => Some(i.lookup(v)),
            _ => None,
        }
    }

    /// The ordered index inside, if that's what this is.
    pub fn as_ord(&self) -> Option<&OrdIndex> {
        match self {
            Index::Ord(i) => Some(i),
            _ => None,
        }
    }

    /// The composite index inside, if that's what this is.
    pub fn as_composite(&self) -> Option<&CompositeIndex> {
        match self {
            Index::Composite(i) => Some(i),
            _ => None,
        }
    }

    /// The hash index inside, if that's what this is.
    pub fn as_hash(&self) -> Option<&HashIndex> {
        match self {
            Index::Hash(i) => Some(i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::employee_schema;
    use toposem_extension::DomainCatalog;

    fn emp(name: &str, age: i64, dep: &str) -> Instance {
        let s = employee_schema();
        let c = DomainCatalog::employee_defaults();
        Instance::new(
            &s,
            &c,
            s.type_id("employee").unwrap(),
            &[
                ("name", Value::str(name)),
                ("age", Value::Int(age)),
                ("depname", Value::str(dep)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_lookup_remove() {
        let s = employee_schema();
        let dep = s.attr_id("depname").unwrap();
        let mut idx = HashIndex::new(dep);
        let t1 = emp("ann", 40, "sales");
        let t2 = emp("bob", 30, "sales");
        idx.insert(&t1);
        idx.insert(&t2);
        assert_eq!(idx.attr(), dep);
        assert_eq!(idx.lookup(&Value::str("sales")).len(), 2);
        assert_eq!(idx.lookup(&Value::str("research")).len(), 0);
        assert_eq!(idx.distinct_values(), 1);
        assert_eq!(idx.len(), 2);
        idx.remove(&t1);
        assert_eq!(idx.lookup(&Value::str("sales")).len(), 1);
        idx.remove(&t2);
        assert!(idx.is_empty());
    }

    #[test]
    fn remove_compacts_empty_buckets() {
        // Churn: many distinct values inserted then removed must not leave
        // tombstone buckets behind (the leak this regression test pins).
        let s = employee_schema();
        let name = s.attr_id("name").unwrap();
        let mut idx = HashIndex::new(name);
        let tuples: Vec<Instance> = (0..100)
            .map(|i| emp(&format!("p{i}"), 30, "sales"))
            .collect();
        for t in &tuples {
            idx.insert(t);
        }
        assert_eq!(idx.distinct_values(), 100);
        for t in &tuples {
            idx.remove(t);
        }
        assert_eq!(idx.distinct_values(), 0, "empty buckets must be dropped");
        assert!(idx.is_empty());
        // Removing an absent tuple on an empty index is a no-op.
        idx.remove(&tuples[0]);
        assert_eq!(idx.distinct_values(), 0);
    }

    #[test]
    fn ord_index_point_range_and_min_max() {
        let s = employee_schema();
        let age = s.attr_id("age").unwrap();
        let mut idx = OrdIndex::new(age);
        let tuples: Vec<Instance> = [25, 30, 30, 40, 55]
            .iter()
            .enumerate()
            .map(|(i, a)| emp(&format!("p{i}"), *a, "sales"))
            .collect();
        for t in &tuples {
            idx.insert(t);
        }
        assert_eq!(idx.attr(), age);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.distinct_values(), 4);
        assert_eq!(idx.min(), Some(&Value::Int(25)));
        assert_eq!(idx.max(), Some(&Value::Int(55)));
        assert_eq!(idx.lookup(&Value::Int(30)).len(), 2);
        // [30, 40]: both 30s and the 40.
        let v30 = Value::Int(30);
        let v40 = Value::Int(40);
        assert_eq!(idx.range(Some((&v30, true)), Some((&v40, true))).count(), 3);
        // (30, 40): nothing strictly between.
        assert_eq!(
            idx.range(Some((&v30, false)), Some((&v40, false))).count(),
            0
        );
        // Unbounded below, exclusive above.
        assert_eq!(idx.range(None, Some((&v40, false))).count(), 3);
        // Inverted range matches nothing (and must not panic).
        assert_eq!(idx.range(Some((&v40, true)), Some((&v30, true))).count(), 0);
        assert_eq!(
            idx.range(Some((&v30, false)), Some((&v30, true))).count(),
            0
        );
        // Predicate-driven seeks agree with matches().
        for pred in [
            Predicate::Eq(Value::Int(30)),
            Predicate::Lt(Value::Int(40)),
            Predicate::Ge(Value::Int(30)),
            Predicate::Between(Value::Int(26), Value::Int(41)),
        ] {
            let via_seek = idx.seek(&pred).count();
            let via_scan = tuples
                .iter()
                .filter(|t| pred.matches(t.get(age).unwrap()))
                .count();
            assert_eq!(via_seek, via_scan, "seek != scan for {pred:?}");
        }
        // Node compaction on removal.
        for t in &tuples {
            idx.remove(t);
        }
        assert!(idx.is_empty());
        assert_eq!(idx.distinct_values(), 0);
    }

    #[test]
    fn composite_index_prefix_lookup() {
        let s = employee_schema();
        let name = s.attr_id("name").unwrap();
        let dep = s.attr_id("depname").unwrap();
        let mut idx = CompositeIndex::new(vec![dep, name]);
        let rows = [
            ("ann", "sales"),
            ("bob", "sales"),
            ("ann", "research"),
            ("carol", "research"),
        ];
        let tuples: Vec<Instance> = rows.iter().map(|(n, d)| emp(n, 30, d)).collect();
        for t in &tuples {
            idx.insert(t);
        }
        assert_eq!(idx.attrs(), &[dep, name]);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.distinct_values(), 4);
        // Full-key lookup.
        assert_eq!(
            idx.lookup_prefix(&[Value::str("sales"), Value::str("ann")])
                .count(),
            1
        );
        // One-attribute prefix.
        assert_eq!(idx.lookup_prefix(&[Value::str("sales")]).count(), 2);
        assert_eq!(idx.lookup_prefix(&[Value::str("research")]).count(), 2);
        // Empty prefix = everything.
        assert_eq!(idx.lookup_prefix(&[]).count(), 4);
        // Missing prefix.
        assert_eq!(idx.lookup_prefix(&[Value::str("admin")]).count(), 0);
        // Keys iterate in lexicographic order.
        let keys: Vec<&[Value]> = idx.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // Removal compacts.
        for t in &tuples {
            idx.remove(t);
        }
        assert!(idx.is_empty());
        assert_eq!(idx.distinct_values(), 0);
    }

    #[test]
    fn composite_prefix_range_lookup() {
        let s = employee_schema();
        let age = s.attr_id("age").unwrap();
        let dep = s.attr_id("depname").unwrap();
        let mut idx = CompositeIndex::new(vec![dep, age]);
        let rows = [
            ("sales", 20),
            ("sales", 30),
            ("sales", 30),
            ("sales", 40),
            ("research", 25),
            ("research", 35),
        ];
        let tuples: Vec<Instance> = rows
            .iter()
            .enumerate()
            .map(|(i, (d, a))| emp(&format!("p{i}"), *a, d))
            .collect();
        for t in &tuples {
            idx.insert(t);
        }
        let sales = [Value::str("sales")];
        let v25 = Value::Int(25);
        let v30 = Value::Int(30);
        let v40 = Value::Int(40);
        // Inclusive both ends: 30, 30, 40.
        assert_eq!(
            idx.lookup_prefix_range(&sales, Some((&v25, true)), Some((&v40, true)))
                .count(),
            3
        );
        // Exclusive lower bound skips the whole equal run.
        assert_eq!(
            idx.lookup_prefix_range(&sales, Some((&v30, false)), Some((&v40, true)))
                .count(),
            1
        );
        // Exclusive upper bound.
        assert_eq!(
            idx.lookup_prefix_range(&sales, Some((&v25, true)), Some((&v40, false)))
                .count(),
            2
        );
        // Unbounded sides.
        assert_eq!(idx.lookup_prefix_range(&sales, None, None).count(), 4);
        assert_eq!(
            idx.lookup_prefix_range(&sales, Some((&v30, true)), None)
                .count(),
            3
        );
        assert_eq!(
            idx.lookup_prefix_range(&sales, None, Some((&v30, false)))
                .count(),
            1
        );
        // Empty prefix: a range over the *leading* key attribute.
        let research = Value::str("research");
        assert_eq!(
            idx.lookup_prefix_range(&[], None, Some((&research, true)))
                .count(),
            2
        );
        // Inverted range matches nothing.
        assert_eq!(
            idx.lookup_prefix_range(&sales, Some((&v40, true)), Some((&v25, true)))
                .count(),
            0
        );
        // Absent prefix matches nothing.
        assert_eq!(
            idx.lookup_prefix_range(&[Value::str("admin")], None, None)
                .count(),
            0
        );
        // Agreement with a scan-and-filter over the same rows.
        for (lo, hi) in [
            (None, None),
            (Some((&v25, true)), Some((&v40, false))),
            (Some((&v30, false)), None),
        ] {
            let via_seek: Vec<_> = idx.lookup_prefix_range(&sales, lo, hi).collect();
            let via_scan: Vec<_> = tuples
                .iter()
                .filter(|t| {
                    t.get(dep) == Some(&Value::str("sales"))
                        && lo.is_none_or(|(v, inc)| {
                            let x = t.get(age).unwrap();
                            if inc {
                                x >= v
                            } else {
                                x > v
                            }
                        })
                        && hi.is_none_or(|(v, inc)| {
                            let x = t.get(age).unwrap();
                            if inc {
                                x <= v
                            } else {
                                x < v
                            }
                        })
                })
                .collect();
            assert_eq!(via_seek.len(), via_scan.len(), "({lo:?}, {hi:?})");
        }
    }

    #[test]
    fn clones_are_isolated_and_len_is_a_counter() {
        let s = employee_schema();
        let dep = s.attr_id("depname").unwrap();
        let name = s.attr_id("name").unwrap();
        let (ann, bob, cy) = (
            emp("ann", 40, "sales"),
            emp("bob", 30, "sales"),
            emp("cy", 20, "admin"),
        );
        for mut idx in [
            Index::Hash(HashIndex::new(dep)),
            Index::Ord(OrdIndex::new(dep)),
            Index::Composite(CompositeIndex::new(vec![dep, name])),
        ] {
            idx.insert(&ann);
            idx.insert(&bob);
            let snap = idx.clone();
            idx.remove(&ann);
            idx.insert(&cy);
            // Removing what is absent changes nothing, counter included.
            idx.remove(&ann);
            idx.remove(&emp("zed", 1, "admin"));
            assert_eq!(idx.len(), 2, "{:?}", idx.kind());
            assert_eq!(snap.len(), 2, "{:?}", snap.kind());
            let sales = |i: &Index| match i {
                Index::Composite(c) => c.lookup_prefix(&[Value::str("sales")]).count(),
                other => other.lookup(dep, &Value::str("sales")).unwrap().len(),
            };
            assert_eq!(sales(&idx), 1);
            assert_eq!(sales(&snap), 2, "the clone kept its entries");
            // Buckets hold the caller's row handle, not a copy of it.
            let admin = [Value::str("admin")];
            let held = match &idx {
                Index::Composite(c) => c.lookup_prefix(&admin).next().unwrap(),
                other => &other.lookup(dep, &admin[0]).unwrap()[0],
            };
            assert!(std::ptr::eq(held.fields(), cy.fields()));
        }
    }

    #[test]
    fn index_enum_dispatch() {
        let s = employee_schema();
        let dep = s.attr_id("depname").unwrap();
        let name = s.attr_id("name").unwrap();
        let t = emp("ann", 40, "sales");
        for mut idx in [
            Index::Hash(HashIndex::new(dep)),
            Index::Ord(OrdIndex::new(dep)),
            Index::Composite(CompositeIndex::new(vec![dep, name])),
        ] {
            assert!(idx.is_empty());
            idx.insert(&t);
            assert_eq!(idx.len(), 1);
            assert_eq!(idx.attrs()[0], dep);
            match idx.kind() {
                IndexKind::Hash | IndexKind::Ordered => {
                    assert_eq!(idx.lookup(dep, &Value::str("sales")).unwrap().len(), 1);
                    assert!(idx.lookup(name, &Value::str("ann")).is_none());
                }
                IndexKind::Composite => {
                    assert!(idx.lookup(dep, &Value::str("sales")).is_none());
                    assert_eq!(
                        idx.as_composite()
                            .unwrap()
                            .lookup_prefix(&[Value::str("sales")])
                            .count(),
                        1
                    );
                }
            }
            idx.remove(&t);
            assert!(idx.is_empty());
        }
        assert_eq!(IndexKind::Hash.name(), "hash");
        assert_eq!(IndexKind::Ordered.name(), "ordered");
        assert_eq!(IndexKind::Composite.name(), "composite");
    }
}
