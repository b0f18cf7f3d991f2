//! Per-type statistics feeding the planner's cost model.
//!
//! EMBANKS-style access-path selection needs, per relation: its
//! cardinality; per attribute, how many distinct values occur (equality
//! selectivity ≈ 1/distinct under the uniformity assumption); and — for
//! range predicates over integer attributes — an equi-depth histogram,
//! so an interval is priced by where the values lie. Collection is
//! exact — extensions here are in-memory — and the engine carries each
//! type's result across epochs in a [`StatisticsCache`], recollecting
//! only the types a mutation changed, so statistics cost is amortised
//! across a query workload and a write pays for what it touched.

use std::sync::Arc;
use std::time::Instant;

use toposem_core::{AttrId, TypeId};
use toposem_extension::{ContainmentPolicy, Database, Relation, Value};
use toposem_obs::EngineMetrics;

use crate::index::Index;
use crate::query::Predicate;

/// Selectivity of a range over an attribute without a histogram — a
/// non-integer attribute or an empty extension (the classic System R
/// guess).
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Bucket budget for equi-depth histograms (fewer when the attribute
/// has fewer rows or heavy duplication collapses fences).
const HISTOGRAM_BUCKETS: usize = 64;

/// Equi-depth histogram over one integer attribute.
///
/// `fences` are strictly-ascending bucket upper bounds sampled at
/// equal-depth positions of the sorted value multiset (duplicates
/// collapse fences, so heavy hitters get narrow buckets); `cum[j]` is
/// the *exact* number of values `<= fences[j]`. Estimation is exact at
/// every fence and linear in value space inside a bucket — so ~1/64 of
/// the rows is the worst-case interpolation error, independent of how
/// skewed the distribution is. A range's share of the [min, max] span,
/// which a handful of outliers can stretch arbitrarily, plays no part.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Smallest value in the multiset (implicit lower fence).
    lo: i64,
    /// Strictly ascending bucket upper bounds; last is the max value.
    fences: Vec<i64>,
    /// Exact count of values `<= fences[j]`; last is `n`.
    cum: Vec<u64>,
    /// Total values (rows with the attribute).
    n: u64,
}

impl Histogram {
    /// Build from the sorted multiset of an attribute's values.
    /// Returns `None` for an empty multiset.
    fn build(sorted: &[i64]) -> Option<Histogram> {
        if sorted.is_empty() {
            return None;
        }
        let b = HISTOGRAM_BUCKETS.min(sorted.len());
        let mut fences: Vec<i64> = Vec::with_capacity(b);
        for i in 0..b {
            let f = sorted[(i + 1) * sorted.len() / b - 1];
            if fences.last() != Some(&f) {
                fences.push(f);
            }
        }
        let cum = fences
            .iter()
            .map(|f| sorted.partition_point(|v| v <= f) as u64)
            .collect();
        Some(Histogram {
            lo: sorted[0],
            fences,
            cum,
            n: sorted.len() as u64,
        })
    }

    /// Estimated number of values `<= x`: exact at fences, linearly
    /// interpolated in value space inside a bucket. Bucket bounds are
    /// widened to `i128`, since a bucket may span most of the `i64`
    /// range and the one below `i64::MIN` is not an `i64`.
    fn est_leq(&self, x: i64) -> f64 {
        if x < self.lo {
            return 0.0;
        }
        let last = *self.fences.last().expect("non-empty histogram");
        if x >= last {
            return self.n as f64;
        }
        // First bucket whose fence admits x; x < last so j is in range.
        let j = self.fences.partition_point(|f| *f < x);
        let (prev_fence, prev_cum) = if j == 0 {
            (i128::from(self.lo) - 1, 0)
        } else {
            (i128::from(self.fences[j - 1]), self.cum[j - 1])
        };
        let width = (i128::from(self.fences[j]) - prev_fence) as f64;
        let frac = (i128::from(x) - prev_fence) as f64 / width;
        prev_cum as f64 + frac * (self.cum[j] - prev_cum) as f64
    }

    /// Estimated fraction of values in the inclusive range `[rlo, rhi]`.
    pub fn range_fraction(&self, rlo: i64, rhi: i64) -> f64 {
        let below = if rlo == i64::MIN {
            0.0
        } else {
            self.est_leq(rlo - 1)
        };
        ((self.est_leq(rhi) - below) / self.n.max(1) as f64).clamp(0.0, 1.0)
    }
}

/// Statistics of one entity type's extension.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeStats {
    /// Cardinality of the semantic extension.
    pub cardinality: usize,
    /// Distinct value counts, indexed by `AttrId::index()`; zero for
    /// attributes outside the type.
    pub distinct: Vec<usize>,
    /// Equi-depth histograms, indexed by `AttrId::index()`; present only
    /// for attributes whose observed values are all integers.
    pub histograms: Vec<Option<Histogram>>,
}

/// The distinct count a single-attribute index of `e` offers for `attr`.
/// The index mirrors the stored relation `R_e`, a subset of the
/// extension (equal to it under eager maintenance): when the sizes
/// agree the two are the same set and the count is exact; otherwise
/// the index is no use.
fn index_distinct(type_indexes: &[Index], attr: AttrId, rows: usize) -> Option<usize> {
    type_indexes.iter().find_map(|i| match i {
        Index::Hash(h) if h.attr() == attr && h.len() == rows => Some(h.distinct_values()),
        Index::Ord(o) if o.attr() == attr && o.len() == rows => Some(o.distinct_values()),
        _ => None,
    })
}

/// Number of runs of equal values in a sorted sequence.
fn runs(sorted: &[i64]) -> usize {
    sorted.chunk_by(|a, b| a == b).count()
}

impl TypeStats {
    /// Exact statistics of `e`'s extension `rel`, in one pass over the
    /// tuples plus a hash pass per attribute nothing cheaper can count.
    ///
    /// The relation iterates in canonical order, which sorts tuples by
    /// the leading attribute (the type's lowest attribute id) first, so
    /// that attribute's distinct count is its number of runs. Other
    /// distinct counts come, in order of preference, from a
    /// single-attribute index, from the sorted integer values the
    /// histogram is built from, and only then from hashing.
    fn collect(
        schema: &toposem_core::Schema,
        e: TypeId,
        rel: &Relation,
        type_indexes: &[Index],
    ) -> TypeStats {
        let n_attrs = schema.attr_count();
        let attrs = schema.attrs_of(e);
        let lead = attrs.iter().next().map(|a| AttrId(a as u32));
        // Integer value multisets for histograms and distinct counts;
        // `None` marks an attribute with a non-integer value.
        let mut ints: Vec<Option<Vec<i64>>> = vec![Some(Vec::new()); n_attrs];
        let note_int = |ints: &mut Option<Vec<i64>>, v: &Value| match (v, ints) {
            (Value::Int(i), Some(vals)) => vals.push(*i),
            (Value::Int(_), None) => {}
            (_, ints) => *ints = None,
        };
        // Runs of the leading attribute and its latest value — valid
        // while every tuple starts with that attribute.
        let mut lead_runs = Some(0usize);
        let mut last_lead: Option<&Value> = None;
        for t in rel.iter() {
            let fields = t.fields();
            if let Some(runs) = &mut lead_runs {
                match fields.first() {
                    Some((a, v)) if Some(*a) == lead => {
                        if last_lead != Some(v) {
                            *runs += 1;
                            last_lead = Some(v);
                        }
                    }
                    _ => lead_runs = None,
                }
            }
            for (attr, v) in fields {
                note_int(&mut ints[attr.index()], v);
            }
        }
        let mut distinct = vec![0usize; n_attrs];
        let mut histograms = Vec::with_capacity(n_attrs);
        for (a, vals) in ints.into_iter().enumerate() {
            let attr = AttrId(a as u32);
            let sorted = vals.map(|mut vals| {
                vals.sort_unstable();
                vals
            });
            if attrs.contains(a) {
                distinct[a] = index_distinct(type_indexes, attr, rel.len())
                    .or_else(|| sorted.as_ref().map(|vals| runs(vals)))
                    .or(lead_runs.filter(|_| Some(attr) == lead))
                    .unwrap_or_else(|| rel.distinct_count(attr));
            }
            histograms.push(sorted.and_then(|vals| Histogram::build(&vals)));
        }
        TypeStats {
            cardinality: rel.len(),
            distinct,
            histograms,
        }
    }
}

/// What one type's statistics depend on: the version stamp of every
/// stored relation its extension reads — `R_e` under eager maintenance,
/// every `R_s` with `s ∈ S_e` under on-demand. Indexes need no part in
/// it: an index mirrors `R_e ⊆ ext(e)`, so its distinct-count shortcut
/// is taken only when the two are the same set, and then it is exact.
fn versions_read(db: &Database, e: TypeId) -> Vec<u64> {
    match db.policy() {
        ContainmentPolicy::Eager => vec![db.stored(e).version()],
        ContainmentPolicy::OnDemand => db
            .intension()
            .specialisation()
            .s_set(e)
            .iter()
            .map(|s| db.stored(TypeId(s as u32)).version())
            .collect(),
    }
}

/// Per-type statistics carried across epochs. One cache serves an
/// engine's live state and every snapshot of it: a type is recollected
/// only when a relation its extension reads changed, so a commit that
/// touched `person` costs one `person` pass, not a pass over the whole
/// database.
///
/// Reuse is keyed on [`Relation::version`] stamps, never on `Arc`
/// identity — a relation nobody shares is mutated in place, keeping its
/// allocation while its contents change.
#[derive(Debug, Default)]
pub(crate) struct StatisticsCache {
    per_type: Vec<Option<(Vec<u64>, Arc<TypeStats>)>>,
}

impl StatisticsCache {
    /// Statistics for `db` and `indexes`, reusing every type whose
    /// inputs are unchanged since it was last collected. Records the
    /// collect time and the reused/collected type counts in `metrics`.
    pub(crate) fn statistics(
        &mut self,
        db: &Database,
        indexes: &[Vec<Index>],
        metrics: &EngineMetrics,
    ) -> Statistics {
        let t0 = Instant::now();
        let schema = db.schema();
        self.per_type.resize(schema.type_count(), None);
        let mut collected = 0;
        let per_type = schema
            .type_ids()
            .map(|e| {
                let key = versions_read(db, e);
                let slot = &mut self.per_type[e.index()];
                match slot {
                    Some((k, stats)) if *k == key => Arc::clone(stats),
                    _ => {
                        collected += 1;
                        let type_indexes = indexes.get(e.index()).map(Vec::as_slice).unwrap_or(&[]);
                        let rel = db.extension_cow(e);
                        let stats = Arc::new(TypeStats::collect(schema, e, &rel, type_indexes));
                        *slot = Some((key, Arc::clone(&stats)));
                        stats
                    }
                }
            })
            .collect();
        let reused = schema.type_count() - collected;
        metrics.stats_types_reused.add(reused as u64);
        metrics.stats_types_collected.add(collected as u64);
        if collected > 0 {
            metrics
                .stats_collect_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        Statistics { per_type }
    }
}

/// Statistics for every entity type of a database.
#[derive(Clone, Debug)]
pub struct Statistics {
    per_type: Vec<Arc<TypeStats>>,
}

impl Statistics {
    /// Collects exact statistics. Single-attribute indexes shortcut the
    /// distinct count of their attribute; other attributes are counted
    /// from the extension.
    pub fn collect(db: &Database, indexes: &[Vec<Index>]) -> Statistics {
        let schema = db.schema();
        let per_type = schema
            .type_ids()
            .map(|e| {
                let type_indexes = indexes.get(e.index()).map(Vec::as_slice).unwrap_or(&[]);
                Arc::new(TypeStats::collect(
                    schema,
                    e,
                    &db.extension_cow(e),
                    type_indexes,
                ))
            })
            .collect();
        Statistics { per_type }
    }

    /// The single-pass collector [`Statistics::collect`] replaced, kept
    /// verbatim as the reference the carried-statistics oracle compares
    /// against field by field. Not for production use.
    #[doc(hidden)]
    pub fn collect_reference(db: &Database, indexes: &[Vec<Index>]) -> Statistics {
        let schema = db.schema();
        let n_attrs = schema.attr_count();
        let per_type = schema
            .type_ids()
            .map(|e| {
                let rel = db.extension_cow(e);
                let mut distinct = vec![0usize; n_attrs];
                let mut ints: Vec<Option<Vec<i64>>> = vec![Some(Vec::new()); n_attrs];
                for t in rel.iter() {
                    for (attr, v) in t.fields() {
                        let a = attr.index();
                        match (v, &mut ints[a]) {
                            (Value::Int(i), Some(vals)) => vals.push(*i),
                            (Value::Int(_), None) => {}
                            _ => ints[a] = None,
                        }
                    }
                }
                let histograms = ints
                    .into_iter()
                    .map(|vals| {
                        let mut vals = vals?;
                        vals.sort_unstable();
                        Histogram::build(&vals)
                    })
                    .collect();
                let type_indexes = indexes.get(e.index()).map(Vec::as_slice).unwrap_or(&[]);
                for a in schema.attrs_of(e).iter() {
                    let attr = AttrId(a as u32);
                    let shortcut = type_indexes.iter().find_map(|i| match i {
                        Index::Hash(h) if h.attr() == attr && h.len() == rel.len() => {
                            Some(h.distinct_values())
                        }
                        Index::Ord(o) if o.attr() == attr && o.len() == rel.len() => {
                            Some(o.distinct_values())
                        }
                        _ => None,
                    });
                    distinct[a] = match shortcut {
                        Some(d) => d,
                        None => rel.distinct_count(attr),
                    };
                }
                Arc::new(TypeStats {
                    cardinality: rel.len(),
                    distinct,
                    histograms,
                })
            })
            .collect();
        Statistics { per_type }
    }

    /// The statistics of one type (for comparing two collections).
    pub fn type_stats(&self, e: TypeId) -> &TypeStats {
        &self.per_type[e.index()]
    }

    /// Cardinality of `e`'s extension.
    pub fn cardinality(&self, e: TypeId) -> usize {
        self.per_type[e.index()].cardinality
    }

    /// Distinct values of `a` within `e`'s extension.
    pub fn distinct_count(&self, e: TypeId, a: AttrId) -> usize {
        self.per_type[e.index()].distinct[a.index()]
    }

    /// Equi-depth histogram of `a` within `e`'s extension, when every
    /// observed value of `a` is an integer and the extension is
    /// non-empty.
    pub fn histogram(&self, e: TypeId, a: AttrId) -> Option<&Histogram> {
        self.per_type[e.index()]
            .histograms
            .get(a.index())
            .and_then(Option::as_ref)
    }

    /// Estimated fraction of `e`'s tuples matching an equality predicate
    /// on `a`: 1/distinct under the uniformity assumption.
    pub fn selectivity(&self, e: TypeId, a: AttrId) -> f64 {
        1.0 / self.distinct_count(e, a).max(1) as f64
    }

    /// Estimated cardinality of the natural join of two inputs over the
    /// shared attributes `keys`, given each input's (estimated) row
    /// count and its output entity type. Classic System-R shape: every
    /// join key divides the cross product by the larger of the two
    /// sides' distinct counts; for a compound key the *most* selective
    /// attribute alone is charged (taking the product would assume key
    /// attributes independent, which compound keys in practice are not
    /// — distinct(name) already ≈ distinct(name, age)). No shared
    /// attributes means a genuine cross product.
    pub fn join_cardinality(
        &self,
        left: TypeId,
        left_rows: f64,
        right: TypeId,
        right_rows: f64,
        keys: &[AttrId],
    ) -> f64 {
        let cross = left_rows * right_rows;
        let denom = keys
            .iter()
            .map(|a| {
                self.distinct_count(left, *a)
                    .max(self.distinct_count(right, *a))
                    .max(1) as f64
            })
            .fold(1.0_f64, f64::max);
        cross / denom
    }

    /// Estimated fraction of `e`'s tuples matching `pred` on `a`. The
    /// attribute's values pick the rule: equality uses 1/distinct, a
    /// range over an integer attribute reads its equi-depth histogram,
    /// and any other range takes the classic 1/3 guess.
    pub fn pred_selectivity(&self, e: TypeId, a: AttrId, pred: &Predicate) -> f64 {
        if pred.is_empty() {
            return 0.0;
        }
        if pred.as_eq().is_some() {
            return self.selectivity(e, a);
        }
        let Some(h) = self.histogram(e, a) else {
            return DEFAULT_RANGE_SELECTIVITY;
        };
        match pred.int_range() {
            // The attribute is all-integer; a predicate admitting no
            // integer matches nothing.
            None => 0.0,
            Some((rlo, rhi)) => h
                .range_fraction(rlo, rhi)
                // Never estimate below one matching value's worth.
                .clamp(1.0 / self.cardinality(e).max(1) as f64, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toposem_core::{employee_schema, Intension};
    use toposem_extension::{ContainmentPolicy, DomainCatalog, Value};

    fn skewed_db() -> (Database, TypeId, AttrId) {
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        // 999 rows clustered in ages [0, 4], one outlier at 150: the
        // [min, max] span is 30× wider than where the data lives.
        for i in 0..1000i64 {
            let a = if i == 999 { 150 } else { i % 5 };
            db.insert_fields(
                employee,
                &[
                    ("name", Value::str(&format!("p{i}"))),
                    ("age", Value::Int(a)),
                    ("depname", Value::str("sales")),
                ],
            )
            .unwrap();
        }
        (db, employee, age)
    }

    #[test]
    fn histogram_exact_at_fences_and_bounded_inside_buckets() {
        let mut vals: Vec<i64> = (0..999).map(|i| i % 10).collect();
        vals.push(1_000_000);
        vals.sort_unstable();
        let h = Histogram::build(&vals).unwrap();
        // The cluster holds 999/1000 of the mass; the outlier almost
        // nothing — regardless of the million-wide value span.
        let cluster = h.range_fraction(0, 9);
        assert!(cluster > 0.95, "got {cluster}");
        let hole = h.range_fraction(10, 999_999);
        assert!(hole < 0.05, "got {hole}");
        // Full-domain and out-of-domain ranges are exact.
        assert_eq!(h.range_fraction(i64::MIN, i64::MAX), 1.0);
        assert_eq!(h.range_fraction(2_000_000, 3_000_000), 0.0);
        assert_eq!(h.range_fraction(i64::MIN, -1), 0.0);
        // Every fence is an exact cut point.
        for (f, c) in h.fences.iter().zip(&h.cum) {
            let est = h.est_leq(*f);
            assert!((est - *c as f64).abs() < 1e-9, "fence {f}: {est} vs {c}");
        }
    }

    #[test]
    fn histogram_handles_tiny_and_constant_multisets() {
        assert_eq!(Histogram::build(&[]), None);
        let one = Histogram::build(&[7]).unwrap();
        assert_eq!(one.range_fraction(7, 7), 1.0);
        assert_eq!(one.range_fraction(8, 9), 0.0);
        // All-equal values collapse to a single fence.
        let flat = Histogram::build(&[5; 100]).unwrap();
        assert_eq!(flat.fences.len(), 1);
        assert_eq!(flat.range_fraction(5, 5), 1.0);
        assert_eq!(flat.range_fraction(0, 4), 0.0);
    }

    /// Every bucket arithmetic step stays in range when the values sit
    /// at the ends of `i64`: the bucket below `i64::MIN`, and one
    /// spanning from a negative value to `i64::MAX`.
    #[test]
    fn histogram_survives_extreme_integers() {
        let low = Histogram::build(&[i64::MIN, 0, 5]).unwrap();
        assert_eq!(low.est_leq(i64::MIN), 1.0);
        assert_eq!(low.est_leq(0), 2.0);
        let f = low.range_fraction(0, 10);
        assert!((0.0..=1.0).contains(&f), "got {f}");
        assert_eq!(low.range_fraction(i64::MIN, i64::MAX), 1.0);
        let high = Histogram::build(&[-5, i64::MAX]).unwrap();
        assert_eq!(high.est_leq(-5), 1.0);
        let f = high.range_fraction(0, 10);
        assert!((0.0..=1.0).contains(&f), "got {f}");
        assert_eq!(high.range_fraction(i64::MIN, i64::MAX), 1.0);

        // The same through the statistics layer: `budget` accepts any
        // integer, and a range over it is priced by the histogram.
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        let manager = s.type_id("manager").unwrap();
        let budget = s.attr_id("budget").unwrap();
        for (n, b) in [("ann", -5), ("bob", i64::MAX)] {
            db.insert_fields(
                manager,
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(40)),
                    ("depname", Value::str("sales")),
                    ("budget", Value::Int(b)),
                ],
            )
            .unwrap();
        }
        let stats = Statistics::collect(&db, &[]);
        let sel = stats.pred_selectivity(
            manager,
            budget,
            &Predicate::Between(Value::Int(0), Value::Int(10)),
        );
        assert!((0.5..=1.0).contains(&sel), "got {sel}");
    }

    #[test]
    fn skewed_range_priced_by_histogram_not_span() {
        let (db, employee, age) = skewed_db();
        let stats = Statistics::collect(&db, &[]);
        let pred = Predicate::Between(Value::Int(0), Value::Int(4));
        // The histogram sees ~99.9% of rows in the cluster, where the
        // range's share of the outlier-stretched span is under 4%.
        let hist = stats.pred_selectivity(employee, age, &pred);
        assert!(hist > 0.9, "histogram estimate too low: {hist}");
        // A range covering only the hole prices near zero with the
        // histogram (floored at one row's worth).
        let hole = stats.pred_selectivity(
            employee,
            age,
            &Predicate::Between(Value::Int(20), Value::Int(140)),
        );
        assert!(hole < 0.02, "got {hole}");
        // A predicate admitting no integers prices as empty on an
        // all-integer attribute.
        let none = stats.pred_selectivity(employee, age, &Predicate::Gt(Value::str("zzz")));
        assert_eq!(none, 0.0);
    }

    #[test]
    fn collect_counts_cardinality_and_distincts() {
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        let employee = s.type_id("employee").unwrap();
        for (n, a, d) in [
            ("ann", 40, "sales"),
            ("bob", 30, "sales"),
            ("carol", 30, "research"),
        ] {
            db.insert_fields(
                employee,
                &[
                    ("name", Value::str(n)),
                    ("age", Value::Int(a)),
                    ("depname", Value::str(d)),
                ],
            )
            .unwrap();
        }
        let stats = Statistics::collect(&db, &[]);
        assert_eq!(stats.cardinality(employee), 3);
        assert_eq!(
            stats.distinct_count(employee, s.attr_id("name").unwrap()),
            3
        );
        assert_eq!(stats.distinct_count(employee, s.attr_id("age").unwrap()), 2);
        assert_eq!(
            stats.distinct_count(employee, s.attr_id("depname").unwrap()),
            2
        );
        let sel = stats.selectivity(employee, s.attr_id("depname").unwrap());
        assert!((sel - 0.5).abs() < 1e-9);
        // An attribute outside the type has no distincts.
        assert_eq!(
            stats.distinct_count(employee, s.attr_id("budget").unwrap()),
            0
        );
    }

    #[test]
    fn join_cardinality_divides_by_the_dominant_key() {
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        let employee = s.type_id("employee").unwrap();
        let department = s.type_id("department").unwrap();
        let depname = s.attr_id("depname").unwrap();
        let name = s.attr_id("name").unwrap();
        let age = s.attr_id("age").unwrap();
        for i in 0..90i64 {
            db.insert_fields(
                employee,
                &[
                    ("name", Value::str(&format!("p{i}"))),
                    ("age", Value::Int(i % 30)),
                    (
                        "depname",
                        Value::str(["sales", "research", "admin"][(i % 3) as usize]),
                    ),
                ],
            )
            .unwrap();
        }
        for (d, l) in [("sales", "amsterdam"), ("research", "utrecht")] {
            db.insert_fields(
                department,
                &[("depname", Value::str(d)), ("location", Value::str(l))],
            )
            .unwrap();
        }
        let stats = Statistics::collect(&db, &[]);
        // FK-style join: 90 × 2 / max(distinct depname) = 180 / 3 = 60.
        let fk = stats.join_cardinality(employee, 90.0, department, 2.0, &[depname]);
        assert!((fk - 60.0).abs() < 1e-9, "got {fk}");
        // No shared attributes: a genuine cross product.
        let cross = stats.join_cardinality(employee, 90.0, department, 2.0, &[]);
        assert!((cross - 180.0).abs() < 1e-9, "got {cross}");
        // A compound key charges only its most selective attribute
        // (name: 90 distinct dominates age: 30 distinct).
        let compound = stats.join_cardinality(employee, 90.0, employee, 90.0, &[name, age]);
        assert!((compound - 90.0).abs() < 1e-9, "got {compound}");
    }

    #[test]
    fn min_max_and_range_selectivity() {
        let mut db = Database::new(
            Intension::analyse(employee_schema()),
            DomainCatalog::employee_defaults(),
            ContainmentPolicy::Eager,
        );
        let s = db.schema().clone();
        let employee = s.type_id("employee").unwrap();
        let age = s.attr_id("age").unwrap();
        for i in 0..100i64 {
            db.insert_fields(
                employee,
                &[
                    ("name", Value::str(&format!("p{i}"))),
                    ("age", Value::Int(i)),
                    ("depname", Value::str("sales")),
                ],
            )
            .unwrap();
        }
        let stats = Statistics::collect(&db, &[]);
        // The histogram of 100 distinct ages is exact at its fences, so
        // an 11-value slice estimates within a bucket of 0.11.
        let sel = stats.pred_selectivity(
            employee,
            age,
            &Predicate::Between(Value::Int(10), Value::Int(20)),
        );
        assert!((sel - 0.11).abs() < 0.02, "got {sel}");
        // An unbounded-below range covering half the rows.
        let half = stats.pred_selectivity(employee, age, &Predicate::Lt(Value::Int(50)));
        assert!((half - 0.5).abs() < 0.02, "got {half}");
        // Past both ends of the data the histogram is exact.
        let all = stats.pred_selectivity(employee, age, &Predicate::Ge(Value::Int(0)));
        assert_eq!(all, 1.0);
        let below = stats.pred_selectivity(employee, age, &Predicate::Lt(Value::Int(0)));
        assert_eq!(below, 0.01, "floored at one row's worth");
        // Equality defers to 1/distinct.
        let eq = stats.pred_selectivity(employee, age, &Predicate::Eq(Value::Int(7)));
        assert!((eq - 0.01).abs() < 1e-9, "got {eq}");
        // An inverted Between is provably empty.
        assert_eq!(
            stats.pred_selectivity(
                employee,
                age,
                &Predicate::Between(Value::Int(9), Value::Int(1))
            ),
            0.0
        );
        // Non-numeric attributes fall back to the default guess.
        let name = s.attr_id("name").unwrap();
        let guess = stats.pred_selectivity(employee, name, &Predicate::Ge(Value::str("p5")));
        assert!((guess - DEFAULT_RANGE_SELECTIVITY).abs() < 1e-9);
    }
}
