//! Per-type statistics feeding the planner's cost model.
//!
//! EMBANKS-style access-path selection needs, per relation: its
//! cardinality; per attribute, how many distinct values occur (equality
//! selectivity ≈ 1/distinct under the uniformity assumption); and — for
//! range predicates — the attribute's min and max, so an interval's
//! selectivity can be interpolated instead of guessed. Collection is
//! exact — extensions here are in-memory — and the engine carries each
//! type's result across epochs in a [`StatisticsCache`], recollecting
//! only the types a mutation changed, so statistics cost is amortised
//! across a query workload and a write pays for what it touched.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use toposem_core::{AttrId, TypeId};
use toposem_extension::{ContainmentPolicy, Database, Relation, Value};
use toposem_obs::{EngineMetrics, FeedbackKey, PredClass, SelectivityFeedback};

use crate::index::Index;
use crate::query::Predicate;

/// Fallback selectivity for a half-open range when the attribute's
/// bounds are unknown or non-numeric (the classic System R guess).
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Bucket budget for equi-depth histograms (fewer when the attribute
/// has fewer rows or heavy duplication collapses fences).
const HISTOGRAM_BUCKETS: usize = 64;

fn histogram_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var("TOPOSEM_HISTOGRAMS")
            .map(|v| !matches!(v.trim(), "0" | "false" | "off"))
            .unwrap_or(true);
        AtomicBool::new(on)
    })
}

/// Whether range estimates consult equi-depth histograms (process-wide;
/// seeded from `TOPOSEM_HISTOGRAMS`, default on). Histograms are still
/// *collected* while disabled — only pricing ignores them — so toggling
/// never requires a statistics rebuild.
pub fn histograms_enabled() -> bool {
    histogram_flag().load(Ordering::Relaxed)
}

/// Enable or disable histogram pricing process-wide. Exists so tests
/// and benchmarks exercising the pure min/max interpolation (or the
/// feedback loop it motivates) can pin their footing without touching
/// process environment.
pub fn set_histograms_enabled(on: bool) {
    histogram_flag().store(on, Ordering::Relaxed)
}

/// Equi-depth histogram over one integer attribute.
///
/// `fences` are strictly-ascending bucket upper bounds sampled at
/// equal-depth positions of the sorted value multiset (duplicates
/// collapse fences, so heavy hitters get narrow buckets); `cum[j]` is
/// the *exact* number of values `<= fences[j]`. Estimation is exact at
/// every fence and linear in value space inside a bucket — so ~1/64 of
/// the rows is the worst-case interpolation error, independent of how
/// skewed the distribution is. That is the whole point: min/max
/// interpolation prices a range by its share of the [min, max] span,
/// which a handful of outliers can stretch arbitrarily.
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
    /// interpolated in value space inside a bucket.
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
            (self.lo - 1, 0)
        } else {
            (self.fences[j - 1], self.cum[j - 1])
        };
        let width = (self.fences[j] - prev_fence) as f64;
        let frac = (x - prev_fence) as f64 / width;
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
    /// Smallest observed value per attribute; `None` when the type lacks
    /// the attribute or the extension is empty.
    pub min: Vec<Option<Value>>,
    /// Largest observed value per attribute.
    pub max: Vec<Option<Value>>,
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
    /// Min and max are tracked by reference and cloned once at the end.
    /// The leading attribute (the type's lowest attribute id) is never
    /// compared row by row: the relation iterates in canonical order,
    /// which sorts tuples by it first, so its distinct count is its
    /// number of runs and its min and max are the first and last values.
    /// Other distinct counts come, in order of preference, from a
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
        let mut min: Vec<Option<&Value>> = vec![None; n_attrs];
        let mut max: Vec<Option<&Value>> = vec![None; n_attrs];
        // Integer value multisets for histograms and distinct counts;
        // `None` marks an attribute with a non-integer value.
        let mut ints: Vec<Option<Vec<i64>>> = vec![Some(Vec::new()); n_attrs];
        let note_int = |ints: &mut Option<Vec<i64>>, v: &Value| match (v, ints) {
            (Value::Int(i), Some(vals)) => vals.push(*i),
            (Value::Int(_), None) => {}
            (_, ints) => *ints = None,
        };
        // Runs of the leading attribute, and its first and latest value —
        // valid while every tuple starts with that attribute.
        let mut lead_runs = Some(0usize);
        let (mut first_lead, mut last_lead): (Option<&Value>, Option<&Value>) = (None, None);
        for t in rel.iter() {
            let mut fields = t.fields();
            if let Some(runs) = &mut lead_runs {
                match fields.split_first() {
                    Some(((a, v), rest)) if Some(*a) == lead => {
                        if last_lead != Some(v) {
                            *runs += 1;
                            first_lead = first_lead.or(Some(v));
                            last_lead = Some(v);
                        }
                        note_int(&mut ints[a.index()], v);
                        fields = rest;
                    }
                    _ => lead_runs = None,
                }
            }
            for (attr, v) in fields {
                let a = attr.index();
                if min[a].is_none_or(|m| v < m) {
                    min[a] = Some(v);
                }
                if max[a].is_none_or(|m| v > m) {
                    max[a] = Some(v);
                }
                note_int(&mut ints[a], v);
            }
        }
        if let Some(l) = lead {
            let l = l.index();
            if lead_runs.is_some() {
                (min[l], max[l]) = (first_lead, last_lead);
            } else {
                // Some tuple does not start with the leading attribute:
                // its earlier values were never compared, so compare all.
                for (_, v) in rel
                    .iter()
                    .flat_map(|t| t.fields())
                    .filter(|(a, _)| a.index() == l)
                {
                    if min[l].is_none_or(|m| v < m) {
                        min[l] = Some(v);
                    }
                    if max[l].is_none_or(|m| v > m) {
                        max[l] = Some(v);
                    }
                }
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
            min: min.into_iter().map(|v| v.cloned()).collect(),
            max: max.into_iter().map(|v| v.cloned()).collect(),
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
        Statistics {
            per_type,
            feedback: None,
            epoch: 0,
        }
    }
}

/// Statistics for every entity type of a database.
///
/// Optionally carries the engine's [`SelectivityFeedback`] cache (plus
/// the statistics epoch it was collected under): when attached, every
/// selectivity and join-cardinality estimate is multiplied by the
/// learned correction for its `(type, attribute, predicate class)` key,
/// so profiled executions steer future plans. Plain
/// [`collect`](Statistics::collect) leaves feedback detached — static
/// estimates only.
#[derive(Clone, Debug)]
pub struct Statistics {
    per_type: Vec<Arc<TypeStats>>,
    feedback: Option<Arc<SelectivityFeedback>>,
    epoch: u64,
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
        Statistics {
            per_type,
            feedback: None,
            epoch: 0,
        }
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
                let mut min: Vec<Option<Value>> = vec![None; n_attrs];
                let mut max: Vec<Option<Value>> = vec![None; n_attrs];
                let mut ints: Vec<Option<Vec<i64>>> = vec![Some(Vec::new()); n_attrs];
                for t in rel.iter() {
                    for (attr, v) in t.fields() {
                        let a = attr.index();
                        if min[a].as_ref().is_none_or(|m| v < m) {
                            min[a] = Some(v.clone());
                        }
                        if max[a].as_ref().is_none_or(|m| v > m) {
                            max[a] = Some(v.clone());
                        }
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
                    min,
                    max,
                    histograms,
                })
            })
            .collect();
        Statistics {
            per_type,
            feedback: None,
            epoch: 0,
        }
    }

    /// The statistics of one type (for comparing two collections).
    pub fn type_stats(&self, e: TypeId) -> &TypeStats {
        &self.per_type[e.index()]
    }

    /// Attach the engine's feedback cache. `epoch` is the statistics
    /// epoch these statistics were collected under; corrections learned
    /// under any other epoch read as neutral.
    pub fn with_feedback(mut self, feedback: Arc<SelectivityFeedback>, epoch: u64) -> Self {
        self.feedback = Some(feedback);
        self.epoch = epoch;
        self
    }

    /// A copy with feedback detached: purely static estimates. Used to
    /// factor an estimate into `static × correction` for explain
    /// output.
    pub fn without_feedback(&self) -> Statistics {
        Statistics {
            per_type: self.per_type.clone(),
            feedback: None,
            epoch: self.epoch,
        }
    }

    /// The statistics epoch these statistics describe (0 when collected
    /// outside an engine).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The learned multiplicative correction for estimates keyed on
    /// `(e, a, class)` — neutral 1.0 when no feedback is attached or
    /// nothing has been learned. `None` for `a` means the estimate has
    /// no single governing attribute (e.g. a key-less cross join).
    pub fn correction(&self, e: TypeId, a: Option<AttrId>, class: PredClass) -> f64 {
        match &self.feedback {
            Some(fb) => fb.correction(
                self.epoch,
                FeedbackKey {
                    ty: e.index() as u32,
                    attr: a.map_or(FeedbackKey::NO_ATTR, |a| a.index() as u32),
                    class,
                },
            ),
            None => 1.0,
        }
    }

    /// Cardinality of `e`'s extension.
    pub fn cardinality(&self, e: TypeId) -> usize {
        self.per_type[e.index()].cardinality
    }

    /// Distinct values of `a` within `e`'s extension.
    pub fn distinct_count(&self, e: TypeId, a: AttrId) -> usize {
        self.per_type[e.index()].distinct[a.index()]
    }

    /// Smallest observed value of `a` within `e`'s extension.
    pub fn min(&self, e: TypeId, a: AttrId) -> Option<&Value> {
        self.per_type[e.index()].min[a.index()].as_ref()
    }

    /// Largest observed value of `a` within `e`'s extension.
    pub fn max(&self, e: TypeId, a: AttrId) -> Option<&Value> {
        self.per_type[e.index()].max[a.index()].as_ref()
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
    /// on `a`: 1/distinct under the uniformity assumption, times any
    /// learned correction (an equality probe for absent values can
    /// legitimately estimate below one row's worth).
    pub fn selectivity(&self, e: TypeId, a: AttrId) -> f64 {
        let stat = 1.0 / self.distinct_count(e, a).max(1) as f64;
        (stat * self.correction(e, Some(a), PredClass::Eq)).min(1.0)
    }

    /// Estimated cardinality of the natural join of two inputs over the
    /// shared attributes `keys`, given each input's (estimated) row
    /// count and its output entity type. Classic System-R shape: every
    /// join key divides the cross product by the larger of the two
    /// sides' distinct counts; for a compound key the *most* selective
    /// attribute alone is charged (taking the product would assume key
    /// attributes independent, which compound keys in practice are not
    /// — distinct(name) already ≈ distinct(name, age)). No shared
    /// attributes means a genuine cross product. `out` is the join's
    /// output entity type: learned cardinality corrections are keyed on
    /// it (stable across build/probe swaps), paired with the dominant
    /// key attribute.
    pub fn join_cardinality(
        &self,
        out: TypeId,
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
        let corr = self.correction(
            out,
            self.dominant_join_key(left, right, keys),
            PredClass::Join,
        );
        // A join cannot produce more than the cross product, however
        // badly an estimate once undershot.
        ((cross / denom) * corr).clamp(0.0, cross)
    }

    /// The join key attribute charged by [`join_cardinality`]'s
    /// System-R estimate: the one with the largest max-side distinct
    /// count (ties to the first). `None` for a key-less cross product.
    /// Shared with the feedback recorder so observations land on the
    /// same key the estimate reads.
    ///
    /// [`join_cardinality`]: Statistics::join_cardinality
    pub fn dominant_join_key(
        &self,
        left: TypeId,
        right: TypeId,
        keys: &[AttrId],
    ) -> Option<AttrId> {
        keys.iter()
            .copied()
            .fold(None, |best: Option<(AttrId, usize)>, a| {
                let d = self
                    .distinct_count(left, a)
                    .max(self.distinct_count(right, a));
                match best {
                    Some((_, bd)) if bd >= d => best,
                    _ => Some((a, d)),
                }
            })
            .map(|(a, _)| a)
    }

    /// Estimated fraction of `e`'s tuples matching `pred` on `a`.
    /// Equality uses 1/distinct; ranges over integer attributes consult
    /// the equi-depth histogram when one exists (and histogram pricing
    /// is enabled), otherwise interpolate against the observed
    /// [min, max] span; anything else falls back to the classic 1/3
    /// guess.
    pub fn pred_selectivity(&self, e: TypeId, a: AttrId, pred: &Predicate) -> f64 {
        if pred.is_empty() {
            return 0.0;
        }
        if pred.as_eq().is_some() {
            return self.selectivity(e, a);
        }
        // Any non-equality predicate is priced as a range; learned
        // corrections multiply on top of whichever static estimate
        // applies, so feedback still composes with histogram pricing.
        let corr = self.correction(e, Some(a), PredClass::Range);
        let stat = 'stat: {
            if histograms_enabled() {
                if let Some(h) = self.histogram(e, a) {
                    break 'stat match pred.int_range() {
                        // The attribute is all-integer; a predicate
                        // admitting no integer matches nothing.
                        None => 0.0,
                        Some((rlo, rhi)) => h
                            .range_fraction(rlo, rhi)
                            // Never estimate below one matching value's
                            // worth.
                            .clamp(1.0 / self.cardinality(e).max(1) as f64, 1.0),
                    };
                }
            }
            let (Some(Value::Int(lo)), Some(Value::Int(hi))) = (self.min(e, a), self.max(e, a))
            else {
                break 'stat DEFAULT_RANGE_SELECTIVITY;
            };
            let (lo, hi) = (*lo as f64, *hi as f64);
            let span = hi - lo;
            if span <= 0.0 {
                // Single observed value: either the predicate admits it
                // or not; split the difference conservatively.
                break 'stat 0.5;
            }
            let bound = |b: Option<(&Value, bool)>, default: f64| match b {
                Some((Value::Int(v), _)) => (*v as f64).clamp(lo, hi),
                Some(_) => default,
                None => default,
            };
            let (plo, phi) = pred.bounds();
            let covered = (bound(phi, hi) - bound(plo, lo)).max(0.0);
            // Never estimate below one matching value's worth.
            (covered / span).clamp(1.0 / self.cardinality(e).max(1) as f64, 1.0)
        };
        (stat * corr).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use toposem_core::{employee_schema, Intension};
    use toposem_extension::{ContainmentPolicy, DomainCatalog, Value};

    /// Serialises tests that toggle (or are sensitive to mid-test
    /// flips of) the process-wide histogram switch.
    fn hist_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

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

    #[test]
    fn skewed_range_priced_by_histogram_not_span() {
        let _g = hist_lock();
        let (db, employee, age) = skewed_db();
        let stats = Statistics::collect(&db, &[]);
        let pred = Predicate::Between(Value::Int(0), Value::Int(4));
        // Histogram pricing sees ~99.9% of rows in the cluster.
        set_histograms_enabled(true);
        let hist = stats.pred_selectivity(employee, age, &pred);
        assert!(hist > 0.9, "histogram estimate too low: {hist}");
        // min/max interpolation prices the same range by its share of
        // the outlier-stretched span — under 4%.
        set_histograms_enabled(false);
        let span = stats.pred_selectivity(employee, age, &pred);
        set_histograms_enabled(true);
        assert!(span < 0.05, "span estimate unexpectedly high: {span}");
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
    fn feedback_composes_with_histogram_pricing() {
        use toposem_obs::FeedbackObservation;
        let _g = hist_lock();
        let (db, employee, age) = skewed_db();
        let fb = Arc::new(SelectivityFeedback::with_enabled(true));
        fb.observe(
            3,
            &[FeedbackObservation {
                keys: vec![FeedbackKey {
                    ty: employee.index() as u32,
                    attr: age.index() as u32,
                    class: PredClass::Range,
                }],
                est_rows: 1_000.0,
                act_rows: 500.0,
            }],
        );
        let plain = Statistics::collect(&db, &[]);
        let steered = plain.clone().with_feedback(fb, 3);
        let pred = Predicate::Between(Value::Int(0), Value::Int(4));
        let stat = plain.pred_selectivity(employee, age, &pred);
        let corrected = steered.pred_selectivity(employee, age, &pred);
        // The learned correction multiplies on top of the histogram
        // estimate. A single moderate (2× band) observation is damped
        // to its square root until confirmed, so one execution of a
        // 0.5× miss steers by √0.5.
        let expect = stat * 0.5_f64.sqrt();
        assert!((corrected - expect).abs() < 1e-9, "{corrected} vs {expect}");
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
        let out = s.type_id("worksfor").unwrap();
        // FK-style join: 90 × 2 / max(distinct depname) = 180 / 3 = 60.
        let fk = stats.join_cardinality(out, employee, 90.0, department, 2.0, &[depname]);
        assert!((fk - 60.0).abs() < 1e-9, "got {fk}");
        // No shared attributes: a genuine cross product.
        let cross = stats.join_cardinality(out, employee, 90.0, department, 2.0, &[]);
        assert!((cross - 180.0).abs() < 1e-9, "got {cross}");
        assert_eq!(stats.dominant_join_key(employee, department, &[]), None);
        // A compound key charges only its most selective attribute
        // (name: 90 distinct dominates age: 30 distinct).
        let compound = stats.join_cardinality(out, employee, 90.0, employee, 90.0, &[name, age]);
        assert!((compound - 90.0).abs() < 1e-9, "got {compound}");
        assert_eq!(
            stats.dominant_join_key(employee, employee, &[age, name]),
            Some(name)
        );
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
        assert_eq!(stats.min(employee, age), Some(&Value::Int(0)));
        assert_eq!(stats.max(employee, age), Some(&Value::Int(99)));
        // A 10% slice of the span estimates near 0.1.
        let sel = stats.pred_selectivity(
            employee,
            age,
            &Predicate::Between(Value::Int(10), Value::Int(20)),
        );
        assert!((0.05..0.2).contains(&sel), "got {sel}");
        // An unbounded-below range covering ~half the span.
        let half = stats.pred_selectivity(employee, age, &Predicate::Lt(Value::Int(50)));
        assert!((0.4..0.6).contains(&half), "got {half}");
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

    #[test]
    fn attached_feedback_corrects_estimates() {
        use toposem_obs::FeedbackObservation;

        let _g = hist_lock();
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
        let fb = Arc::new(SelectivityFeedback::with_enabled(true));
        // Pretend a profiled run saw a 10× overestimate on age ranges.
        fb.observe(
            5,
            &[FeedbackObservation {
                keys: vec![FeedbackKey {
                    ty: employee.index() as u32,
                    attr: age.index() as u32,
                    class: PredClass::Range,
                }],
                est_rows: 1_000.0,
                act_rows: 100.0,
            }],
        );
        let plain = Statistics::collect(&db, &[]);
        let steered = plain.clone().with_feedback(Arc::clone(&fb), 5);
        let pred = Predicate::Lt(Value::Int(50));
        let stat = plain.pred_selectivity(employee, age, &pred);
        let corrected = steered.pred_selectivity(employee, age, &pred);
        assert!(
            (corrected - stat * 0.1).abs() < 1e-9,
            "{corrected} vs {stat}"
        );
        // The static view is recoverable for est×corr factoring.
        let refactored = steered
            .without_feedback()
            .pred_selectivity(employee, age, &pred);
        assert!((refactored - stat).abs() < 1e-9);
        // A different epoch reads as neutral: corrections never survive
        // a stats bump.
        let stale = plain.clone().with_feedback(fb, 6);
        assert!((stale.pred_selectivity(employee, age, &pred) - stat).abs() < 1e-9);
    }
}
