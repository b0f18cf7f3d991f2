//! Physical plans: property-aware operator selection and join ordering.
//!
//! Planning walks the rewritten [`Logical`] tree bottom-up, but instead of
//! a single plan per node it derives a *candidate set*: alternative
//! physical plans annotated with their cost and their **output ordering**
//! ([`SortKeys`]), pruned to the non-dominated frontier (a candidate
//! survives when no cheaper candidate provides at least its order). Orders
//! originate at access paths — `IndexRangeSeek` and `CompositeSeek` walk
//! BTrees in key order, and a `SeqScan` streams the canonical
//! `BTreeSet`-backed relation in attribute-id-lexicographic order — and
//! are propagated through order-preserving operators (`Filter`, `Project`
//! prefixes, hash-join probe sides). A **`MergeJoin`** consumes matching
//! orders from both inputs; a **`Sort`** enforcer (n·log n) establishes an
//! order only when no candidate carries one cheaply enough. Order
//! matching is *equality-aware*: an attribute pinned by an equality
//! predicate is constant across the input, so it is skipped in both the
//! available and the required key sequence before the prefix check
//! ([`order_satisfies_with_bound`]).
//!
//! Multi-way joins are reordered by a **DPsize** dynamic program over the
//! *sanctioned* join lattice: a subset of relations is combinable only
//! when its attribute union is itself a declared entity type (the
//! Relationship Axiom survives into physical planning). Each DP entry
//! keeps its non-dominated (cost, order) frontier, so a merge-join
//!-friendly order can win the final plan even when locally more
//! expensive. Above [`PlannerOptions::dp_max_leaves`] relations the
//! enumeration falls back to a greedy cheapest-pair heuristic.
//!
//! Execution is a push-based batch pipeline: scans emit
//! [`BATCH_SIZE`]-tuple batches into operator sinks; hash joins
//! materialise their build side, merge joins and sorts their inputs
//! (see [`crate::exec`]).

use std::collections::BTreeSet;

use toposem_core::{AttrId, TypeId};
use toposem_extension::{Database, Value};
use toposem_storage::{Index, Interval, Predicate, SortDir, SortKeys, Statistics};

use crate::cost::{estimate, Estimate};
use crate::logical::Logical;

/// Tuples per executor batch.
pub const BATCH_SIZE: usize = 1024;

/// Hard ceiling on the DP enumeration width, whatever
/// [`PlannerOptions::dp_max_leaves`] asks for: the subset table holds
/// 2^n frontiers and the masks are `u32`, so wider joins must take the
/// greedy path instead of overflowing.
const DP_LEAF_HARD_CAP: usize = 16;

/// Planner knobs. The defaults enable everything; benchmarks and the
/// differential oracle switch individual features off to compare plans
/// (e.g. the left-deep hash-join baseline in `q3_join_order`).
#[derive(Clone, Copy, Debug)]
pub struct PlannerOptions {
    /// Reorder >2-way joins (DPsize up to `dp_max_leaves`, greedy above).
    pub reorder_joins: bool,
    /// Consider `MergeJoin` (with `Sort` enforcers when order is absent).
    pub merge_joins: bool,
    /// Largest relation count the DP enumerates exhaustively.
    pub dp_max_leaves: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            reorder_joins: true,
            merge_joins: true,
            dp_max_leaves: 8,
        }
    }
}

/// A physical operator tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Physical {
    /// Produces nothing.
    Empty {
        /// Result type.
        ty: TypeId,
    },
    /// Full scan of an extension with a fused conjunctive filter. Emits
    /// the canonical relation order: tuples ascend lexicographically by
    /// attribute id, then value.
    SeqScan {
        /// Scanned type.
        ty: TypeId,
        /// Fused predicates (may be empty).
        preds: Vec<(AttrId, Predicate)>,
    },
    /// Single-attribute index point lookup (hash or ordered index) with a
    /// residual filter.
    IndexSeek {
        /// Scanned type.
        ty: TypeId,
        /// Indexed attribute.
        attr: AttrId,
        /// Sought value.
        value: Value,
        /// Predicates not covered by the index.
        residual: Vec<(AttrId, Predicate)>,
    },
    /// Ordered-index range seek: walks only the BTree range between the
    /// bounds (`(value, inclusive)`; `None` = unbounded). Unbounded on
    /// both sides it is the *ordered full scan* — chosen when the order
    /// it emits pays downstream.
    IndexRangeSeek {
        /// Scanned type.
        ty: TypeId,
        /// Indexed attribute.
        attr: AttrId,
        /// Lower bound.
        lo: Option<(Value, bool)>,
        /// Upper bound.
        hi: Option<(Value, bool)>,
        /// Predicates not covered by the range.
        residual: Vec<(AttrId, Predicate)>,
    },
    /// Composite-index seek: equality constants for a prefix of the
    /// index's attribute list, optionally extended by a *range* on the
    /// next key attribute, select one contiguous key range.
    CompositeSeek {
        /// Scanned type.
        ty: TypeId,
        /// The index's full attribute list (identifies the index).
        attrs: Vec<AttrId>,
        /// Equality constants for `attrs[..prefix.len()]`.
        prefix: Vec<Value>,
        /// Range on `attrs[prefix.len()]`, when one was consumed.
        suffix: Option<Interval>,
        /// Predicates not covered by the prefix or suffix.
        residual: Vec<(AttrId, Predicate)>,
    },
    /// Index-only (covering) scan: the projection target's attributes are
    /// all index key attributes, so results are built from index keys
    /// without touching base tuples.
    IndexOnlyScan {
        /// Scanned (base) type.
        ty: TypeId,
        /// Projection target (a generalisation of `ty`).
        to: TypeId,
        /// The covering index's attribute list (identifies the index).
        key_attrs: Vec<AttrId>,
        /// Whether the backing index walks its keys in order (ordered /
        /// composite, not hash) — the executor must then pick an ordered
        /// index and the output carries the key order.
        ordered: bool,
        /// Predicates over key attributes, evaluated on the keys.
        preds: Vec<(AttrId, Predicate)>,
    },
    /// Batch-wise conjunctive filter over a composite input (filters over
    /// plain scans are fused into the scan instead). Order-preserving.
    Filter {
        /// Input operator.
        input: Box<Physical>,
        /// Conjunction of predicates.
        preds: Vec<(AttrId, Predicate)>,
    },
    /// Projection onto a generalisation. Preserves the prefix of the
    /// input order whose attributes survive the projection.
    Project {
        /// Input operator.
        input: Box<Physical>,
        /// Target type.
        to: TypeId,
    },
    /// Hash join; `build` is materialised into a hash table keyed on the
    /// shared attributes, `probe` streams (probe order is preserved).
    HashJoin {
        /// Materialised side (chosen smaller by cost).
        build: Box<Physical>,
        /// Streaming side.
        probe: Box<Physical>,
        /// Shared attributes (the natural-join key), in id order.
        keys: Vec<AttrId>,
        /// Declared output type.
        ty: TypeId,
    },
    /// Merge join: both inputs arrive sorted on `keys` (ascending); equal
    /// key groups are matched pairwise. Output is sorted on `keys`.
    MergeJoin {
        /// Left input (sorted on `keys`).
        left: Box<Physical>,
        /// Right input (sorted on `keys`).
        right: Box<Physical>,
        /// Shared attributes (the natural-join key), in id order.
        keys: Vec<AttrId>,
        /// Declared output type.
        ty: TypeId,
    },
    /// Sort enforcer: materialises its input and emits it ordered by
    /// `keys`. Inserted only when a required order is not otherwise
    /// available (or cheaper to establish than to carry).
    Sort {
        /// Input operator.
        input: Box<Physical>,
        /// Sort keys, applied left to right.
        keys: SortKeys,
    },
    /// Bag concatenation; the final set collection deduplicates.
    Union {
        /// Left input.
        left: Box<Physical>,
        /// Right input.
        right: Box<Physical>,
        /// Result type.
        ty: TypeId,
    },
    /// Set intersection; `build` is materialised into a membership set
    /// (probe order is preserved).
    Intersect {
        /// Materialised side (chosen smaller by cost).
        build: Box<Physical>,
        /// Streaming side.
        probe: Box<Physical>,
        /// Result type.
        ty: TypeId,
    },
}

impl Physical {
    /// The entity type of this operator's output.
    pub fn ty(&self) -> TypeId {
        match self {
            Physical::Empty { ty }
            | Physical::SeqScan { ty, .. }
            | Physical::IndexSeek { ty, .. }
            | Physical::IndexRangeSeek { ty, .. }
            | Physical::CompositeSeek { ty, .. }
            | Physical::HashJoin { ty, .. }
            | Physical::MergeJoin { ty, .. }
            | Physical::Union { ty, .. }
            | Physical::Intersect { ty, .. } => *ty,
            Physical::Filter { input, .. } | Physical::Sort { input, .. } => input.ty(),
            Physical::IndexOnlyScan { to, .. } | Physical::Project { to, .. } => *to,
        }
    }

    /// The physical property this operator guarantees of its output: the
    /// sort keys its tuples ascend by (empty = no guaranteed order).
    ///
    /// Orders are born at ordered access paths (BTree walks, the
    /// canonical `BTreeSet` relation order behind `SeqScan`) and at
    /// `Sort`/`MergeJoin`; `Filter` passes its input order through,
    /// `Project` keeps the prefix that survives the projection, and
    /// `HashJoin`/`Intersect` preserve their *probe* side (probe tuples
    /// stream in order and keep their attribute values in the merged
    /// output).
    pub fn ordering(&self, db: &Database) -> SortKeys {
        let schema = db.schema();
        let asc = |attrs: &[AttrId]| attrs.iter().map(|a| (*a, SortDir::Asc)).collect();
        match self {
            Physical::Empty { .. } | Physical::Union { .. } => Vec::new(),
            // Relations are BTreeSets of instances whose fields sort by
            // attribute id, so a full scan ascends lexicographically by
            // every attribute of the type, in id order.
            Physical::SeqScan { ty, .. } => schema
                .attrs_of(*ty)
                .iter()
                .map(|a| (AttrId(a as u32), SortDir::Asc))
                .collect(),
            Physical::IndexSeek { attr, .. } | Physical::IndexRangeSeek { attr, .. } => {
                vec![(*attr, SortDir::Asc)]
            }
            Physical::CompositeSeek { attrs, .. } => asc(attrs),
            Physical::IndexOnlyScan {
                to,
                key_attrs,
                ordered,
                ..
            } => {
                if *ordered {
                    let target = schema.attrs_of(*to);
                    key_attrs
                        .iter()
                        .take_while(|a| target.contains(a.index()))
                        .map(|a| (*a, SortDir::Asc))
                        .collect()
                } else {
                    Vec::new()
                }
            }
            Physical::Filter { input, .. } => input.ordering(db),
            Physical::Project { input, to } => {
                let target = schema.attrs_of(*to);
                input
                    .ordering(db)
                    .into_iter()
                    .take_while(|(a, _)| target.contains(a.index()))
                    .collect()
            }
            Physical::HashJoin { probe, .. } | Physical::Intersect { probe, .. } => {
                probe.ordering(db)
            }
            Physical::MergeJoin { keys, .. } => asc(keys),
            Physical::Sort { keys, .. } => keys.clone(),
        }
    }

    /// Attributes this operator holds *constant*: an equality predicate
    /// somewhere below pins every emitted tuple to the same value. A
    /// constant attribute is order-trivial — any output order sorts by
    /// it in any direction — so it may be skipped when matching a
    /// required order prefix (see [`order_satisfies_with_bound`]).
    ///
    /// The set is conservative: joins propagate both sides (joined
    /// tuples keep their constituents' values), `Union` propagates
    /// nothing (the two branches may pin different values), and
    /// attributes projected away are harmless to keep — they can no
    /// longer appear in an order requirement over the output type.
    pub fn eq_bound_attrs(&self) -> BTreeSet<AttrId> {
        fn eq_preds(preds: &[(AttrId, Predicate)], out: &mut BTreeSet<AttrId>) {
            for (a, p) in preds {
                if p.as_eq().is_some() {
                    out.insert(*a);
                }
            }
        }
        let mut out = BTreeSet::new();
        match self {
            Physical::Empty { .. } | Physical::Union { .. } => {}
            Physical::SeqScan { preds, .. } | Physical::IndexOnlyScan { preds, .. } => {
                eq_preds(preds, &mut out)
            }
            Physical::IndexSeek { attr, residual, .. } => {
                out.insert(*attr);
                eq_preds(residual, &mut out);
            }
            Physical::IndexRangeSeek { residual, .. } => eq_preds(residual, &mut out),
            Physical::CompositeSeek {
                attrs,
                prefix,
                suffix,
                residual,
                ..
            } => {
                out.extend(attrs[..prefix.len()].iter().copied());
                // A degenerate range suffix `[v, v]` pins its attribute
                // just like an equality prefix entry would.
                if let Some(iv) = suffix {
                    if let (Some((l, true)), Some((h, true))) = (&iv.lo, &iv.hi) {
                        if l == h {
                            out.insert(attrs[prefix.len()]);
                        }
                    }
                }
                eq_preds(residual, &mut out);
            }
            Physical::Filter { input, preds } => {
                out = input.eq_bound_attrs();
                eq_preds(preds, &mut out);
            }
            Physical::Project { input, .. } | Physical::Sort { input, .. } => {
                out = input.eq_bound_attrs()
            }
            Physical::HashJoin { build, probe, .. } | Physical::Intersect { build, probe, .. } => {
                out = build.eq_bound_attrs();
                out.extend(probe.eq_bound_attrs());
            }
            Physical::MergeJoin { left, right, .. } => {
                out = left.eq_bound_attrs();
                out.extend(right.eq_bound_attrs());
            }
        }
        out
    }

    /// Whether this operator can never emit the same tuple twice, so an
    /// ordered execution may append its output without a dedup pass.
    ///
    /// Access paths read a relation (a set) or an index over one, where
    /// each stored tuple appears once. `Filter` and `Sort` keep their
    /// input's property, `Intersect` its probe's (it emits a subset of
    /// the probe). A natural join of two duplicate-free inputs is
    /// duplicate-free: a joined tuple projects back onto exactly one
    /// input pair. `Project`, `Union`, and `IndexOnlyScan` (which
    /// projects index keys) can repeat tuples.
    pub(crate) fn duplicate_free(&self) -> bool {
        match self {
            Physical::Empty { .. }
            | Physical::SeqScan { .. }
            | Physical::IndexSeek { .. }
            | Physical::IndexRangeSeek { .. }
            | Physical::CompositeSeek { .. } => true,
            Physical::Filter { input, .. } | Physical::Sort { input, .. } => input.duplicate_free(),
            Physical::Intersect { probe, .. } => probe.duplicate_free(),
            Physical::HashJoin {
                build: a, probe: b, ..
            }
            | Physical::MergeJoin {
                left: a, right: b, ..
            } => a.duplicate_free() && b.duplicate_free(),
            Physical::Project { .. } | Physical::Union { .. } | Physical::IndexOnlyScan { .. } => {
                false
            }
        }
    }

    /// Renders the plan as an indented EXPLAIN tree with estimates.
    pub fn explain(&self, db: &Database, stats: &Statistics) -> String {
        let mut out = String::new();
        self.explain_into(db, stats, 0, &mut out);
        out
    }

    fn explain_into(&self, db: &Database, stats: &Statistics, depth: usize, out: &mut String) {
        let Estimate { rows, cost } = estimate(self, stats);
        let pad = "  ".repeat(depth);
        let line = self.describe(db);
        out.push_str(&format!("{pad}{line}  (rows≈{rows:.1}, cost≈{cost:.1})\n"));
        for child in self.children() {
            child.explain_into(db, stats, depth + 1, out);
        }
    }

    /// The operator's direct children, in the order `explain` renders
    /// them. Profiling relies on this order: node ids are assigned
    /// pre-order (root = 0, then each child's subtree depth-first).
    pub fn children(&self) -> Vec<&Physical> {
        match self {
            Physical::Filter { input, .. }
            | Physical::Project { input, .. }
            | Physical::Sort { input, .. } => vec![input],
            Physical::HashJoin { build, probe, .. } | Physical::Intersect { build, probe, .. } => {
                vec![build, probe]
            }
            Physical::MergeJoin { left, right, .. } | Physical::Union { left, right, .. } => {
                vec![left, right]
            }
            _ => Vec::new(),
        }
    }

    /// Number of operators in this subtree, itself included.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Renders this operator's one-line description (the `explain` line
    /// without the cost annotations).
    pub fn describe(&self, db: &Database) -> String {
        let schema = db.schema();
        let render_preds = |preds: &[(AttrId, Predicate)]| {
            preds
                .iter()
                .map(|(a, p)| format!("{} {}", schema.attr_name(*a), p))
                .collect::<Vec<_>>()
                .join(" ∧ ")
        };
        let render_range = |lo: &Option<(Value, bool)>, hi: &Option<(Value, bool)>| {
            let lo_s = match lo {
                Some((v, true)) => format!("[{v}"),
                Some((v, false)) => format!("({v}"),
                None => "(-∞".to_owned(),
            };
            let hi_s = match hi {
                Some((v, true)) => format!("{v}]"),
                Some((v, false)) => format!("{v})"),
                None => "+∞)".to_owned(),
            };
            format!("{lo_s}, {hi_s}")
        };
        let render_attrs = |attrs: &[AttrId]| {
            attrs
                .iter()
                .map(|a| schema.attr_name(*a))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Physical::Empty { ty } => format!("Empty [{}]", schema.type_name(*ty)),
            Physical::SeqScan { ty, preds } if preds.is_empty() => {
                format!("SeqScan {}", schema.type_name(*ty))
            }
            Physical::SeqScan { ty, preds } => {
                format!(
                    "SeqScan {} filter {}",
                    schema.type_name(*ty),
                    render_preds(preds)
                )
            }
            Physical::IndexSeek {
                ty,
                attr,
                value,
                residual,
            } => {
                let mut s = format!(
                    "IndexSeek {}.{} = {}",
                    schema.type_name(*ty),
                    schema.attr_name(*attr),
                    value
                );
                if !residual.is_empty() {
                    s.push_str(&format!(" residual {}", render_preds(residual)));
                }
                s
            }
            Physical::IndexRangeSeek {
                ty,
                attr,
                lo,
                hi,
                residual,
            } => {
                let mut s = format!(
                    "IndexRangeSeek {}.{} ∈ {}",
                    schema.type_name(*ty),
                    schema.attr_name(*attr),
                    render_range(lo, hi)
                );
                if !residual.is_empty() {
                    s.push_str(&format!(" residual {}", render_preds(residual)));
                }
                s
            }
            Physical::CompositeSeek {
                ty,
                attrs,
                prefix,
                suffix,
                residual,
            } => {
                let vals = prefix
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let mut s = format!(
                    "CompositeSeek {}({}) prefix = ({vals})",
                    schema.type_name(*ty),
                    render_attrs(attrs),
                );
                if let Some(iv) = suffix {
                    s.push_str(&format!(
                        " range {} ∈ {}",
                        schema.attr_name(attrs[prefix.len()]),
                        render_range(&iv.lo, &iv.hi)
                    ));
                }
                if !residual.is_empty() {
                    s.push_str(&format!(" residual {}", render_preds(residual)));
                }
                s
            }
            Physical::IndexOnlyScan {
                ty,
                to,
                key_attrs,
                preds,
                ..
            } => {
                let mut s = format!(
                    "IndexOnlyScan {}({}) → {}",
                    schema.type_name(*ty),
                    render_attrs(key_attrs),
                    schema.type_name(*to)
                );
                if !preds.is_empty() {
                    s.push_str(&format!(" filter {}", render_preds(preds)));
                }
                s
            }
            Physical::Filter { preds, .. } => format!("Filter {}", render_preds(preds)),
            Physical::Project { to, .. } => format!("Project → {}", schema.type_name(*to)),
            Physical::HashJoin { ty, keys, .. } => format!(
                "HashJoin [{}] on ({})",
                schema.type_name(*ty),
                render_attrs(keys)
            ),
            Physical::MergeJoin { ty, keys, .. } => format!(
                "MergeJoin [{}] on ({})",
                schema.type_name(*ty),
                render_attrs(keys)
            ),
            Physical::Sort { keys, .. } => {
                let ks = keys
                    .iter()
                    .map(|(a, d)| format!("{} {d}", schema.attr_name(*a)))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("Sort by ({ks})")
            }
            Physical::Union { ty, .. } => format!("Union [{}]", schema.type_name(*ty)),
            Physical::Intersect { ty, .. } => {
                format!("Intersect [{}]", schema.type_name(*ty))
            }
        }
    }
}

/// Does an available ordering `avail` satisfy a required one? Required
/// keys must form a prefix of the available keys, directions included.
pub fn order_satisfies(avail: &[(AttrId, SortDir)], req: &[(AttrId, SortDir)]) -> bool {
    req.len() <= avail.len() && avail[..req.len()] == *req
}

/// [`order_satisfies`] modulo a set of equality-*bound* attributes: a
/// bound attribute is constant across the input, so a required key on
/// it is satisfied by any order (in either direction), and an available
/// key on it adds no real grouping — both sides are filtered down to
/// their unbound keys before the prefix check. This is what lets a
/// composite walk of `(depname, age)` under `depname = 'sales'` serve
/// `ORDER BY age` without a `Sort` enforcer.
pub fn order_satisfies_with_bound(
    avail: &[(AttrId, SortDir)],
    req: &[(AttrId, SortDir)],
    bound: &BTreeSet<AttrId>,
) -> bool {
    if bound.is_empty() {
        return order_satisfies(avail, req);
    }
    let unbound = |keys: &[(AttrId, SortDir)]| -> SortKeys {
        keys.iter()
            .filter(|(a, _)| !bound.contains(a))
            .copied()
            .collect()
    };
    order_satisfies(&unbound(avail), &unbound(req))
}

/// One candidate plan: a physical tree plus its estimated cost/rows and
/// the output order it guarantees.
#[derive(Clone, Debug)]
struct Cand {
    phys: Physical,
    rows: f64,
    cost: f64,
    order: SortKeys,
}

impl Cand {
    fn new(phys: Physical, db: &Database, stats: &Statistics) -> Cand {
        let Estimate { rows, cost } = estimate(&phys, stats);
        let order = phys.ordering(db);
        Cand {
            phys,
            rows,
            cost,
            order,
        }
    }
}

/// `a` makes `b` redundant: at most as expensive, at least as ordered.
fn dominates(a: &Cand, b: &Cand) -> bool {
    a.cost <= b.cost && order_satisfies(&a.order, &b.order)
}

/// Reduces a candidate set to its non-dominated frontier (first survivor
/// wins ties, so pruning is deterministic).
fn prune(cands: Vec<Cand>) -> Vec<Cand> {
    let mut out: Vec<Cand> = Vec::new();
    'next: for c in cands {
        for kept in &out {
            if dominates(kept, &c) {
                continue 'next;
            }
        }
        out.retain(|kept| !dominates(&c, kept));
        out.push(c);
    }
    out
}

/// The cheapest candidate (sets are non-empty by construction).
fn cheapest(cands: &[Cand]) -> &Cand {
    cands
        .iter()
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
        .expect("candidate sets are non-empty")
}

/// Compiles a rewritten logical plan into a physical plan, choosing
/// access paths, join orders, and join algorithms by cost under the
/// default [`PlannerOptions`].
pub fn plan(
    logical: &Logical,
    db: &Database,
    indexes: &[Vec<Index>],
    stats: &Statistics,
) -> Physical {
    plan_with(logical, db, indexes, stats, &PlannerOptions::default())
}

/// [`plan`] with explicit [`PlannerOptions`] — benchmarks and tests use
/// this to pin a baseline (e.g. no reordering, hash joins only).
pub fn plan_with(
    logical: &Logical,
    db: &Database,
    indexes: &[Vec<Index>],
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Physical {
    let cands = candidates(logical, db, indexes, stats, opts);
    cheapest(&cands).phys.clone()
}

/// The non-dominated candidate set for a logical node.
fn candidates(
    logical: &Logical,
    db: &Database,
    indexes: &[Vec<Index>],
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Vec<Cand> {
    let cand = |p: Physical| Cand::new(p, db, stats);
    match logical {
        Logical::Empty { ty } => vec![cand(Physical::Empty { ty: *ty })],
        Logical::Scan { ty } => scan_candidates(*ty, &[], db, indexes, stats),
        Logical::Select { input, preds } => match input.as_ref() {
            // Access-path selection happens where a filter meets a scan.
            Logical::Scan { ty } => scan_candidates(*ty, preds, db, indexes, stats),
            // The rewrite pass pushes selections to the leaves, so a
            // residual filter over a composite input is rare; it wraps
            // every input candidate (Filter preserves order).
            _ => prune(
                candidates(input, db, indexes, stats, opts)
                    .into_iter()
                    .map(|c| {
                        cand(Physical::Filter {
                            input: Box::new(c.phys),
                            preds: preds.clone(),
                        })
                    })
                    .collect(),
            ),
        },
        Logical::Project { input, to } => {
            let mut out: Vec<Cand> = candidates(input, db, indexes, stats, opts)
                .into_iter()
                .map(|c| {
                    cand(Physical::Project {
                        input: Box::new(c.phys),
                        to: *to,
                    })
                })
                .collect();
            // A covering index can answer the projection from its keys
            // alone when the target's attributes (and every predicate)
            // are key attributes: an index-only scan.
            let (ty, preds): (TypeId, &[(AttrId, Predicate)]) = match input.as_ref() {
                Logical::Scan { ty } => (*ty, &[]),
                Logical::Select {
                    input: sel_in,
                    preds,
                } => match sel_in.as_ref() {
                    Logical::Scan { ty } => (*ty, preds.as_slice()),
                    _ => return prune(out),
                },
                _ => return prune(out),
            };
            out.extend(
                index_only_paths(ty, *to, preds, db, indexes)
                    .into_iter()
                    .map(cand),
            );
            prune(out)
        }
        Logical::Join { .. } => join_candidates(logical, db, indexes, stats, opts),
        Logical::Union { left, right } => {
            let ty = left.ty();
            let l = candidates(left, db, indexes, stats, opts);
            let r = candidates(right, db, indexes, stats, opts);
            vec![cand(Physical::Union {
                left: Box::new(cheapest(&l).phys.clone()),
                right: Box::new(cheapest(&r).phys.clone()),
                ty,
            })]
        }
        Logical::Intersect { left, right } => {
            let ty = left.ty();
            let l = candidates(left, db, indexes, stats, opts);
            let r = candidates(right, db, indexes, stats, opts);
            let (lc, rc) = (cheapest(&l), cheapest(&r));
            let (build, probe) = if lc.rows <= rc.rows {
                (lc, rc)
            } else {
                (rc, lc)
            };
            vec![cand(Physical::Intersect {
                build: Box::new(build.phys.clone()),
                probe: Box::new(probe.phys.clone()),
                ty,
            })]
        }
        Logical::OrderBy { input, keys } => {
            let inner = candidates(input, db, indexes, stats, opts);
            // Candidates already carrying the required order pass
            // through; the cheapest overall gets a Sort enforcer. The
            // frontier then decides whether carrying the order (perhaps
            // via a pricier access path) beats establishing it.
            let sorted = cand(Physical::Sort {
                input: Box::new(cheapest(&inner).phys.clone()),
                keys: keys.clone(),
            });
            let mut out: Vec<Cand> = inner
                .into_iter()
                .filter(|c| order_satisfies_with_bound(&c.order, keys, &c.phys.eq_bound_attrs()))
                .collect();
            out.push(sorted);
            prune(out)
        }
    }
}

/// Indexes mirror *stored* relations, which equal semantic extensions
/// only under eager containment — every index path refuses otherwise.
fn indexes_usable<'a>(ty: TypeId, db: &Database, indexes: &'a [Vec<Index>]) -> Option<&'a [Index]> {
    if db.policy() != toposem_extension::ContainmentPolicy::Eager {
        return None;
    }
    indexes.get(ty.index()).map(Vec::as_slice)
}

/// Candidate access paths for a conjunctive selection over a scan: the
/// fused sequential scan, every index path the predicates can use, and —
/// for ordered/composite indexes the predicates *cannot* use — the
/// ordered full walk with the whole conjunction residual, which exists
/// purely for the order it emits.
fn scan_candidates(
    ty: TypeId,
    preds: &[(AttrId, Predicate)],
    db: &Database,
    indexes: &[Vec<Index>],
    stats: &Statistics,
) -> Vec<Cand> {
    let cand = |p: Physical| Cand::new(p, db, stats);
    let mut out = vec![cand(Physical::SeqScan {
        ty,
        preds: preds.to_vec(),
    })];
    let Some(type_indexes) = indexes_usable(ty, db, indexes) else {
        return prune(out);
    };
    for idx in type_indexes {
        let candidate = match idx {
            Index::Hash(h) => hash_path(ty, h.attr(), preds),
            Index::Ord(o) => ord_path(ty, o.attr(), preds).or(Some(Physical::IndexRangeSeek {
                ty,
                attr: o.attr(),
                lo: None,
                hi: None,
                residual: preds.to_vec(),
            })),
            Index::Composite(c) => {
                composite_path(ty, c.attrs(), preds).or(Some(Physical::CompositeSeek {
                    ty,
                    attrs: c.attrs().to_vec(),
                    prefix: Vec::new(),
                    suffix: None,
                    residual: preds.to_vec(),
                }))
            }
        };
        if let Some(c) = candidate {
            out.push(cand(c));
        }
    }
    prune(out)
}

/// A hash point seek when some equality predicate targets the hash
/// index's attribute.
fn hash_path(ty: TypeId, attr: AttrId, preds: &[(AttrId, Predicate)]) -> Option<Physical> {
    let (i, value) = preds
        .iter()
        .enumerate()
        .find_map(|(i, (a, p))| (*a == attr).then(|| p.as_eq().map(|v| (i, v.clone())))?)?;
    let mut residual = preds.to_vec();
    residual.remove(i);
    Some(Physical::IndexSeek {
        ty,
        attr,
        value,
        residual,
    })
}

/// An ordered-index path: all predicates on the indexed attribute are
/// intersected into one [`toposem_storage::Interval`] (the same
/// bound-merge the rewriter's emptiness proof uses); a degenerate
/// `[v, v]` becomes a point seek, anything else a range seek. Remaining
/// predicates stay residual.
fn ord_path(ty: TypeId, attr: AttrId, preds: &[(AttrId, Predicate)]) -> Option<Physical> {
    let (on_attr, residual): (Vec<_>, Vec<_>) =
        preds.iter().cloned().partition(|(a, _)| *a == attr);
    if on_attr.is_empty() {
        return None;
    }
    let mut interval = Interval::full();
    for (_, p) in &on_attr {
        interval.tighten(p);
    }
    if let (Some((l, true)), Some((h, true))) = (&interval.lo, &interval.hi) {
        if l == h {
            return Some(Physical::IndexSeek {
                ty,
                attr,
                value: l.clone(),
                residual,
            });
        }
    }
    Some(Physical::IndexRangeSeek {
        ty,
        attr,
        lo: interval.lo,
        hi: interval.hi,
        residual,
    })
}

/// A composite seek: the longest prefix of the index's attribute list
/// whose every attribute carries an equality predicate, optionally
/// extended by the intersected *range* predicates on the next key
/// attribute (equality prefix + range suffix address one contiguous
/// composite key range). Consumed predicates are dropped; everything
/// else stays residual.
fn composite_path(ty: TypeId, attrs: &[AttrId], preds: &[(AttrId, Predicate)]) -> Option<Physical> {
    let mut prefix = Vec::new();
    let mut consumed = vec![false; preds.len()];
    for key_attr in attrs {
        let hit = preds
            .iter()
            .enumerate()
            .find_map(|(i, (a, p))| (a == key_attr).then(|| p.as_eq().map(|v| (i, v.clone())))?);
        match hit {
            Some((i, v)) => {
                prefix.push(v);
                consumed[i] = true;
            }
            None => break,
        }
    }
    let mut suffix = None;
    if let Some(next) = attrs.get(prefix.len()) {
        let mut interval = Interval::full();
        let mut any = false;
        for (i, (a, p)) in preds.iter().enumerate() {
            if a == next && !consumed[i] {
                interval.tighten(p);
                consumed[i] = true;
                any = true;
            }
        }
        if any {
            suffix = Some(interval);
        }
    }
    if prefix.is_empty() && suffix.is_none() {
        return None;
    }
    let residual: Vec<_> = preds
        .iter()
        .enumerate()
        .filter(|(i, _)| !consumed[*i])
        .map(|(_, p)| p.clone())
        .collect();
    Some(Physical::CompositeSeek {
        ty,
        attrs: attrs.to_vec(),
        prefix,
        suffix,
        residual,
    })
}

/// Index-only scans for `π_to(σ_preds(ty))`: one per index whose key
/// attributes cover both the projection target and every predicate.
fn index_only_paths(
    ty: TypeId,
    to: TypeId,
    preds: &[(AttrId, Predicate)],
    db: &Database,
    indexes: &[Vec<Index>],
) -> Vec<Physical> {
    let Some(type_indexes) = indexes_usable(ty, db, indexes) else {
        return Vec::new();
    };
    let schema = db.schema();
    let target = schema.attrs_of(to);
    type_indexes
        .iter()
        .filter_map(|idx| {
            let key_attrs = idx.attrs();
            let covers_target = target.iter().all(|a| key_attrs.contains(&AttrId(a as u32)));
            let covers_preds = preds.iter().all(|(a, _)| key_attrs.contains(a));
            (covers_target && covers_preds).then(|| Physical::IndexOnlyScan {
                ty,
                to,
                key_attrs,
                ordered: !matches!(idx, Index::Hash(_)),
                preds: preds.to_vec(),
            })
        })
        .collect()
}

/// The shared attributes (natural-join key) of two types, in id order.
fn shared_keys(db: &Database, a: TypeId, b: TypeId) -> Vec<AttrId> {
    let schema = db.schema();
    schema
        .attrs_of(a)
        .intersection(schema.attrs_of(b))
        .iter()
        .map(|i| AttrId(i as u32))
        .collect()
}

/// Joins two candidate sets into the candidate set of their join:
/// hash-join variants pairing each side's order-carrying candidates with
/// the other side's cheapest (the probe side's order survives), plus —
/// when the sides share attributes — a merge join whose inputs either
/// carry the key order already or get a `Sort` enforcer, whichever is
/// cheaper per side.
fn join_pair(
    lc: &[Cand],
    rc: &[Cand],
    ty: TypeId,
    keys: &[AttrId],
    db: &Database,
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Vec<Cand> {
    let cand = |p: Physical| Cand::new(p, db, stats);
    let mut out = Vec::new();
    let lbest = cheapest(lc);
    let rbest = cheapest(rc);
    let hash = |a: &Cand, b: &Cand| {
        let (build, probe) = if a.rows <= b.rows { (a, b) } else { (b, a) };
        Physical::HashJoin {
            build: Box::new(build.phys.clone()),
            probe: Box::new(probe.phys.clone()),
            keys: keys.to_vec(),
            ty,
        }
    };
    for r in rc {
        out.push(cand(hash(lbest, r)));
    }
    for l in lc {
        out.push(cand(hash(l, rbest)));
    }
    if opts.merge_joins && !keys.is_empty() {
        // A merge join is an equi-join on the whole key set, so *any*
        // ordering of the keys works as long as both sides sort by the
        // same one: an index ordered (b, a) satisfies an (a, b) join
        // without a Sort. Emit one candidate per key permutation (both
        // sides sharing it) and let pruning keep the non-dominated ones.
        for perm in key_orders(keys) {
            let req: SortKeys = perm.iter().map(|a| (*a, SortDir::Asc)).collect();
            let sorted_input = |side: &[Cand]| -> Physical {
                // Cheapest candidate already in order, or the cheapest
                // overall behind a Sort enforcer — whichever estimates
                // lower.
                let enforced = cand(Physical::Sort {
                    input: Box::new(cheapest(side).phys.clone()),
                    keys: req.clone(),
                });
                match side
                    .iter()
                    .filter(|c| {
                        order_satisfies_with_bound(&c.order, &req, &c.phys.eq_bound_attrs())
                    })
                    .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
                {
                    Some(carried) if carried.cost <= enforced.cost => carried.phys.clone(),
                    _ => enforced.phys,
                }
            };
            out.push(cand(Physical::MergeJoin {
                left: Box::new(sorted_input(lc)),
                right: Box::new(sorted_input(rc)),
                keys: perm,
                ty,
            }));
        }
    }
    prune(out)
}

/// Key orderings a merge join may sort by: every permutation for up to
/// three keys, only the canonical order above that (k! candidates per
/// join would bloat the frontier for wide compound keys, which rarely
/// have a matching index order anyway).
fn key_orders(keys: &[AttrId]) -> Vec<Vec<AttrId>> {
    if keys.len() > 3 {
        return vec![keys.to_vec()];
    }
    fn rec(ks: &mut Vec<AttrId>, i: usize, out: &mut Vec<Vec<AttrId>>) {
        if i + 1 >= ks.len() {
            out.push(ks.clone());
            return;
        }
        for j in i..ks.len() {
            ks.swap(i, j);
            rec(ks, i + 1, out);
            ks.swap(i, j);
        }
    }
    let mut orders = Vec::new();
    rec(&mut keys.to_vec(), 0, &mut orders);
    orders
}

/// Collects the non-join leaves of a join tree, left to right.
fn flatten_joins<'a>(node: &'a Logical, out: &mut Vec<&'a Logical>) {
    if let Logical::Join { left, right, .. } = node {
        flatten_joins(left, out);
        flatten_joins(right, out);
    } else {
        out.push(node);
    }
}

/// Candidates for a join tree: DPsize reordering over the sanctioned
/// subset lattice when enabled and small enough, a greedy cheapest-pair
/// heuristic above the DP budget, and the tree as written otherwise
/// (also the fallback when the heuristics cannot complete — the
/// as-written nesting is sanctioned by construction).
fn join_candidates(
    node: &Logical,
    db: &Database,
    indexes: &[Vec<Index>],
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Vec<Cand> {
    let Logical::Join { left, right, ty } = node else {
        unreachable!("join_candidates takes a join node");
    };
    if opts.reorder_joins {
        let mut leaves = Vec::new();
        flatten_joins(node, &mut leaves);
        if leaves.len() > 2 {
            let leaf_cands: Vec<Vec<Cand>> = leaves
                .iter()
                .map(|l| candidates(l, db, indexes, stats, opts))
                .collect();
            let leaf_tys: Vec<TypeId> = leaves.iter().map(|l| l.ty()).collect();
            // `dp_max_leaves` is a public knob; the DP's u32 subset masks
            // (and its 2^n entry table) cap it hard regardless of what
            // the caller asked for — wider joins go greedy.
            let dp_cap = opts.dp_max_leaves.min(DP_LEAF_HARD_CAP);
            let reordered = if leaves.len() <= dp_cap {
                dp_join(&leaf_cands, &leaf_tys, db, stats, opts)
            } else {
                greedy_join(&leaf_cands, &leaf_tys, db, stats, opts)
            };
            if let Some(cands) = reordered {
                return cands;
            }
        }
    }
    // As written: left then right, one binary join.
    let lc = candidates(left, db, indexes, stats, opts);
    let rc = candidates(right, db, indexes, stats, opts);
    let keys = shared_keys(db, left.ty(), right.ty());
    join_pair(&lc, &rc, *ty, &keys, db, stats, opts)
}

/// The declared entity type covering a set of joined types, if any —
/// the sanction check that gates every DP/greedy combination.
fn union_type(db: &Database, tys: &[TypeId]) -> Option<TypeId> {
    let schema = db.schema();
    let mut union = schema.attrs_of(tys[0]).clone();
    for t in &tys[1..] {
        union.union_with(schema.attrs_of(*t));
    }
    schema.type_ids().find(|t| schema.attrs_of(*t) == &union)
}

/// DPsize join enumeration: for every sanctioned subset of the leaves,
/// in order of subset size, the non-dominated (cost, order) frontier
/// over all ways of splitting it into two smaller sanctioned subsets.
/// Returns the full set's frontier (always reachable: the as-written
/// nesting is one of the enumerated splits).
fn dp_join(
    leaf_cands: &[Vec<Cand>],
    leaf_tys: &[TypeId],
    db: &Database,
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Option<Vec<Cand>> {
    let n = leaf_cands.len();
    let full: u32 = (1u32 << n) - 1;
    let mut entries: Vec<Option<(TypeId, Vec<Cand>)>> = vec![None; (full + 1) as usize];
    for i in 0..n {
        entries[1 << i] = Some((leaf_tys[i], leaf_cands[i].clone()));
    }
    let mut masks: Vec<u32> = (1..=full).filter(|m| m.count_ones() >= 2).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        let tys: Vec<TypeId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| leaf_tys[i])
            .collect();
        let Some(ty) = union_type(db, &tys) else {
            continue;
        };
        let mut acc: Vec<Cand> = Vec::new();
        // Every unordered split {s, mask\s} with both halves planned.
        let mut s = (mask - 1) & mask;
        while s > 0 {
            let t = mask ^ s;
            if s < t {
                if let (Some((sty, sc)), Some((tty, tc))) =
                    (&entries[s as usize], &entries[t as usize])
                {
                    let keys = shared_keys(db, *sty, *tty);
                    acc.extend(join_pair(sc, tc, ty, &keys, db, stats, opts));
                }
            }
            s = (s - 1) & mask;
        }
        if !acc.is_empty() {
            entries[mask as usize] = Some((ty, prune(acc)));
        }
    }
    entries[full as usize].take().map(|(_, cands)| cands)
}

/// Greedy fallback for joins too wide for the DP: repeatedly fuse the
/// sanctioned pair whose join is cheapest, until one plan remains.
/// Returns `None` when no sanctioned pair exists at some step (the
/// caller then compiles the tree as written).
fn greedy_join(
    leaf_cands: &[Vec<Cand>],
    leaf_tys: &[TypeId],
    db: &Database,
    stats: &Statistics,
    opts: &PlannerOptions,
) -> Option<Vec<Cand>> {
    let mut pool: Vec<(TypeId, Vec<Cand>)> = leaf_tys
        .iter()
        .copied()
        .zip(leaf_cands.iter().cloned())
        .collect();
    while pool.len() > 1 {
        let mut best: Option<(usize, usize, TypeId, Vec<Cand>)> = None;
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                let Some(ty) = union_type(db, &[pool[i].0, pool[j].0]) else {
                    continue;
                };
                let keys = shared_keys(db, pool[i].0, pool[j].0);
                let joined = join_pair(&pool[i].1, &pool[j].1, ty, &keys, db, stats, opts);
                let cost = cheapest(&joined).cost;
                if best
                    .as_ref()
                    .is_none_or(|(_, _, _, b)| cost < cheapest(b).cost)
                {
                    best = Some((i, j, ty, joined));
                }
            }
        }
        let (i, j, ty, joined) = best?;
        // Remove the higher index first so the lower stays valid.
        pool.remove(j);
        pool.remove(i);
        pool.push((ty, joined));
    }
    pool.pop().map(|(_, cands)| cands)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(ty: u32) -> Box<Physical> {
        Box::new(Physical::SeqScan {
            ty: TypeId(ty),
            preds: Vec::new(),
        })
    }

    fn project(input: Box<Physical>) -> Box<Physical> {
        Box::new(Physical::Project {
            input,
            to: TypeId(9),
        })
    }

    /// Pins the property for every operator: access paths over sets are
    /// duplicate-free, `Project`/`Union`/`IndexOnlyScan` are not, and
    /// every composite operator derives it from exactly the inputs the
    /// doc comment names.
    #[test]
    fn duplicate_free_per_operator() {
        let ty = TypeId(0);
        let a = AttrId(0);
        let leaves = [
            Physical::Empty { ty },
            *scan(0),
            Physical::IndexSeek {
                ty,
                attr: a,
                value: Value::Int(1),
                residual: Vec::new(),
            },
            Physical::IndexRangeSeek {
                ty,
                attr: a,
                lo: None,
                hi: None,
                residual: Vec::new(),
            },
            Physical::CompositeSeek {
                ty,
                attrs: vec![a],
                prefix: Vec::new(),
                suffix: None,
                residual: Vec::new(),
            },
        ];
        for leaf in &leaves {
            assert!(leaf.duplicate_free(), "{leaf:?}");
        }
        assert!(!Physical::IndexOnlyScan {
            ty,
            to: TypeId(1),
            key_attrs: vec![a],
            ordered: true,
            preds: Vec::new(),
        }
        .duplicate_free());
        assert!(!project(scan(0)).duplicate_free());
        assert!(!Physical::Union {
            left: scan(0),
            right: scan(0),
            ty,
        }
        .duplicate_free());

        // Unary operators take their input's value.
        for (input, want) in [(scan(0), true), (project(scan(0)), false)] {
            let filter = Physical::Filter {
                input: input.clone(),
                preds: Vec::new(),
            };
            let sort = Physical::Sort {
                input,
                keys: Vec::new(),
            };
            assert_eq!(filter.duplicate_free(), want);
            assert_eq!(sort.duplicate_free(), want);
        }

        // Intersect follows its probe; joins need both inputs.
        let intersect =
            |build: Box<Physical>, probe: Box<Physical>| Physical::Intersect { build, probe, ty };
        assert!(intersect(project(scan(0)), scan(0)).duplicate_free());
        assert!(!intersect(scan(0), project(scan(0))).duplicate_free());
        let hash = |build: Box<Physical>, probe: Box<Physical>| Physical::HashJoin {
            build,
            probe,
            keys: vec![a],
            ty,
        };
        let merge = |left: Box<Physical>, right: Box<Physical>| Physical::MergeJoin {
            left,
            right,
            keys: vec![a],
            ty,
        };
        assert!(hash(scan(0), scan(1)).duplicate_free());
        assert!(!hash(project(scan(0)), scan(1)).duplicate_free());
        assert!(!hash(scan(0), project(scan(1))).duplicate_free());
        assert!(merge(scan(0), scan(1)).duplicate_free());
        assert!(!merge(project(scan(0)), scan(1)).duplicate_free());
        assert!(!merge(scan(0), project(scan(1))).duplicate_free());
    }
}
