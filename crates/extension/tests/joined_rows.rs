//! The merged view of a join pair is the natural-join tuple: for random
//! compatible instances, `Row::Pair(l, r)` and `Row::One(l.merge(&r))`
//! agree in equality, order, hash, field order, attribute lookup,
//! width, and projection. (The reply encoder's bytes for pairs are
//! checked against the merged reference by the server's
//! `encoder_matches_reference_renderer`.)

use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash};

use proptest::prelude::*;
use toposem_core::AttrId;
use toposem_extension::{Instance, Row, Value};
use toposem_topology::BitSet;

/// Attributes in the random universe.
const ATTRS: usize = 6;

/// A small value domain, so equal rows and shared prefixes are common.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        Just(Value::Bool(true)),
        (0usize..3).prop_map(|i| Value::str(["", "a", "b\n\"é"][i])),
    ]
}

/// One attribute's placement: 0 absent, 1 left only, 2 right only,
/// 3 on both sides (with the same value).
fn pair() -> impl Strategy<Value = (Instance, Instance)> {
    prop::collection::vec((0u8..4, value()), ATTRS).prop_map(|cols| {
        let side = |keep: fn(u8) -> bool| {
            Instance::from_parts(
                cols.iter()
                    .enumerate()
                    .filter(|(_, (at, _))| keep(*at))
                    .map(|(a, (_, v))| (AttrId(a as u32), v.clone()))
                    .collect(),
            )
        };
        (side(|at| at == 1 || at == 3), side(|at| at >= 2))
    })
}

fn hash_of(x: &impl Hash, seed: &std::collections::hash_map::RandomState) -> u64 {
    seed.hash_one(x)
}

proptest! {
    #[test]
    fn merged_view_is_the_merged_instance(
        first in pair(),
        second in pair(),
        mask in prop::collection::vec(0u8..2, ATTRS),
    ) {
        let ((l1, r1), (l2, r2)) = (first, second);
        let seed = std::collections::hash_map::RandomState::new();
        let target = BitSet::from_indices(
            ATTRS,
            mask.iter().enumerate().filter(|(_, m)| **m == 1).map(|(a, _)| a),
        );
        let (m1, m2) = (l1.merge(&r1), l2.merge(&r2));
        let (p1, p2) = (Row::Pair(l1.clone(), r1.clone()), Row::Pair(l2.clone(), r2.clone()));
        // Either side may be the build side.
        let flipped = Row::Pair(r1.clone(), l1.clone());
        for (view, merged) in [(&p1, &m1), (&flipped, &m1), (&p2, &m2)] {
            let fields: Vec<&(AttrId, Value)> = view.fields().collect();
            let want: Vec<&(AttrId, Value)> = merged.fields().iter().collect();
            prop_assert_eq!(fields, want);
            prop_assert_eq!(view.width(), merged.width());
            for a in 0..ATTRS as u32 {
                prop_assert_eq!(view.get(AttrId(a)), merged.get(AttrId(a)));
            }
            prop_assert_eq!(view.project(&target), merged.project(&target));
            prop_assert_eq!(hash_of(view, &seed), hash_of(merged, &seed));
            prop_assert_eq!(hash_of(view, &seed), hash_of(&Row::One(merged.clone()), &seed));
            prop_assert_eq!(view.clone().into_instance(), merged.clone());
            let mut m = view.clone();
            prop_assert_eq!(m.materialise(), merged);
        }
        // Equality and order between rows are those of the merged tuples,
        // whichever form each row is in.
        let one2 = Row::One(m2.clone());
        for other in [&p2, &one2] {
            prop_assert_eq!(p1 == *other, m1 == m2);
            prop_assert_eq!(p1.cmp(other), m1.cmp(&m2));
            prop_assert_eq!(other.cmp(&p1), m2.cmp(&m1));
        }
        prop_assert_eq!(p1.cmp(&flipped), Ordering::Equal);
        prop_assert!(p1 == flipped);
    }
}
