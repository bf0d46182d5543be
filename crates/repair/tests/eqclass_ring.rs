//! The member ring against the scan: after any sequence of merges, pins,
//! repins and detaches, `EqClasses::members` (a walk of the cell's ring)
//! lists exactly the cells that `EqClasses::classes` (a root-find over
//! every registered cell) groups under the cell's root.

use std::collections::BTreeSet;

use minidb::{RowId, Value};
use proptest::prelude::*;
use repair::eqclass::{CellRef, EqClasses, PinOutcome};

#[derive(Debug, Clone)]
enum Op {
    Merge(CellRef, CellRef),
    Pin(CellRef, Value),
    Repin(CellRef, Value),
    Detach(CellRef),
}

/// A 4 × 2 grid: small enough that random merges revisit classes.
fn cell() -> impl Strategy<Value = CellRef> {
    (0u64..4, 0usize..2).prop_map(|(r, c)| CellRef::new(RowId(r), c))
}

/// Three constants, so pins often disagree and merges get refused.
fn value() -> impl Strategy<Value = Value> {
    (0u8..3).prop_map(|v| Value::str(format!("v{v}")))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (cell(), cell()).prop_map(|(a, b)| Op::Merge(a, b)),
        2 => (cell(), value()).prop_map(|(c, v)| Op::Pin(c, v)),
        1 => (cell(), value()).prop_map(|(c, v)| Op::Repin(c, v)),
        2 => cell().prop_map(Op::Detach),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn ring_members_equal_scanned_classes(ops in proptest::collection::vec(op(), 1..40)) {
        let mut eq = EqClasses::new();
        let mut touched: BTreeSet<CellRef> = BTreeSet::new();
        for op in &ops {
            match op {
                Op::Merge(a, b) => {
                    let joined = eq.same(*a, *b);
                    let out = eq.merge(*a, *b);
                    // A refused merge leaves the classes apart.
                    prop_assert_eq!(matches!(out, PinOutcome::Ok), eq.same(*a, *b));
                    prop_assert!(!joined || out == PinOutcome::Ok);
                    touched.extend([*a, *b]);
                }
                Op::Pin(c, v) => {
                    eq.pin(*c, v.clone());
                    touched.insert(*c);
                }
                Op::Repin(c, v) => {
                    eq.repin(*c, v.clone());
                    touched.insert(*c);
                }
                Op::Detach(c) => {
                    eq.detach(*c);
                    touched.insert(*c);
                    prop_assert_eq!(eq.members(*c), vec![*c]);
                    prop_assert_eq!(eq.pinned(*c), None);
                }
            }
            let classes = eq.classes();
            for c in &touched {
                let root = eq.root(*c);
                prop_assert_eq!(&eq.members(*c), &classes[&root], "after {:?}", op);
            }
        }
    }
}
