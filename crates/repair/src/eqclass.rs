//! Equivalence classes over cells (union-find), the core data structure of
//! the repair algorithm of [8]: cells that must end up equal (because a
//! variable CFD links them) are merged into one class; a class may be
//! *pinned* to a constant when a constant CFD forces its value.
//!
//! Each class also threads its cells on a circular doubly linked list (its
//! *member ring*), spliced in O(1) on merge, so listing a class costs
//! O(class log class) (the walk plus a sort) rather than a scan over every
//! registered cell.

use std::collections::HashMap;

use minidb::{RowId, Value};

/// A cell coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Row id.
    pub row: RowId,
    /// Column index.
    pub col: usize,
}

impl CellRef {
    /// Construct a cell reference.
    pub fn new(row: RowId, col: usize) -> CellRef {
        CellRef { row, col }
    }
}

/// Union-find over cells with per-class pin state.
#[derive(Debug, Clone, Default)]
pub struct EqClasses {
    /// Each cell's current node; [`EqClasses::detach`] re-points it.
    ids: HashMap<CellRef, usize>,
    nodes: Vec<Node>,
}

/// One union-find node. `pin` is meaningful at roots only. `next`/`prev`
/// link the node into its class's member ring; a detached node is a ring
/// of one that no cell maps to.
#[derive(Debug, Clone)]
struct Node {
    cell: CellRef,
    parent: usize,
    rank: u8,
    pin: Option<Value>,
    next: usize,
    prev: usize,
}

/// Result of a merge or pin attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum PinOutcome {
    /// Applied cleanly.
    Ok,
    /// The class was already pinned to a conflicting constant; the existing
    /// pin is kept and returned.
    Conflict(Value),
}

impl EqClasses {
    /// Empty structure.
    pub fn new() -> EqClasses {
        EqClasses::default()
    }

    fn id_of(&mut self, cell: CellRef) -> usize {
        match self.ids.get(&cell) {
            Some(&i) => i,
            None => self.push_node(cell),
        }
    }

    /// Register `cell` as a fresh singleton node (its own root and ring).
    fn push_node(&mut self, cell: CellRef) -> usize {
        let i = self.nodes.len();
        self.nodes.push(Node {
            cell,
            parent: i,
            rank: 0,
            pin: None,
            next: i,
            prev: i,
        });
        self.ids.insert(cell, i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.nodes[i].parent != i {
            let grand = self.nodes[self.nodes[i].parent].parent;
            self.nodes[i].parent = grand; // path halving
            i = grand;
        }
        i
    }

    /// Representative of the cell's class (cells start in singletons).
    pub fn root(&mut self, cell: CellRef) -> usize {
        let i = self.id_of(cell);
        self.find(i)
    }

    /// Are two cells in the same class?
    pub fn same(&mut self, a: CellRef, b: CellRef) -> bool {
        self.root(a) == self.root(b)
    }

    /// Merge the classes of `a` and `b`. If both are pinned to different
    /// constants, the merge is **refused** and `Conflict` returned (the
    /// caller must resolve by changing an LHS cell instead).
    pub fn merge(&mut self, a: CellRef, b: CellRef) -> PinOutcome {
        let (ia, ib) = (self.id_of(a), self.id_of(b));
        let ra = self.find(ia);
        let rb = self.find(ib);
        if ra == rb {
            return PinOutcome::Ok;
        }
        match (&self.nodes[ra].pin, &self.nodes[rb].pin) {
            (Some(x), Some(y)) if !x.strong_eq(y) => {
                return PinOutcome::Conflict(x.clone());
            }
            _ => {}
        }
        let pin = self.nodes[ra]
            .pin
            .clone()
            .or_else(|| self.nodes[rb].pin.clone());
        let (hi, lo) = if self.nodes[ra].rank >= self.nodes[rb].rank {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.nodes[lo].parent = hi;
        if self.nodes[hi].rank == self.nodes[lo].rank {
            self.nodes[hi].rank += 1;
        }
        self.nodes[hi].pin = pin;
        // Splice the rings at the cells' own nodes: a root may be a
        // detached node that is no longer on any ring. The two rings are
        // distinct here (different roots); splicing one ring with itself
        // would split it.
        let (na, nb) = (self.nodes[ia].next, self.nodes[ib].next);
        self.nodes[ia].next = nb;
        self.nodes[nb].prev = ia;
        self.nodes[ib].next = na;
        self.nodes[na].prev = ib;
        PinOutcome::Ok
    }

    /// Pin a cell's class to a constant.
    pub fn pin(&mut self, cell: CellRef, value: Value) -> PinOutcome {
        let r = self.root(cell);
        match &self.nodes[r].pin {
            Some(x) if !x.strong_eq(&value) => PinOutcome::Conflict(x.clone()),
            _ => {
                self.nodes[r].pin = Some(value);
                PinOutcome::Ok
            }
        }
    }

    /// The pinned constant of the cell's class, if any.
    pub fn pinned(&mut self, cell: CellRef) -> Option<Value> {
        let r = self.root(cell);
        self.nodes[r].pin.clone()
    }

    /// Overwrite the class pin unconditionally. Used when a previously
    /// recorded pin has gone stale (the rule that forced it no longer
    /// applies after other repairs changed the tuple's LHS).
    pub fn repin(&mut self, cell: CellRef, value: Value) {
        let r = self.root(cell);
        self.nodes[r].pin = Some(value);
    }

    /// Detach `cell` into a fresh singleton class, leaving its old class
    /// (and that class's pin) untouched. An LHS break separates a tuple
    /// from its group, so equality links through the broken cell no longer
    /// hold — without detaching, pinning the sentinel would poison every
    /// cell that was ever merged with this one.
    pub fn detach(&mut self, cell: CellRef) {
        if let Some(&old) = self.ids.get(&cell) {
            // Unlink only: the old node may still be its class's root, so
            // its `parent` and `pin` stay.
            let Node { next, prev, .. } = self.nodes[old];
            self.nodes[prev].next = next;
            self.nodes[next].prev = prev;
            self.nodes[old].next = old;
            self.nodes[old].prev = old;
        }
        self.push_node(cell);
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// No cells registered yet?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// All registered cells in the same class as `cell` (including itself),
    /// sorted. Walks the class's member ring: O(class log class), however
    /// many cells are registered.
    pub fn members(&mut self, cell: CellRef) -> Vec<CellRef> {
        let start = self.id_of(cell);
        let mut out = vec![self.nodes[start].cell];
        let mut i = self.nodes[start].next;
        while i != start {
            out.push(self.nodes[i].cell);
            i = self.nodes[i].next;
        }
        out.sort();
        out
    }

    /// Group all registered cells by class root.
    pub fn classes(&mut self) -> HashMap<usize, Vec<CellRef>> {
        let cells: Vec<CellRef> = self.ids.keys().copied().collect();
        let mut out: HashMap<usize, Vec<CellRef>> = HashMap::new();
        for c in cells {
            let r = self.root(c);
            out.entry(r).or_default().push(c);
        }
        for v in out.values_mut() {
            v.sort();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(r: u64, col: usize) -> CellRef {
        CellRef::new(RowId(r), col)
    }

    #[test]
    fn singletons_until_merged() {
        let mut eq = EqClasses::new();
        assert!(!eq.same(c(0, 1), c(0, 2)));
        assert_eq!(eq.merge(c(0, 1), c(0, 2)), PinOutcome::Ok);
        assert!(eq.same(c(0, 1), c(0, 2)));
    }

    #[test]
    fn pins_propagate_through_merges() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        eq.merge(c(1, 0), c(2, 0));
        assert_eq!(eq.pinned(c(2, 0)), Some(Value::str("UK")));
    }

    #[test]
    fn conflicting_pins_refuse_merge() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        eq.pin(c(2, 0), Value::str("US"));
        let out = eq.merge(c(1, 0), c(2, 0));
        assert!(matches!(out, PinOutcome::Conflict(_)));
        assert!(
            !eq.same(c(1, 0), c(2, 0)),
            "conflicting merge must not happen"
        );
    }

    #[test]
    fn pin_conflict_on_same_class() {
        let mut eq = EqClasses::new();
        eq.pin(c(1, 0), Value::str("UK"));
        assert_eq!(eq.pin(c(1, 0), Value::str("UK")), PinOutcome::Ok);
        assert!(matches!(
            eq.pin(c(1, 0), Value::str("US")),
            PinOutcome::Conflict(_)
        ));
    }

    #[test]
    fn classes_enumerates_groups() {
        let mut eq = EqClasses::new();
        eq.merge(c(0, 0), c(1, 0));
        eq.merge(c(1, 0), c(2, 0));
        eq.root(c(9, 9)); // singleton
        let classes = eq.classes();
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = classes.values().map(Vec::len).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn members_follow_merges_and_detaches() {
        let mut eq = EqClasses::new();
        eq.merge(c(0, 0), c(1, 0));
        eq.merge(c(2, 0), c(3, 0));
        eq.merge(c(1, 0), c(3, 0));
        assert_eq!(
            eq.members(c(3, 0)),
            vec![c(0, 0), c(1, 0), c(2, 0), c(3, 0)]
        );
        // Merging within one class must not split its ring.
        assert_eq!(eq.merge(c(0, 0), c(2, 0)), PinOutcome::Ok);
        assert_eq!(eq.members(c(2, 0)).len(), 4);
        eq.detach(c(1, 0));
        assert_eq!(eq.members(c(1, 0)), vec![c(1, 0)]);
        assert_eq!(eq.members(c(0, 0)), vec![c(0, 0), c(2, 0), c(3, 0)]);
    }

    #[test]
    fn detaching_the_root_keeps_the_class_and_its_pin() {
        let mut eq = EqClasses::new();
        eq.merge(c(0, 0), c(1, 0));
        eq.pin(c(0, 0), Value::str("UK"));
        let root_cell = [c(0, 0), c(1, 0)]
            .into_iter()
            .find(|&x| eq.ids[&x] == eq.root(x))
            .expect("one cell's node is the root");
        let other = if root_cell == c(0, 0) {
            c(1, 0)
        } else {
            c(0, 0)
        };
        eq.detach(root_cell);
        assert_eq!(eq.pinned(other), Some(Value::str("UK")));
        assert_eq!(eq.pinned(root_cell), None);
        assert_eq!(eq.members(other), vec![other]);
        // The old class (rooted at the detached node) still merges.
        assert_eq!(eq.merge(other, c(2, 0)), PinOutcome::Ok);
        assert_eq!(eq.members(c(2, 0)), vec![other, c(2, 0)]);
        assert_eq!(eq.pinned(c(2, 0)), Some(Value::str("UK")));
    }

    #[test]
    fn refused_merge_keeps_both_member_lists() {
        let mut eq = EqClasses::new();
        eq.merge(c(0, 0), c(1, 0));
        eq.pin(c(0, 0), Value::str("UK"));
        eq.pin(c(2, 0), Value::str("US"));
        assert!(matches!(
            eq.merge(c(1, 0), c(2, 0)),
            PinOutcome::Conflict(_)
        ));
        assert_eq!(eq.members(c(1, 0)), vec![c(0, 0), c(1, 0)]);
        assert_eq!(eq.members(c(2, 0)), vec![c(2, 0)]);
    }

    #[test]
    fn transitive_merges_keep_single_root() {
        let mut eq = EqClasses::new();
        for i in 0..50 {
            eq.merge(c(i, 0), c(i + 1, 0));
        }
        let r = eq.root(c(0, 0));
        for i in 0..=50 {
            assert_eq!(eq.root(c(i, 0)), r);
        }
    }
}
