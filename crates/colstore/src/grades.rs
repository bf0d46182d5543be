//! The Fig. 4 audit's counters, kept beside the detect state.
//!
//! A quality report grades every live row and each of its constrained
//! cells from two facts: the row's involvement in violations (single,
//! minority side, majority side) and whether a constant-RHS CFD verified
//! it. [`Grades`] keeps those facts as counts, per (row, constrained
//! slot): how many CFDs over the slot the row violates on its own, sits
//! on the minority or the majority side of, and is verified by. Every CFD
//! marks all of its slots, its RHS among them, so a row's own class is a
//! function of its slots' counts and needs no counter of its own.
//!
//! The counts move where the detect state already moves: a violating
//! group re-materialized by a detect ([`Grades::regroup`], which touches
//! only the members whose side changed), a fragment rescanned or dropped
//! ([`Grades::group`], [`Grades::touch`] per single), and a row a patch
//! inserts, deletes or overwrites (singles and verified counts, evaluated
//! where the patch evaluates the constant CFDs). A row whose counts move
//! leaves the class counts at once and is graded again, once, by the next
//! [`Grades::report`]: an audit costs O(rows touched since the last one).
//! The `vio(t)` histogram follows the standing tally, and the group-size
//! histogram follows the violating groups.

use std::collections::BTreeMap;

use audit::{grade, CleanClass, QualityReport, StatsFold};
use cfd::BoundCfd;
use detect::fxhash::FxHashMap;
use detect::VioTally;
use minidb::{RowId, Schema, Value};

use crate::detect::DecodedGroup;

/// The counters of one (row, slot) in one byte: two bits each for
/// [`SINGLE`], [`MINORITY`], [`MAJORITY`] and [`VERIFIED`], the first in
/// the low bits. A field holds 0, 1 or 2; at 3 it holds 3 plus the
/// cell's entry in [`Grades::carry`], so no count overflows, and the
/// rule sets seen in practice rarely leave the byte (a slot that more
/// than three rules over it verify, say, is the exception).
type Cell = u8;

/// A single-tuple violation of a constant CFD.
pub(crate) const SINGLE: usize = 0;
/// Membership of a violating group, outside its strict RHS majority.
pub(crate) const MINORITY: usize = 1;
/// Membership of a violating group, in its strict RHS majority.
pub(crate) const MAJORITY: usize = 2;
/// Verification by a constant CFD: the row matches its pattern and
/// holds its RHS constant.
pub(crate) const VERIFIED: usize = 3;

/// A live row whose classes are out of the counts until the next report
/// grades it (row states `0..4` are its counted class).
const PENDING: u8 = 4;
/// No live row under this id.
const ABSENT: u8 = 5;

/// A cell's involvement mask: bit `k` is set iff its counter `k` is.
/// A row is involved the way any of its cells is, and verified when any
/// of its cells is (every CFD counts on all of its slots, its RHS among
/// them), so a row's mask is the OR of its cells' masks.
fn mask(c: Cell) -> usize {
    let nonzero = usize::from((c | (c >> 1)) & 0b0101_0101);
    (nonzero & 1) | ((nonzero >> 1) & 2) | ((nonzero >> 2) & 4) | ((nonzero >> 3) & 8)
}

/// The class of every involvement mask, from the one taxonomy.
fn class_table() -> [CleanClass; 16] {
    std::array::from_fn(|m| {
        let bit = |k: usize| m & (1 << k) != 0;
        grade((bit(SINGLE), bit(MINORITY), bit(MAJORITY)), bit(VERIFIED))
    })
}

/// The audit's counters for one rule set over one snapshot lineage.
pub(crate) struct Grades {
    /// The class of each involvement mask ([`class_table`]).
    classes: [CleanClass; 16],
    /// Constrained columns per row: the cell slots.
    width: usize,
    /// Per CFD, the slots of its attributes (LHS, then RHS).
    slots: Vec<Vec<usize>>,
    /// Per (row, slot), row-major by [`RowId::index`].
    cells: Vec<Cell>,
    /// The part of a count past 3, by `cell index << 2 | kind`.
    carry: FxHashMap<usize, u32>,
    /// Per row id: its counted class, [`PENDING`] or [`ABSENT`].
    rows: Vec<u8>,
    /// The rows marked [`PENDING`] since the last report.
    pending: Vec<usize>,
    /// Live rows.
    tuples: usize,
    /// Class counts of the live rows that are not pending.
    tuple_classes: [usize; 4],
    /// Per slot, the class counts of those rows' cells.
    cell_classes: Vec<[usize; 4]>,
    /// Rows per `vio(t)` value (index 0 unused).
    vio: Vec<usize>,
    /// Violating groups per member count.
    group_sizes: BTreeMap<usize, usize>,
    /// Each constrained column and its name, in slot order.
    attrs: Vec<(usize, String)>,
    /// Each CFD's display form, for the per-CFD breakdown.
    labels: Vec<String>,
}

impl Grades {
    /// Empty counters for `bound` over a relation of `schema` whose row
    /// ids lie below `arena`, no row live yet.
    pub(crate) fn new(schema: &Schema, bound: &[BoundCfd], arena: usize) -> Grades {
        let cols = |b: &BoundCfd| b.lhs_cols.clone().into_iter().chain([b.rhs_col]);
        let mut constrained: Vec<usize> = bound.iter().flat_map(cols).collect();
        constrained.sort_unstable();
        constrained.dedup();
        let width = constrained.len();
        let slot = |c: usize| constrained.binary_search(&c).expect("constrained");
        Grades {
            classes: class_table(),
            width,
            slots: bound
                .iter()
                .map(|b| {
                    let mut slots: Vec<usize> = cols(b).map(slot).collect();
                    slots.sort_unstable();
                    slots.dedup();
                    slots
                })
                .collect(),
            cells: vec![0; arena * width],
            carry: FxHashMap::default(),
            rows: vec![ABSENT; arena],
            pending: Vec::new(),
            tuples: 0,
            tuple_classes: [0; 4],
            cell_classes: vec![[0; 4]; width],
            vio: Vec::new(),
            group_sizes: BTreeMap::new(),
            attrs: constrained
                .iter()
                .map(|&c| (c, schema.column(c).name.clone()))
                .collect(),
            labels: bound.iter().map(|b| b.cfd.to_string()).collect(),
        }
    }

    /// Take a counted row's classes out of the counts until the next
    /// report grades it again.
    fn unsettle(&mut self, i: usize) {
        let state = self.rows[i];
        if state >= PENDING {
            return;
        }
        self.tuple_classes[state as usize] -= 1;
        for s in 0..self.width {
            let class = self.classes[mask(self.cells[i * self.width + s])];
            self.cell_classes[s][class.index()] -= 1;
        }
        self.rows[i] = PENDING;
        self.pending.push(i);
    }

    /// Row `id` became live (seeded or inserted).
    pub(crate) fn came(&mut self, id: RowId) {
        let i = id.index();
        if i >= self.rows.len() {
            self.rows.resize(i + 1, ABSENT);
            self.cells.resize((i + 1) * self.width, 0);
        }
        if self.rows[i] == ABSENT {
            self.rows[i] = PENDING;
            self.pending.push(i);
            self.tuples += 1;
        }
    }

    /// Row `id` was deleted. Its counters still move until the groups it
    /// left are re-materialized, but it is graded no more.
    pub(crate) fn went(&mut self, id: RowId) {
        let i = id.index();
        self.unsettle(i);
        if self.rows[i] == PENDING {
            self.rows[i] = ABSENT;
            self.tuples -= 1;
        }
    }

    /// Count (or uncount) one `kind` involvement of row `id` with CFD
    /// `cfd`, on every slot of the CFD.
    pub(crate) fn touch(&mut self, cfd: usize, id: RowId, kind: usize, add: bool) {
        let i = id.index();
        if self.rows[i] < PENDING {
            self.unsettle(i);
        }
        let (shift, base) = (2 * kind, i * self.width);
        for &s in &self.slots[cfd] {
            let c = &mut self.cells[base + s];
            let key = (base + s) << 2 | kind;
            match ((*c >> shift) & 3, add) {
                (3, true) => *self.carry.entry(key).or_default() += 1,
                (3, false) => match self.carry.get_mut(&key) {
                    Some(n) if *n > 1 => *n -= 1,
                    Some(_) => drop(self.carry.remove(&key)),
                    None => *c -= 1 << shift,
                },
                (_, true) => *c += 1 << shift,
                (_, false) => *c -= 1 << shift,
            }
        }
    }

    /// Count (or uncount) every member of violating group `g` of CFD
    /// `cfd`.
    pub(crate) fn group(&mut self, cfd: usize, g: &DecodedGroup, add: bool) {
        let (_, rows, own) = g;
        self.size(rows.len(), add);
        for ((row, _), &n) in rows.iter().zip(own.iter()) {
            self.touch(cfd, *row, side(n, rows.len()), add);
        }
    }

    /// A violating group of CFD `cfd` went from `old` to `new` (`None`: no
    /// violation). Members are in row-id order on both sides, so one merge
    /// finds the rows that joined, left or changed sides; the rest keep
    /// their counts and their classes.
    pub(crate) fn regroup(
        &mut self,
        cfd: usize,
        old: Option<&DecodedGroup>,
        new: Option<&DecodedGroup>,
    ) {
        fn parts(g: Option<&DecodedGroup>) -> (&[(RowId, Value)], &[u64]) {
            match g {
                Some((_, rows, own)) => (rows, own),
                None => (&[], &[]),
            }
        }
        let ((was, was_own), (now, now_own)) = (parts(old), parts(new));
        if old.is_some() {
            self.size(was.len(), false);
        }
        if new.is_some() {
            self.size(now.len(), true);
        }
        let (mut i, mut j) = (0, 0);
        loop {
            match (was.get(i), now.get(j)) {
                (Some(&(r, _)), Some(&(s, _))) if r == s => {
                    let (k, m) = (side(was_own[i], was.len()), side(now_own[j], now.len()));
                    if k != m {
                        self.touch(cfd, r, k, false);
                        self.touch(cfd, r, m, true);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(r, _)), Some(&(s, _))) if r > s => {
                    self.touch(cfd, s, side(now_own[j], now.len()), true);
                    j += 1;
                }
                (Some(&(r, _)), _) => {
                    self.touch(cfd, r, side(was_own[i], was.len()), false);
                    i += 1;
                }
                (None, Some(&(s, _))) => {
                    self.touch(cfd, s, side(now_own[j], now.len()), true);
                    j += 1;
                }
                (None, None) => break,
            }
        }
    }

    fn size(&mut self, members: usize, add: bool) {
        if add {
            *self.group_sizes.entry(members).or_default() += 1;
        } else if let Some(n) = self.group_sizes.get_mut(&members) {
            *n -= 1;
            if *n == 0 {
                self.group_sizes.remove(&members);
            }
        }
    }

    /// A row's `vio(t)` went from `was` to `now`.
    pub(crate) fn vio_moved(&mut self, was: u64, now: u64) {
        if was > 0 {
            self.vio[was as usize] -= 1;
        }
        if now > 0 {
            let now = now as usize;
            if now >= self.vio.len() {
                self.vio.resize(now + 1, 0);
            }
            self.vio[now] += 1;
        }
    }

    /// Grade every pending row back into the counts.
    fn settle(&mut self) {
        let w = self.width;
        for i in std::mem::take(&mut self.pending) {
            if self.rows[i] != PENDING {
                continue;
            }
            let mut row = 0;
            for (counts, &c) in self
                .cell_classes
                .iter_mut()
                .zip(&self.cells[i * w..(i + 1) * w])
            {
                let m = mask(c);
                row |= m;
                counts[self.classes[m].index()] += 1;
            }
            let class = self.classes[row].index();
            self.tuple_classes[class] += 1;
            self.rows[i] = class as u8;
        }
    }

    /// Row `i`'s class and its cells' classes, from its counters.
    fn classes(&self, i: usize) -> (CleanClass, Vec<CleanClass>) {
        let cells = &self.cells[i * self.width..(i + 1) * self.width];
        let row = cells.iter().fold(0, |m, &c| m | mask(c));
        (
            self.classes[row],
            cells.iter().map(|&c| self.classes[mask(c)]).collect(),
        )
    }

    /// Check the counters against a fresh grading: `graded` holds every
    /// live row with the classes a fresh pass 1 and pass 2 give it, `vio`
    /// is the standing tally and `groups` the member counts of every
    /// violating group. Returns the first difference.
    pub(crate) fn check(
        &self,
        graded: impl Iterator<Item = (RowId, (CleanClass, Vec<CleanClass>))>,
        vio: &VioTally,
        groups: impl Iterator<Item = usize>,
    ) -> Result<(), String> {
        let (mut live, mut want_tuples, mut want_cells) = (0, [0; 4], vec![[0; 4]; self.width]);
        for (id, want) in graded {
            let i = id.index();
            if self.rows.get(i).is_none_or(|&s| s == ABSENT) {
                return Err(format!("live row {} is not counted", id.0));
            }
            let got = self.classes(i);
            if got != want {
                return Err(format!(
                    "row {}: the counters grade {got:?}, a fresh pass {want:?}",
                    id.0
                ));
            }
            if self.rows[i] != PENDING && self.rows[i] != got.0.index() as u8 {
                return Err(format!("row {}: its counted class is stale", id.0));
            }
            live += 1;
            want_tuples[got.0.index()] += 1;
            for (counts, c) in want_cells.iter_mut().zip(&got.1) {
                counts[c.index()] += 1;
            }
        }
        if live != self.tuples {
            return Err(format!("{} live rows counted, {live} live", self.tuples));
        }
        let (mut tuples, mut cells) = (self.tuple_classes, self.cell_classes.clone());
        for &i in self.pending.iter().filter(|&&i| self.rows[i] == PENDING) {
            let (class, cell) = self.classes(i);
            tuples[class.index()] += 1;
            for (counts, c) in cells.iter_mut().zip(&cell) {
                counts[c.index()] += 1;
            }
        }
        if tuples != want_tuples || cells != want_cells {
            return Err("the class counts differ from a fresh grading".into());
        }
        let mut hist: Vec<usize> = Vec::new();
        for v in vio.values() {
            let v = v as usize;
            if v >= hist.len() {
                hist.resize(v + 1, 0);
            }
            hist[v] += 1;
        }
        let end = self.vio.iter().rposition(|&n| n > 0).map_or(0, |j| j + 1);
        if hist[..] != self.vio[..end] {
            return Err("the vio(t) histogram differs from the tally".into());
        }
        let mut sizes = BTreeMap::new();
        for size in groups {
            *sizes.entry(size).or_insert(0usize) += 1;
        }
        if sizes != self.group_sizes {
            return Err("the group-size histogram differs from the fragments".into());
        }
        Ok(())
    }

    /// The quality report: pending rows graded, `per_cfd` holding each
    /// CFD's single-tuple violations and violating groups.
    pub(crate) fn report(&mut self, per_cfd: &[(usize, usize)]) -> QualityReport {
        self.settle();
        let mut stats = StatsFold::default();
        for &(singles, _) in per_cfd {
            stats.singles(singles);
        }
        for (&size, &n) in &self.group_sizes {
            stats.groups(size, n);
        }
        for (vio, &n) in self.vio.iter().enumerate() {
            stats.tuples(vio as u64, n);
        }
        QualityReport::from_counts(
            (self.tuples, self.tuple_classes),
            self.attrs
                .iter()
                .zip(&self.cell_classes)
                .map(|((col, name), &counts)| (*col, name.clone(), counts)),
            self.labels
                .iter()
                .zip(per_cfd)
                .map(|(label, (singles, groups))| (label.clone(), singles + groups))
                .collect(),
            stats.finish(),
        )
    }
}

/// The counter a group member with `own` of the group's `len` RHS votes
/// moves: majority holds a strict majority (`own * 2 > len`).
fn side(own: u64, len: usize) -> usize {
    if own * 2 > len as u64 {
        MAJORITY
    } else {
        MINORITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::parse::parse_cfds;

    #[test]
    fn counts_past_a_field_carry_over_exactly() {
        let schema = Schema::of_strings(&["A", "B"]);
        let bound: Vec<BoundCfd> = parse_cfds("r: [A] -> [B]")
            .unwrap()
            .iter()
            .map(|c| c.bind(&schema).unwrap())
            .collect();
        let mut g = Grades::new(&schema, &bound, 1);
        g.came(RowId(0));
        g.touch(0, RowId(0), MINORITY, true);
        for _ in 0..7 {
            g.touch(0, RowId(0), VERIFIED, true);
        }
        assert_eq!(g.carry.len(), 2, "both slots carry the verified count");
        for left in (0..7).rev() {
            g.touch(0, RowId(0), VERIFIED, false);
            for &c in &g.cells {
                assert_eq!(mask(c) & (1 << VERIFIED) != 0, left > 0, "{left} left");
                assert_ne!(mask(c) & (1 << MINORITY), 0, "the minority count stays");
            }
        }
        assert!(g.carry.is_empty());
        assert_eq!(g.cells, [1 << (2 * MINORITY); 2]);
    }
}
