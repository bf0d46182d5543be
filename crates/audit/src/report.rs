//! The data quality report (Fig. 4): per-attribute class breakdown (bar
//! chart), violation breakdown per CFD (pie chart), and headline numbers.
//!
//! A report is built in two halves by one [`ReportBuilder`]:
//!
//! * **involvement** — which rows, and which of their constrained cells,
//!   sit in a single-tuple violation or on the minority or majority side
//!   of a multi-tuple one;
//! * **grading** — each live row's involvement, plus which of its cells a
//!   constant-RHS CFD verified, decides its class; the class counts
//!   become the report.
//!
//! [`quality_report`] fills both halves from `Value`s: it hashes each
//! group's RHS values to find the majority and matches the constant CFDs
//! against every live row. It is the oracle the code-space audits are
//! tested against, and the benchmark harness's probe. Every server audits
//! in code space instead: [`ReportBuilder::mark_report`] reads each
//! group's majority off the value counts its violation carries, and the
//! grading scans snapshot codes — `colstore::audit_cached` for the
//! columnar server and the data monitor, the shards' snapshots for the
//! sharded cluster (`cluster::ShardedQualityServer::audit`). The taxonomy
//! itself exists once.

use std::collections::HashMap;
use std::iter::once;
use std::sync::{Arc, OnceLock};

use cfd::{BoundCfd, Cfd, CfdResult};
use detect::violation::{ViolationKind, ViolationReport};
use minidb::{RowId, Schema, Table, Value};

use crate::charts::{pie_chart, stacked_bars};
use crate::classify::{constrained_columns, grade, CleanClass};
use crate::stats::{violation_stats, ViolationStats};

/// Per-attribute breakdown into the four classes (fractions of tuples).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeBreakdown {
    /// Column index.
    pub col: usize,
    /// Attribute name.
    pub name: String,
    /// Fractions `[verified, probably, arguably, dirty]`, summing to 1
    /// over a non-empty relation; all 0 over an empty one.
    pub fractions: [f64; 4],
}

/// The assembled quality report.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Number of live tuples audited.
    pub tuples: usize,
    /// Tuple counts per class `[verified, probably, arguably, dirty]`.
    pub tuple_classes: [usize; 4],
    /// Per-constrained-attribute breakdowns.
    pub attributes: Vec<AttributeBreakdown>,
    /// Violations per CFD, labelled with the CFD's display form.
    pub per_cfd: Vec<(String, usize)>,
    /// Summary statistics.
    pub stats: ViolationStats,
}

fn class_slot(c: CleanClass) -> usize {
    match c {
        CleanClass::VerifiedClean => 0,
        CleanClass::ProbablyClean => 1,
        CleanClass::ArguablyClean => 2,
        CleanClass::Dirty => 3,
    }
}

/// `audit_report_ns`: wall time of one audit, from
/// [`ReportBuilder::new`] to [`ReportBuilder::finish`].
fn report_ns() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::histogram("audit_report_ns"))
}

// Involvement flags, per row and per (row, constrained column).
const SINGLE: u8 = 1;
const MINORITY: u8 = 2;
const MAJORITY: u8 = 4;

fn graded(flags: u8, verified: bool) -> usize {
    class_slot(grade(
        (
            flags & SINGLE != 0,
            flags & MINORITY != 0,
            flags & MAJORITY != 0,
        ),
        verified,
    ))
}

/// One quality report under construction: the involvement flags of pass
/// 1, then the class counts of pass 2.
///
/// Involvement lives in dense per-row and per-cell flag arrays indexed by
/// [`RowId::index`] below the arena, with one cell slot per constrained
/// column ([`ReportBuilder::width`]). Marks of rows at or beyond the arena
/// cannot be live and are ignored. Creating a builder starts the
/// `audit_report_ns` timer; [`ReportBuilder::finish`] records it.
pub struct ReportBuilder {
    bound: Vec<BoundCfd>,
    constrained: Vec<usize>,
    /// Each CFD's attributes as positions in `constrained`.
    cfd_slots: Vec<Vec<usize>>,
    arena: usize,
    row_flags: Vec<u8>,
    cell_flags: Vec<u8>,
    tuple_classes: [usize; 4],
    cell_classes: Vec<[usize; 4]>,
    live: usize,
    names: Vec<String>,
    _timer: obs::SpanTimer,
}

impl ReportBuilder {
    /// A builder for `cfds` over a relation of `schema` whose live row ids
    /// lie below `arena` (the next id the relation would assign).
    pub fn new(schema: &Schema, arena: usize, cfds: &[Cfd]) -> CfdResult<ReportBuilder> {
        let timer = obs::SpanTimer::new(Arc::clone(report_ns()));
        let bound: Vec<BoundCfd> = cfds
            .iter()
            .map(|c| c.bind(schema))
            .collect::<CfdResult<_>>()?;
        let constrained = constrained_columns(&bound);
        let width = constrained.len();
        let cfd_slots = bound
            .iter()
            .map(|b| {
                b.lhs_cols
                    .iter()
                    .chain(once(&b.rhs_col))
                    .map(|c| {
                        constrained
                            .binary_search(c)
                            .expect("every CFD column is constrained")
                    })
                    .collect()
            })
            .collect();
        Ok(ReportBuilder {
            names: constrained
                .iter()
                .map(|&c| schema.column(c).name.clone())
                .collect(),
            bound,
            constrained,
            cfd_slots,
            arena,
            row_flags: vec![0; arena],
            cell_flags: vec![0; arena * width],
            tuple_classes: [0; 4],
            cell_classes: vec![[0; 4]; width],
            live: 0,
            _timer: timer,
        })
    }

    /// The CFDs, bound to the schema, in report order.
    pub fn bound(&self) -> &[BoundCfd] {
        &self.bound
    }

    /// Number of constrained columns: the cell slots per row.
    pub fn width(&self) -> usize {
        self.constrained.len()
    }

    /// The cell slots of CFD `cfd_idx`'s attributes (LHS, then RHS).
    pub fn slots(&self, cfd_idx: usize) -> &[usize] {
        &self.cfd_slots[cfd_idx]
    }

    fn mark(&mut self, cfd_idx: usize, row: RowId, flag: u8) {
        let i = row.index();
        if i < self.arena {
            let width = self.width();
            self.row_flags[i] |= flag;
            for &s in &self.cfd_slots[cfd_idx] {
                self.cell_flags[i * width + s] |= flag;
            }
        }
    }

    /// Pass 1: `row` violates constant CFD `cfd_idx` on its own.
    fn mark_single(&mut self, cfd_idx: usize, row: RowId) {
        self.mark(cfd_idx, row, SINGLE);
    }

    /// Pass 1: `row` is a member of a violating group of CFD `cfd_idx`,
    /// on the side of the group's strict RHS majority or not.
    fn mark_member(&mut self, cfd_idx: usize, row: RowId, majority: bool) {
        self.mark(cfd_idx, row, if majority { MAJORITY } else { MINORITY });
    }

    /// Pass 1 in code space: mark every violation of `report`. A group
    /// member holds the strict majority when more than half the group
    /// shares its RHS value (`own * 2 > len`); no `Value` is compared.
    pub fn mark_report(&mut self, report: &ViolationReport) {
        for v in &report.violations {
            match &v.kind {
                ViolationKind::SingleTuple { row } => self.mark_single(v.cfd_idx, *row),
                ViolationKind::MultiTuple { rows, own, .. } => {
                    let len = rows.len() as u64;
                    for ((row, _), &n) in rows.iter().zip(own.iter()) {
                        self.mark_member(v.cfd_idx, *row, n * 2 > len);
                    }
                }
            }
        }
    }

    /// Pass 2: grade one live row. `verified` holds one flag per cell
    /// slot: set where a constant-RHS CFD whose pattern the row matches
    /// and satisfies names the column. The row itself is verified when
    /// any of its cells is, since every such CFD has at least its RHS
    /// slot.
    pub fn grade_row(&mut self, row: RowId, verified: &[bool]) {
        let width = self.width();
        debug_assert_eq!(verified.len(), width);
        let i = row.index();
        self.live += 1;
        self.tuple_classes[graded(self.row_flags[i], verified.contains(&true))] += 1;
        let cells = &self.cell_flags[i * width..(i + 1) * width];
        for ((counts, &flags), &v) in self.cell_classes.iter_mut().zip(cells).zip(verified) {
            counts[graded(flags, v)] += 1;
        }
    }

    /// Assemble the report from the graded rows, taking the per-CFD
    /// counts and statistics from the detection `report`.
    pub fn finish(self, report: &ViolationReport) -> QualityReport {
        let n = self.live.max(1) as f64;
        let attributes = self
            .constrained
            .iter()
            .zip(self.names)
            .zip(&self.cell_classes)
            .map(|((&col, name), counts)| AttributeBreakdown {
                col,
                name,
                fractions: counts.map(|k| k as f64 / n),
            })
            .collect();
        let per_cfd = self
            .bound
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    b.cfd.to_string(),
                    report.per_cfd.get(&i).copied().unwrap_or(0),
                )
            })
            .collect();
        QualityReport {
            tuples: self.live,
            tuple_classes: self.tuple_classes,
            attributes,
            per_cfd,
            stats: violation_stats(report),
        }
    }
}

/// Build the quality report for `table` under `cfds` and a detection
/// `report`.
///
/// Cost: one pass over the violation members plus one over the live
/// rows, with involvement kept in dense per-row and per-cell flag arrays
/// and no per-cell map. [`classify`](crate::classify()) is the per-cell
/// view of the same taxonomy.
pub fn quality_report(
    table: &Table,
    cfds: &[Cfd],
    report: &ViolationReport,
) -> CfdResult<QualityReport> {
    let mut audit = ReportBuilder::new(table.schema(), table.arena_size(), cfds)?;

    // Pass 1: involvement from the violation members; each group's
    // majority found by counting its RHS values, independently of the
    // counts the report carries.
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    for v in &report.violations {
        match &v.kind {
            ViolationKind::SingleTuple { row } => audit.mark_single(v.cfd_idx, *row),
            ViolationKind::MultiTuple { rows, .. } => {
                counts.clear();
                for (_, val) in rows.iter() {
                    *counts.entry(val).or_default() += 1;
                }
                // At most one RHS value holds a strict majority.
                let majority = counts
                    .iter()
                    .find(|&(_, &n)| n * 2 > rows.len())
                    .map(|(&val, _)| val);
                for (row, val) in rows.iter() {
                    audit.mark_member(v.cfd_idx, *row, majority == Some(val));
                }
            }
        }
    }

    grade_table(table, &mut audit);
    Ok(audit.finish(report))
}

/// Pass 2 in value space: per live row, positive verification by the
/// constant-RHS CFDs matched against its values, then its grade.
fn grade_table(table: &Table, audit: &mut ReportBuilder) {
    let constant: Vec<usize> = (0..audit.bound().len())
        .filter(|&i| audit.bound()[i].cfd.rhs_pat.constant().is_some())
        .collect();
    let mut verified = vec![false; audit.width()];
    for (id, row) in table.iter() {
        verified.fill(false);
        for &i in &constant {
            let b = &audit.bound()[i];
            if b.lhs_matches(row) && b.rhs_matches(row) {
                for &s in audit.slots(i) {
                    verified[s] = true;
                }
            }
        }
        audit.grade_row(id, &verified);
    }
}

impl QualityReport {
    /// Fraction of tuples that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.tuple_classes[3] as f64 / self.tuples as f64
        }
    }

    /// Render the full report as text: headline, attribute bar chart
    /// (Fig. 4 left), per-CFD pie (Fig. 4 right), and statistics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== data quality report ===\n{} tuples: {} verified / {} probably / {} arguably clean, {} dirty ({:.1}%)\n\n",
            self.tuples,
            self.tuple_classes[0],
            self.tuple_classes[1],
            self.tuple_classes[2],
            self.tuple_classes[3],
            self.dirty_fraction() * 100.0,
        ));
        let rows: Vec<(String, Vec<f64>)> = self
            .attributes
            .iter()
            .map(|a| (a.name.clone(), a.fractions.to_vec()))
            .collect();
        out.push_str(&stacked_bars(
            "attribute-level classes (#=verified +=probably o=arguably .=dirty)",
            &rows,
            &['#', '+', 'o', '.'],
            40,
        ));
        out.push('\n');
        let pie_items: Vec<(String, f64)> = self
            .per_cfd
            .iter()
            .map(|(l, n)| (l.clone(), *n as f64))
            .collect();
        out.push_str(&pie_chart("violations per CFD", &pie_items, 40));
        out.push('\n');
        let s = &self.stats;
        out.push_str(&format!(
            "violations: {} total ({} single-tuple, {} multi-tuple groups)\n\
             dirty tuples: {}  vio(t): min {} / avg {:.2} / max {}\n\
             violating groups: size min {} / avg {:.2} / max {}\n",
            s.total,
            s.single,
            s.multi,
            s.dirty_tuples,
            s.min_vio,
            s.avg_vio,
            s.max_vio,
            s.min_group,
            s.avg_group,
            s.max_group,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::parse::parse_cfds;
    use datagen::dirty_customers;
    use detect::detect_native;

    #[test]
    fn mark_report_reads_the_majority_off_the_counts() {
        // [A] -> [B]: a 2:1 group (a1) and a tie (a2). [C='c0'] -> [B='x']:
        // a single-tuple violation (a3) and a verified row (a4).
        let mut t = Table::new("r", Schema::of_strings(&["A", "B", "C"]));
        for row in [
            ["a1", "x", "c1"],
            ["a1", "x", "c1"],
            ["a1", "y", "c1"],
            ["a2", "x", "c1"],
            ["a2", "z", "c1"],
            ["a3", "w", "c0"],
            ["a4", "x", "c0"],
        ] {
            t.insert(row.map(Value::str).to_vec()).unwrap();
        }
        let cfds = parse_cfds("r: [A] -> [B]\nr: [C='c0'] -> [B='x']").unwrap();
        let det = detect_native(&t, &cfds).unwrap();
        let mut audit = ReportBuilder::new(t.schema(), t.arena_size(), &cfds).unwrap();
        audit.mark_report(&det);
        grade_table(&t, &mut audit);
        let want = quality_report(&t, &cfds, &det).unwrap();
        assert_eq!(audit.finish(&det), want);
        // Majority members are arguably clean; the minority, both tied
        // members and the single violator are dirty.
        assert_eq!(want.tuple_classes, [1, 0, 2, 4]);
    }

    #[test]
    fn report_on_dirty_customers() {
        let d = dirty_customers(200, 0.05, 55);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = quality_report(t, &d.cfds, &det).unwrap();
        assert_eq!(r.tuples, 200);
        assert_eq!(r.tuple_classes.iter().sum::<usize>(), 200);
        assert!(r.tuple_classes[3] > 0, "5% noise must dirty something");
        assert!(r.dirty_fraction() > 0.0 && r.dirty_fraction() < 1.0);
        // Attribute fractions sum to ~1.
        for a in &r.attributes {
            let sum: f64 = a.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", a.name);
        }
        // φ-level counts total the report's record count.
        let total: usize = r.per_cfd.iter().map(|(_, n)| n).sum();
        assert_eq!(total, det.len());
    }

    #[test]
    fn clean_data_reports_verified_and_probable_only() {
        let d = dirty_customers(100, 0.0, 4);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = quality_report(t, &d.cfds, &det).unwrap();
        assert_eq!(r.tuple_classes[2], 0);
        assert_eq!(r.tuple_classes[3], 0);
        // Everyone matches a CC → CNT constant rule, so all verified.
        assert_eq!(r.tuple_classes[0], 100);
        assert_eq!(r.dirty_fraction(), 0.0);
    }

    #[test]
    fn empty_relation_fractions_are_all_zero() {
        let d = dirty_customers(10, 0.0, 3);
        let mut t = d.db.table("customer").unwrap().clone();
        for id in t.row_ids() {
            t.delete(id).unwrap();
        }
        let det = detect_native(&t, &d.cfds).unwrap();
        let r = quality_report(&t, &d.cfds, &det).unwrap();
        assert_eq!(r.tuples, 0);
        assert!(!r.attributes.is_empty());
        for a in &r.attributes {
            assert_eq!(a.fractions, [0.0; 4], "{}", a.name);
        }
    }

    #[test]
    fn render_includes_all_sections() {
        let d = dirty_customers(80, 0.08, 2);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = quality_report(t, &d.cfds, &det).unwrap();
        let s = r.render();
        assert!(s.contains("data quality report"));
        assert!(s.contains("attribute-level classes"));
        assert!(s.contains("violations per CFD"));
        assert!(s.contains("violating groups"));
    }
}
