//! The data quality report (Fig. 4): per-attribute class breakdown (bar
//! chart), violation breakdown per CFD (pie chart), and headline numbers.

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

/// `audit_report_ns`: wall time of one [`quality_report_rows`] call.
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
    quality_report_rows(
        table.schema(),
        table.arena_size(),
        table.iter(),
        cfds,
        report,
    )
}

/// [`quality_report`] over the live `rows` of one relation, given in any
/// order — a sharded relation passes its shards' rows chained together.
/// `arena` bounds the live row ids (it is the next id the relation would
/// assign); report members at or beyond it cannot be live and are
/// ignored.
pub fn quality_report_rows<'a>(
    schema: &Schema,
    arena: usize,
    rows: impl IntoIterator<Item = (RowId, &'a [Value])>,
    cfds: &[Cfd],
    report: &ViolationReport,
) -> CfdResult<QualityReport> {
    let _span = obs::SpanTimer::new(Arc::clone(report_ns()));
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(schema))
        .collect::<CfdResult<_>>()?;
    let constrained = constrained_columns(&bound);
    let width = constrained.len();
    // Each CFD's attributes as positions in `constrained`.
    let cfd_slots: Vec<Vec<usize>> = bound
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

    // Pass 1: involvement flags from the violation members.
    let mut row_flags = vec![0u8; arena];
    let mut cell_flags = vec![0u8; arena * width];
    let mut mark = |row: RowId, slots: &[usize], flag: u8| {
        let i = row.index();
        if i < arena {
            row_flags[i] |= flag;
            for &s in slots {
                cell_flags[i * width + s] |= flag;
            }
        }
    };
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    for v in &report.violations {
        let slots = &cfd_slots[v.cfd_idx];
        match &v.kind {
            ViolationKind::SingleTuple { row } => mark(*row, slots, SINGLE),
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
                    let flag = if majority == Some(val) {
                        MAJORITY
                    } else {
                        MINORITY
                    };
                    mark(*row, slots, flag);
                }
            }
        }
    }

    // Pass 2: per live row, positive verification by the constant-RHS
    // CFDs, then every class count.
    let constant: Vec<(&BoundCfd, &[usize])> = bound
        .iter()
        .zip(&cfd_slots)
        .filter(|(b, _)| b.cfd.rhs_pat.constant().is_some())
        .map(|(b, s)| (b, s.as_slice()))
        .collect();
    let mut verified = vec![false; width];
    let mut tuple_classes = [0usize; 4];
    let mut cell_classes = vec![[0usize; 4]; width];
    let mut live = 0usize;
    for (id, row) in rows {
        live += 1;
        verified.fill(false);
        let mut verified_row = false;
        for &(b, slots) in &constant {
            if b.lhs_matches(row) && b.rhs_matches(row) {
                verified_row = true;
                for &s in slots {
                    verified[s] = true;
                }
            }
        }
        let i = id.index();
        tuple_classes[graded(row_flags[i], verified_row)] += 1;
        for (s, &flags) in cell_flags[i * width..(i + 1) * width].iter().enumerate() {
            cell_classes[s][graded(flags, verified[s])] += 1;
        }
    }

    let n = live.max(1) as f64;
    let attributes = constrained
        .iter()
        .zip(&cell_classes)
        .map(|(&col, counts)| AttributeBreakdown {
            col,
            name: schema.column(col).name.clone(),
            fractions: counts.map(|k| k as f64 / n),
        })
        .collect();
    let per_cfd = cfds
        .iter()
        .enumerate()
        .map(|(i, c)| (c.to_string(), report.per_cfd.get(&i).copied().unwrap_or(0)))
        .collect();
    Ok(QualityReport {
        tuples: live,
        tuple_classes,
        attributes,
        per_cfd,
        stats: violation_stats(report),
    })
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
    use datagen::dirty_customers;
    use detect::detect_native;

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
