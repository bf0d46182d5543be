//! Property: the Data Monitor's incremental view agrees with batch
//! detection after arbitrary update streams — the monitor never drifts.

mod common;

use common::{arb_cfds, arb_table};
use proptest::prelude::*;
use semandaq::cfd::Cfd;
use semandaq::detect::detect_native;
use semandaq::minidb::{Database, Table, Value};
use semandaq::system::{DataMonitor, MonitorMode, Update};

/// A scripted update against a table.
#[derive(Debug, Clone)]
enum Op {
    InsertCopyOf(usize),
    DeleteNth(usize),
    SetCell { nth: usize, col: usize, val: u8 },
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..50).prop_map(Op::InsertCopyOf),
        (0usize..50).prop_map(Op::DeleteNth),
        ((0usize..50), (0usize..4), (0u8..3)).prop_map(|(nth, col, val)| Op::SetCell {
            nth,
            col,
            val
        }),
    ];
    proptest::collection::vec(op, 0..n)
}

fn monitor(table: Table, cfds: &[Cfd]) -> DataMonitor {
    let mut db = Database::new();
    db.register_table(table);
    DataMonitor::new(db, "r", cfds.to_vec(), MonitorMode::DetectOnly).unwrap()
}

fn table(m: &DataMonitor) -> &Table {
    m.database().table("r").unwrap()
}

fn apply(m: &mut DataMonitor, op: &Op) {
    let ids = table(m).row_ids();
    if ids.is_empty() {
        return;
    }
    let update = match op {
        Op::InsertCopyOf(n) => Update::Insert(table(m).get(ids[n % ids.len()]).unwrap().to_vec()),
        Op::DeleteNth(n) => Update::Delete(ids[n % ids.len()]),
        Op::SetCell { nth, col, val } => {
            let col_letter = ["a", "b", "c", "d"][*col];
            Update::SetCell {
                row: ids[nth % ids.len()],
                col: *col,
                value: Value::str(format!("{col_letter}{val}")),
            }
        }
    };
    m.apply(update).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_matches_batch_after_any_stream(
        table in arb_table(30),
        cfds in arb_cfds(),
        ops in arb_ops(25),
    ) {
        let mut m = monitor(table, &cfds);
        for op in &ops {
            apply(&mut m, op);
        }
        let batch = detect_native(self::table(&m), &cfds).unwrap().normalized();
        prop_assert_eq!(&batch, &m.report().normalized());
        prop_assert_eq!(batch.len() as u64, m.violations());
        for (row, vio) in batch.vio.iter() {
            prop_assert_eq!(m.vio_of(row), vio);
        }
        // Rows the batch does not mention have vio 0.
        for id in self::table(&m).row_ids() {
            if !batch.vio.contains(id) {
                prop_assert_eq!(m.vio_of(id), 0);
            }
        }
    }

    #[test]
    fn update_then_revert_is_identity(
        table in arb_table(25),
        cfds in arb_cfds(),
        nth in 0usize..25,
        col in 0usize..4,
    ) {
        let ids = table.row_ids();
        prop_assume!(!ids.is_empty());
        let target = ids[nth % ids.len()];
        let before = table.cell(target, col).unwrap().clone();
        let mut m = monitor(table, &cfds);
        let total_before = m.violations();
        let report_before = m.report().normalized();

        m.apply(Update::SetCell { row: target, col, value: Value::str("zz-unique") })
            .unwrap();
        let out = m.apply(Update::SetCell { row: target, col, value: before }).unwrap();

        prop_assert_eq!(out.violations, total_before);
        prop_assert_eq!(m.violations(), total_before);
        prop_assert_eq!(&m.report().normalized(), &report_before);
        let batch = detect_native(self::table(&m), &cfds).unwrap().normalized();
        prop_assert_eq!(batch, report_before);
    }
}
