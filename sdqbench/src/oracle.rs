//! The correctness gate: what the program answered against what the
//! `detect_native` oracle and `quality_report` say about a reference
//! table built by applying the acknowledged ops serially.

use api::wire::{AuditSummary, ReportSummary};
use api::{dispatch, Mutation, QualityBackend, Request, Response};
use cfd::Cfd;
use minidb::{RowId, Table, Value};

/// The three answers a workload's final state is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    /// Reply to `Detect`.
    pub detect: Response,
    /// Reply to `Audit`.
    pub audit: Response,
    /// Reply to `Len`.
    pub len: Response,
}

impl Answers {
    /// Ask `ask` the three questions.
    pub fn ask(mut ask: impl FnMut(Request) -> Response) -> Answers {
        Answers {
            detect: ask(Request::Detect),
            audit: ask(Request::Audit),
            len: ask(Request::Len),
        }
    }

    /// Ask a backend directly (in process, through `dispatch`).
    pub fn of_backend(backend: &mut dyn QualityBackend) -> Answers {
        Answers::ask(|request| dispatch(backend, request))
    }

    /// What the oracle says about `table` under `cfds`.
    pub fn of_oracle(table: &Table, cfds: &[Cfd]) -> Answers {
        let report = detect::detect_native(table, cfds).expect("oracle detects");
        let audit = audit::quality_report(table, cfds, &report).expect("oracle audits");
        Answers {
            detect: Response::Report(ReportSummary::of(&report)),
            audit: Response::Audited(AuditSummary::of(&audit)),
            len: Response::Len { rows: table.len() },
        }
    }

    /// One line per answer that differs from `expected`.
    pub fn mismatches(&self, expected: &Answers, who: &str) -> Vec<String> {
        [
            ("Detect", &self.detect, &expected.detect),
            ("Audit", &self.audit, &expected.audit),
            ("Len", &self.len, &expected.len),
        ]
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{who}: {what} answered {got:?}, oracle says {want:?}"))
        .collect()
    }
}

/// Does `response` acknowledge `request`? A read must come back as its
/// own reply kind, a mutation as its own acknowledgement.
pub fn acknowledges(request: &Request, response: &Response) -> bool {
    matches!(
        (request, response),
        (Request::Detect, Response::Report(_))
            | (Request::Audit, Response::Audited(_))
            | (Request::LastReport, Response::Report(_))
            | (Request::Len, Response::Len { .. })
            | (Request::RegisterCfds { .. }, Response::Registered { .. })
            | (Request::Insert { .. }, Response::Inserted { .. })
            | (Request::Delete { .. }, Response::Deleted { .. })
            | (Request::UpdateCell { .. }, Response::CellUpdated { .. })
            | (Request::ApplyBatch { .. }, Response::BatchApplied { .. })
            | (Request::Repair, Response::Repaired(_))
    )
}

/// An acknowledged mutating request and its reply.
pub type Acked = (Request, Response);

/// Apply every acknowledged mutation of every connection to a copy of
/// `base`. Connections touch disjoint rows, so their logs commute; rows
/// go in under the ids the service assigned (ascending, as `insert_at`
/// demands), then each connection's updates and deletes follow in its
/// own order.
pub fn reference_table(base: &Table, logs: &[Vec<Acked>]) -> Result<Table, String> {
    let mut table = base.clone();
    let mut inserted: Vec<(RowId, Vec<Value>)> = Vec::new();
    for (request, response) in logs.iter().flatten() {
        match (request, response) {
            (Request::Insert { row }, Response::Inserted { row: id }) => {
                inserted.push((*id, row.clone()));
            }
            (Request::ApplyBatch { batch }, Response::BatchApplied { inserted: ids, .. }) => {
                let rows = batch.mutations.iter().filter_map(|m| match m {
                    Mutation::Insert(row) => Some(row.clone()),
                    _ => None,
                });
                inserted.extend(ids.iter().copied().zip(rows));
            }
            _ => {}
        }
    }
    inserted.sort_by_key(|(id, _)| *id);
    table
        .insert_at_many(inserted)
        .map_err(|e| format!("reference insert: {e}"))?;
    let mut apply = |m: &Mutation| -> Result<(), String> {
        match m {
            Mutation::Insert(_) => Ok(()),
            Mutation::Delete(id) => table.delete(*id).map(drop),
            Mutation::SetCell { row, col, value } => {
                table.update_cell(*row, *col, value.clone()).map(drop)
            }
        }
        .map_err(|e| format!("reference apply: {e}"))
    };
    for (request, _) in logs.iter().flatten() {
        match request {
            Request::Delete { row } => apply(&Mutation::Delete(*row))?,
            Request::UpdateCell { row, col, value } => apply(&Mutation::SetCell {
                row: *row,
                col: *col,
                value: value.clone(),
            })?,
            Request::ApplyBatch { batch } => batch.mutations.iter().try_for_each(&mut apply)?,
            _ => {}
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Sizes, Workload, World};
    use crate::stack::loaded_server;

    #[test]
    fn oracle_agrees_with_the_server_and_catches_a_planted_wrong_reply() {
        let world = World::generate(Workload::ClusterMixed, Sizes::SMOKE, 11);
        let mut server = loaded_server(&world.db);
        let donor = world.donors[0].clone();
        let log: Vec<Acked> = [
            Request::Insert { row: donor.clone() },
            Request::UpdateCell {
                row: RowId(3),
                col: 2,
                value: Value::str("NOWHERE"),
            },
            Request::Delete { row: RowId(5) },
        ]
        .into_iter()
        .map(|request| (request.clone(), dispatch(&mut server, request)))
        .collect();
        assert!(log.iter().all(|(q, r)| acknowledges(q, r)));

        let reference = reference_table(world.table(), &[log]).unwrap();
        let expected = Answers::of_oracle(&reference, &world.cfds);
        let served = Answers::of_backend(&mut server);
        assert_eq!(served.mismatches(&expected, "server"), Vec::<String>::new());

        // Plant a wrong reply: one row too many, one violation too few.
        let mut wrong = served.clone();
        wrong.len = Response::Len {
            rows: reference.len() + 1,
        };
        if let Response::Report(summary) = &mut wrong.detect {
            summary.violations -= 1;
        }
        let found = wrong.mismatches(&expected, "planted");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("Detect") && found[1].contains("Len"));
        assert!(!acknowledges(
            &Request::Detect,
            &Response::Error {
                message: "refused".into()
            }
        ));
    }
}
