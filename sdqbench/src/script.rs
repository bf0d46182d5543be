//! Seeded inputs: the relation each workload serves and the op script
//! each connection sends. Everything here is a pure function of the
//! seed; the program under test only ever sees the generated requests.

use api::{Mutation, MutationBatch, Request};
use cfd::Cfd;
use datagen::customer::CANONICAL_CFDS;
use minidb::{Database, RowId, Table, Value};

/// The relation every workload audits.
pub const RELATION: &str = "customer";
/// Noise rate of the generated customers.
pub const NOISE: f64 = 0.05;
/// Outstanding mutating requests per connection on `svc_ingest_burst`.
pub const PIPELINE_DEPTH: usize = 4;
/// Reads per probe on `svc_ingest_burst`: enough that their median is
/// the warm read path, not the first wake-up after a sleep.
pub const PROBE_READS: usize = 16;
/// One cycle of the burst's writes: insert 45%, update 25%, delete 20%,
/// batch 10%.
const BURST_MIX: &[u8; 20] = b"iiiiiiiiiuuuuuddddbb";
/// Inserts per `ApplyBatch`.
pub const BATCH_ROWS: usize = 64;
/// Columns an `UpdateCell` may overwrite: CITY, ZIP, STR, CC. NAME is
/// unconstrained and CNT is the cluster's routing key.
const UPDATE_COLS: [usize; 4] = [2, 3, 4, 5];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `svc_read_heavy`
    ReadHeavy,
    /// `svc_ingest_burst`
    IngestBurst,
    /// `svc_cluster_mixed`
    ClusterMixed,
    /// `batch_clean`
    BatchClean,
}

impl Workload {
    /// All four, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHeavy,
        Workload::IngestBurst,
        Workload::ClusterMixed,
        Workload::BatchClean,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "svc_read_heavy",
            Workload::IngestBurst => "svc_ingest_burst",
            Workload::ClusterMixed => "svc_cluster_mixed",
            Workload::BatchClean => "batch_clean",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the workload run behind the TCP service?
    pub fn is_service(self) -> bool {
        self != Workload::BatchClean
    }

    /// Is the served backend wrapped in `Durable` (WAL on, fsync on)?
    pub fn is_durable(self) -> bool {
        matches!(self, Workload::ReadHeavy | Workload::IngestBurst)
    }
}

/// Relation sizes. Fixed by the benchmark; `--smoke` shrinks them so a
/// debug build finishes in about a second per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Rows behind the three service workloads.
    pub service_rows: usize,
    /// Rows of `batch_clean`'s detect and audit steps.
    pub batch_rows: usize,
    /// Rows of `batch_clean`'s repair and SQL steps.
    pub repair_rows: usize,
    /// Own inserted rows the burst keeps live before deleting its oldest.
    pub window: usize,
}

impl Sizes {
    /// The sizes every comparison uses.
    pub const FULL: Sizes = Sizes {
        service_rows: 50_000,
        batch_rows: 100_000,
        repair_rows: 20_000,
        window: 2_000,
    };
    /// The `--smoke` sizes.
    pub const SMOKE: Sizes = Sizes {
        service_rows: 2_000,
        batch_rows: 3_000,
        repair_rows: 600,
        window: 100,
    };
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generated relation(s) of one run.
pub struct World {
    /// The workload's main relation: 50k rows behind a service, 100k for
    /// `batch_clean`.
    pub db: Database,
    /// `batch_clean`'s second, smaller relation (repair and SQL steps).
    pub repair_db: Option<Database>,
    /// The canonical CFDs, parsed.
    pub cfds: Vec<Cfd>,
    /// Rows a script inserts, drawn from a second generated relation.
    pub donors: Vec<Vec<Value>>,
}

impl World {
    /// Generate the relations for `workload` from `seed`.
    pub fn generate(workload: Workload, sizes: Sizes, seed: u64) -> World {
        let main_rows = if workload.is_service() {
            sizes.service_rows
        } else {
            sizes.batch_rows
        };
        let main = datagen::dirty_customers(main_rows, NOISE, seed);
        let repair_db = (!workload.is_service())
            .then(|| datagen::dirty_customers(sizes.repair_rows, NOISE, seed ^ 0xB47C).db);
        let donors = if workload.is_service() {
            let extra = datagen::dirty_customers(4_096.min(main_rows), NOISE, seed ^ 0xD0_4095);
            let table = extra.db.table(RELATION).expect("generated relation");
            table.iter().map(|(_, row)| row.to_vec()).collect()
        } else {
            Vec::new()
        };
        World {
            db: main.db,
            repair_db,
            cfds: main.cfds,
            donors,
        }
    }

    /// The main relation.
    pub fn table(&self) -> &Table {
        self.db.table(RELATION).expect("generated relation")
    }
}

/// The rule text every backend registers.
pub const RULES: &str = CANONICAL_CFDS;

/// One scripted op. Rows a connection inserted itself are named by their
/// position in its own insert order (`mine`), because the service
/// assigns the ids; [`Op::request`] fills them in from the replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read-only request.
    Read(Request),
    /// Insert one row.
    Insert(Vec<Value>),
    /// Overwrite one cell of a base row.
    Update {
        /// Base row id.
        row: u64,
        /// Column.
        col: usize,
        /// New value.
        value: Value,
    },
    /// Delete the connection's `mine`-th insert.
    Delete {
        /// Position in the connection's insert order.
        mine: usize,
    },
    /// `ApplyBatch`: delete own inserts that fell behind the window, then
    /// insert [`BATCH_ROWS`] rows.
    Batch {
        /// Own inserts to delete first.
        deletes: Vec<usize>,
        /// Rows to insert.
        inserts: Vec<Vec<Value>>,
    },
}

impl Op {
    /// The wire request, with own-insert positions resolved through the
    /// ids the service has acknowledged so far.
    pub fn request(&self, mine: &[RowId]) -> Request {
        match self {
            Op::Read(request) => request.clone(),
            Op::Insert(row) => Request::Insert { row: row.clone() },
            Op::Update { row, col, value } => Request::UpdateCell {
                row: RowId(*row),
                col: *col,
                value: value.clone(),
            },
            Op::Delete { mine: k } => Request::Delete { row: mine[*k] },
            Op::Batch { deletes, inserts } => Request::ApplyBatch {
                batch: MutationBatch::from(
                    deletes
                        .iter()
                        .map(|&k| Mutation::Delete(mine[k]))
                        .chain(inserts.iter().cloned().map(Mutation::Insert))
                        .collect::<Vec<_>>(),
                ),
            },
        }
    }

    /// Rows the op mutates (0 for a read; a batch counts its rows).
    pub fn rows(&self) -> usize {
        match self {
            Op::Read(_) => 0,
            Op::Batch { deletes, inserts } => deletes.len() + inserts.len(),
            _ => 1,
        }
    }
}

/// Which role a connection plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `svc_read_heavy`, connection R: reads only,
    /// `Detect`:`Audit`:`LastReport`:`Len` = 6:2:1:1.
    Reader,
    /// `svc_read_heavy`, connection W: one `UpdateCell` per tick.
    Ticker,
    /// `svc_ingest_burst`, the writing connection: per 20 requests 9
    /// `Insert`, 5 `UpdateCell`, 4 `Delete`, 2 `ApplyBatch`, in a seeded
    /// order.
    Burst,
    /// `svc_ingest_burst`, the probing connection: a few reads per tick,
    /// `Detect`:`Audit` = 3:1.
    Prober,
    /// `svc_cluster_mixed`: per ten ops one `Insert`, one `UpdateCell`,
    /// eight `Detect`/`Audit` (3:1).
    Mixed,
}

/// The op script of one connection: an endless, deterministic stream.
/// A writing script updates only the base rows of its own lane and
/// deletes only its own inserts, so two writers never race on a row and
/// the final state does not depend on how they interleave. The measured
/// phase has one writer per workload (lane 0 of 1); the two-writer pass
/// of the traced run gives each connection its half.
pub struct Script<'w> {
    role: Role,
    world: &'w World,
    rng: Rng,
    /// `(k, n)`: this script owns the `k`-th of `n` equal ranges of the
    /// base rows.
    lane: (usize, usize),
    window: usize,
    /// Ops generated so far.
    issued_ops: usize,
    /// Own inserts issued after each op (`inserts_after[i]` = count once
    /// op `i` is sent). A delete may only name an insert that was sent
    /// more than a pipeline ago, so its id has been acknowledged.
    inserts_after: Vec<usize>,
    /// Own inserts deleted so far (always the oldest first).
    deleted: usize,
    next_donor: usize,
    /// What is left of the burst's current cycle of 20 writes.
    cycle: Vec<u8>,
}

impl<'w> Script<'w> {
    /// The script `role` plays over `world` under `seed`, as writer
    /// `lane.0` of `lane.1`.
    pub fn new(
        role: Role,
        world: &'w World,
        sizes: Sizes,
        seed: u64,
        lane: (usize, usize),
    ) -> Script<'w> {
        let (k, n) = lane;
        assert!(k < n, "lane {k} of {n}");
        Script {
            role,
            world,
            rng: Rng::new(seed ^ 0xC0_22_5C_21 ^ ((k as u64) << 40)),
            lane,
            window: sizes.window,
            issued_ops: 0,
            inserts_after: Vec::new(),
            deleted: 0,
            next_donor: k * world.donors.len() / n,
            cycle: Vec::new(),
        }
    }

    /// The base rows this script may update.
    pub fn own_rows(&self) -> std::ops::Range<usize> {
        let (k, n) = self.lane;
        let rows = self.world.table().len();
        k * rows / n..(k + 1) * rows / n
    }

    fn inserted(&self) -> usize {
        self.inserts_after.last().copied().unwrap_or(0)
    }

    /// Own inserts whose ids are certainly acknowledged by now.
    fn acknowledged(&self) -> usize {
        self.issued_ops
            .checked_sub(PIPELINE_DEPTH + 1)
            .map_or(0, |i| self.inserts_after[i])
    }

    fn donor(&mut self) -> Vec<Value> {
        let row = self.world.donors[self.next_donor % self.world.donors.len()].clone();
        self.next_donor += 1;
        row
    }

    fn read(&mut self) -> Op {
        Op::Read(match self.role {
            Role::Reader => match self.rng.below(10) {
                0..=5 => Request::Detect,
                6..=7 => Request::Audit,
                8 => Request::LastReport,
                _ => Request::Len,
            },
            _ => match self.rng.below(4) {
                0 => Request::Audit,
                _ => Request::Detect,
            },
        })
    }

    fn update(&mut self) -> Op {
        let own = self.own_rows();
        let row = own.start + self.rng.below(own.len());
        let col = UPDATE_COLS[self.rng.below(UPDATE_COLS.len())];
        // Another row's value of the same column: sometimes that breaks a
        // rule, sometimes it mends one.
        let from = RowId(self.rng.below(self.world.table().len()) as u64);
        let value = self
            .world
            .table()
            .cell(from, col)
            .expect("base rows are live")
            .clone();
        Op::Update {
            row: row as u64,
            col,
            value,
        }
    }

    fn delete(&mut self) -> Op {
        if self.deleted < self.acknowledged() {
            self.deleted += 1;
            Op::Delete {
                mine: self.deleted - 1,
            }
        } else {
            // Nothing of its own is old enough to delete yet.
            self.update()
        }
    }

    fn batch(&mut self) -> Op {
        let live = self.inserted() - self.deleted;
        let surplus = (live + BATCH_ROWS).saturating_sub(self.window);
        let n = surplus.min(self.acknowledged() - self.deleted);
        let deletes = (self.deleted..self.deleted + n).collect();
        self.deleted += n;
        Op::Batch {
            deletes,
            inserts: (0..BATCH_ROWS).map(|_| self.donor()).collect(),
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued_ops;
        let op = match self.role {
            Role::Reader => self.read(),
            Role::Ticker => self.update(),
            Role::Mixed => match i % 10 {
                0 => Op::Insert(self.donor()),
                5 => self.update(),
                _ => self.read(),
            },
            Role::Prober => self.read(),
            Role::Burst => {
                if self.cycle.is_empty() {
                    // Every 20 writes hold the mix exactly, in a seeded
                    // order: a run's row count does not ride on how many
                    // batches a random draw happened to give it.
                    self.cycle = BURST_MIX.to_vec();
                    for i in (1..self.cycle.len()).rev() {
                        self.cycle.swap(i, self.rng.below(i + 1));
                    }
                }
                match self.cycle.pop() {
                    Some(b'i') => Op::Insert(self.donor()),
                    Some(b'u') => self.update(),
                    Some(b'd') => self.delete(),
                    _ => self.batch(),
                }
            }
        };
        let added = match &op {
            Op::Insert(_) => 1,
            Op::Batch { inserts, .. } => inserts.len(),
            _ => 0,
        };
        self.inserts_after.push(self.inserted() + added);
        self.issued_ops += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(Workload::IngestBurst, Sizes::SMOKE, 11)
    }

    fn lane_ops(role: Role, world: &World, seed: u64, n: usize, lane: (usize, usize)) -> Vec<Op> {
        let mut script = Script::new(role, world, Sizes::SMOKE, seed, lane);
        (0..n).map(|_| script.next_op()).collect()
    }

    fn ops(role: Role, world: &World, seed: u64, n: usize) -> Vec<Op> {
        lane_ops(role, world, seed, n, (0, 1))
    }

    #[test]
    fn same_seed_gives_the_same_world_and_script() {
        let (a, b) = (world(), world());
        let rows =
            |w: &World| -> Vec<Vec<Value>> { w.table().iter().map(|(_, r)| r.to_vec()).collect() };
        assert_eq!(rows(&a), rows(&b));
        assert_eq!(a.donors, b.donors);
        for role in [
            Role::Reader,
            Role::Ticker,
            Role::Burst,
            Role::Prober,
            Role::Mixed,
        ] {
            assert_eq!(ops(role, &a, 11, 500), ops(role, &b, 11, 500), "{role:?}");
            assert_ne!(
                ops(role, &a, 11, 500),
                ops(role, &a, 12, 500),
                "{role:?}: another seed is another script"
            );
        }
    }

    #[test]
    fn a_script_deletes_only_its_own_acknowledged_inserts_and_holds_its_window() {
        let w = world();
        for role in [Role::Burst, Role::Mixed] {
            let mut sent: Vec<usize> = Vec::new(); // own inserts issued after each op
            let mut deleted = 0;
            for (i, op) in ops(role, &w, 11, 3_000).iter().enumerate() {
                let acked = i.checked_sub(PIPELINE_DEPTH + 1).map_or(0, |j| sent[j]);
                let mut inserted = sent.last().copied().unwrap_or(0);
                let mut check_delete = |k: usize| {
                    assert_eq!(k, deleted, "oldest first, each once");
                    assert!(k < acked, "op {i} deletes an unacknowledged insert");
                    deleted += 1;
                };
                match op {
                    Op::Update { row, col, .. } => {
                        assert!(
                            (*row as usize) < w.table().len(),
                            "only base rows are updated"
                        );
                        assert!(UPDATE_COLS.contains(col));
                    }
                    Op::Delete { mine } => check_delete(*mine),
                    Op::Batch { deletes, inserts } => {
                        deletes.iter().for_each(|&k| check_delete(k));
                        assert_eq!(inserts.len(), BATCH_ROWS);
                        inserted += inserts.len();
                    }
                    Op::Insert(_) => inserted += 1,
                    Op::Read(r) => assert!(r.is_read_only()),
                }
                sent.push(inserted);
                if role == Role::Burst {
                    // Live own inserts stay near the window, whatever the speed.
                    assert!(
                        inserted - deleted
                            <= Sizes::SMOKE.window + (PIPELINE_DEPTH + 2) * BATCH_ROWS,
                        "op {i}: {} live",
                        inserted - deleted
                    );
                }
            }
        }
    }

    #[test]
    fn two_writers_get_different_scripts_over_disjoint_row_ranges() {
        let w = world();
        let half = w.table().len() as u64 / 2;
        for role in [Role::Burst, Role::Mixed] {
            let updated = |lane| -> Vec<u64> {
                lane_ops(role, &w, 11, 2_000, lane)
                    .iter()
                    .filter_map(|op| match op {
                        Op::Update { row, .. } => Some(*row),
                        _ => None,
                    })
                    .collect()
            };
            let (low, high) = (updated((0, 2)), updated((1, 2)));
            assert!(low.len() > 100 && high.len() > 100, "{role:?}");
            assert!(low.iter().all(|row| *row < half), "{role:?}");
            assert!(high.iter().all(|row| *row >= half), "{role:?}");
            assert_ne!(
                lane_ops(role, &w, 11, 100, (0, 2)),
                lane_ops(role, &w, 11, 100, (1, 2)),
                "{role:?}"
            );
        }
    }

    #[test]
    fn roles_keep_their_mix() {
        let w = world();
        let count = |role, pred: fn(&Op) -> bool| {
            ops(role, &w, 11, 8_000)
                .iter()
                .filter(|op| pred(op))
                .count()
        };
        let detects = count(Role::Reader, |op| matches!(op, Op::Read(Request::Detect)));
        assert!(
            (4_500..5_100).contains(&detects),
            "6 in 10 reads detect: {detects}"
        );
        assert_eq!(count(Role::Mixed, |op| matches!(op, Op::Read(_))), 6_400);
        assert_eq!(count(Role::Prober, |op| matches!(op, Op::Read(_))), 8_000);
        assert_eq!(count(Role::Burst, |op| matches!(op, Op::Batch { .. })), 800);
        assert_eq!(count(Role::Burst, |op| matches!(op, Op::Insert(_))), 3_600);
        // A delete with nothing of its own left to delete (the batches trim
        // to the window too) goes out as an update.
        let deletes = count(Role::Burst, |op| matches!(op, Op::Delete { .. }));
        assert!((1_500..=1_600).contains(&deletes), "{deletes}");
        assert_eq!(
            count(Role::Ticker, |op| matches!(op, Op::Update { .. })),
            8_000
        );
    }
}
