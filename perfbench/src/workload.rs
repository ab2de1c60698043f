//! The three workloads and their seeded operation streams.
//!
//! The data is FedMark's, always generated from [`DATA_SEED`]; the
//! workload seed chooses only the operations: the query order, the lookup
//! keys and the writes. The system under test receives nothing but the
//! generated SQL text and [`UpdateOp`]s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eii::federation::UpdateOp;
use eii::prelude::Value;
use eii::row;
use eii_bench::fedmark::{sizes, FedMark, ScaleFactor};

/// FedMark's data seed (the seed its published runs use).
pub const DATA_SEED: u64 = 13;

/// The open-orders filter view of E20, maintained incrementally.
const VIEW_OPEN_ORDERS: (&str, &str) = (
    "v_open_orders",
    "SELECT order_id, total FROM sales.orders WHERE status = 'open'",
);
/// E20's orders-per-region join aggregate, maintained incrementally.
const VIEW_REGION_ORDERS: (&str, &str) = (
    "v_region_orders",
    "SELECT c.region, COUNT(*) AS orders \
     FROM crm.customers c JOIN sales.orders o ON c.customer_id = o.customer_id \
     GROUP BY c.region",
);

/// First order id handed to inserted orders, above every generated id.
const FIRST_NEW_ORDER: i64 = 10_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FedmarkSf8,
    LookupSf32,
    RwCachedSf8,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FedmarkSf8,
        Workload::LookupSf32,
        Workload::RwCachedSf8,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FedmarkSf8 => "fedmark_sf8",
            Workload::LookupSf32 => "lookup_sf32",
            Workload::RwCachedSf8 => "rw_cached_sf8",
        }
    }

    /// FedMark scale factor of the workload's data.
    pub fn sf(self) -> ScaleFactor {
        match self {
            Workload::LookupSf32 => 32,
            Workload::FedmarkSf8 | Workload::RwCachedSf8 => 8,
        }
    }

    /// Whether the result cache is installed (at its default capacity).
    pub fn cached(self) -> bool {
        !matches!(self, Workload::FedmarkSf8)
    }

    /// The incrementally maintained views the workload defines.
    pub fn views(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::RwCachedSf8 => &[VIEW_OPEN_ORDERS, VIEW_REGION_ORDERS],
            Workload::FedmarkSf8 | Workload::LookupSf32 => &[],
        }
    }

    /// Operations per block, one deck of the stream (see [`Stream`]). A run
    /// stops only at a block boundary, so it holds whole decks.
    pub fn block(self) -> usize {
        match self {
            Workload::FedmarkSf8 => FedMark::queries().len(),
            Workload::LookupSf32 => 100,
            Workload::RwCachedSf8 => 50,
        }
    }

    /// Operations `shipped_bytes_per_op` is taken over: a fixed prefix of
    /// the stream, so the figure repeats exactly for one seed however many
    /// operations the time window fits.
    pub fn bytes_prefix(self) -> usize {
        match self {
            Workload::FedmarkSf8 => 20 * FedMark::queries().len(),
            Workload::LookupSf32 => 2000,
            Workload::RwCachedSf8 => 1000,
        }
    }

    /// Template labels, in the order reports list them.
    pub fn templates(self) -> Vec<&'static str> {
        match self {
            Workload::FedmarkSf8 => FedMark::queries().iter().map(|q| q.0).collect(),
            Workload::LookupSf32 => LOOKUPS.iter().map(|l| l.0).collect(),
            Workload::RwCachedSf8 => {
                let mut t: Vec<&str> = rw_hot().iter().map(|h| h.0).collect();
                t.extend(["lookup", "insert", "update"]);
                t
            }
        }
    }

    /// The warm-up pass run at the end of set-up: each read template once.
    /// It reads only, so it leaves the sources as they were.
    pub fn warmup(self, sf: ScaleFactor) -> Vec<Op> {
        let mut s = Stream::new(self, sf, DATA_SEED);
        match self {
            Workload::FedmarkSf8 => FedMark::queries()
                .into_iter()
                .map(|(id, _, sql)| Op::read(id, sql.to_string()))
                .collect(),
            Workload::LookupSf32 => (0..LOOKUPS.len()).map(|i| s.lookup(i)).collect(),
            Workload::RwCachedSf8 => rw_hot()
                .into_iter()
                .map(|(id, sql)| Op::read(id, sql.to_string()))
                .collect(),
        }
    }
}

/// What an operation does.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// A statement through `EiiSystem::execute`.
    Read(String),
    /// A write through `SourceHandle::update` on the named source.
    Write(&'static str, UpdateOp),
}

/// One operation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Template label (`Q4`, `crm_customer`, `insert`, ...).
    pub template: &'static str,
    pub action: Action,
}

impl Op {
    fn read(template: &'static str, sql: String) -> Op {
        Op {
            template,
            action: Action::Read(sql),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self.action, Action::Write(..))
    }
}

/// `lookup_sf32`'s templates: label, operations per deck of 100, SQL with
/// `{}` for the key, and the key's table size as a function of the scale
/// factor. The first three are keyed rows (70%); the ratings lookup is a
/// bind join. The last three filter on a non-key column and ship more
/// (30%).
type Lookup = (&'static str, u32, &'static str, fn(ScaleFactor) -> i64);
const LOOKUPS: [Lookup; 6] = [
    (
        "crm_customer",
        24,
        "SELECT name, region, segment FROM crm.customers WHERE customer_id = {}",
        customers,
    ),
    (
        "hr_employee",
        23,
        "SELECT name, department, location FROM hr.employees WHERE emp_id = {}",
        employees,
    ),
    (
        "credit_rating",
        23,
        "SELECT c.name, r.rating FROM crm.customers c \
         JOIN credit.ratings r ON c.customer_id = r.customer_id WHERE c.customer_id = {}",
        customers,
    ),
    (
        "sales_orders",
        10,
        "SELECT order_id, total, status FROM sales.orders WHERE customer_id = {}",
        customers,
    ),
    (
        "files_payments",
        10,
        "SELECT payment_id, amount FROM files.payments WHERE customer_id = {}",
        customers,
    ),
    (
        "support_tickets",
        10,
        "SELECT ticket_id, subject FROM support.tickets WHERE customer_id = {}",
        customers,
    ),
];

fn customers(sf: ScaleFactor) -> i64 {
    sizes(sf).0
}

fn employees(sf: ScaleFactor) -> i64 {
    sizes(sf).4
}

/// `rw_cached_sf8`'s hot set: the two view shapes and four FedMark reads.
fn rw_hot() -> [(&'static str, &'static str); 6] {
    let q = |id: &str| {
        FedMark::queries()
            .into_iter()
            .find(|q| q.0 == id)
            .expect("FedMark query exists")
    };
    [
        ("v_open_orders", VIEW_OPEN_ORDERS.1),
        ("v_region_orders", VIEW_REGION_ORDERS.1),
        ("Q1", q("Q1").2),
        ("Q5", q("Q5").2),
        ("Q8", q("Q8").2),
        ("Q10", q("Q10").2),
    ]
}

/// A workload's seeded operation stream over data at scale factor `sf`.
/// Endless; the same seed yields the same operations.
///
/// Operations are dealt from decks of one [`Workload::block`] each: a
/// deck holds a fixed number of each template (FedMark: Q1–Q11 once) in a
/// seeded order with seeded keys. Every block then has the same mix, so
/// seeds differ in order and keys but not in how much of each template a
/// run holds.
pub struct Stream {
    workload: Workload,
    sf: ScaleFactor,
    rng: StdRng,
    /// Operations left in the current deck, last first.
    deck: Vec<Op>,
    next_order: i64,
}

impl Stream {
    pub fn new(workload: Workload, sf: ScaleFactor, seed: u64) -> Stream {
        Stream {
            workload,
            sf,
            rng: StdRng::seed_from_u64(seed),
            deck: Vec::new(),
            next_order: FIRST_NEW_ORDER,
        }
    }

    fn lookup(&mut self, i: usize) -> Op {
        let (id, _, sql, size) = LOOKUPS[i];
        let key = self.rng.gen_range(0..size(self.sf));
        Op::read(id, sql.replace("{}", &key.to_string()))
    }

    fn deal(&mut self) -> Vec<Op> {
        let mut deck = Vec::with_capacity(self.workload.block());
        match self.workload {
            Workload::FedmarkSf8 => deck.extend(
                FedMark::queries()
                    .into_iter()
                    .map(|(id, _, sql)| Op::read(id, sql.to_string())),
            ),
            Workload::LookupSf32 => {
                for (i, l) in LOOKUPS.iter().enumerate() {
                    for _ in 0..l.1 {
                        let op = self.lookup(i);
                        deck.push(op);
                    }
                }
            }
            Workload::RwCachedSf8 => {
                for _ in 0..5 {
                    let insert = self.insert();
                    let update = self.update();
                    deck.extend([insert, update]);
                }
                for _ in 0..4 {
                    deck.extend(
                        rw_hot()
                            .into_iter()
                            .map(|(id, sql)| Op::read(id, sql.to_string())),
                    );
                }
                let n_cust = sizes(self.sf).0;
                for _ in 0..16 {
                    let key = self.rng.gen_range(0..n_cust);
                    deck.push(Op::read(
                        "lookup",
                        format!("SELECT name FROM crm.customers WHERE customer_id = {key}"),
                    ));
                }
            }
        }
        debug_assert_eq!(deck.len(), self.workload.block());
        // Fisher–Yates.
        for i in (1..deck.len()).rev() {
            let j = self.rng.gen_range(0..i + 1);
            deck.swap(i, j);
        }
        deck
    }

    fn insert(&mut self) -> Op {
        let n_cust = sizes(self.sf).0;
        let row = row![
            self.next_order,
            self.rng.gen_range(0..n_cust),
            (self.rng.gen_range(1..2000) as f64) / 2.0,
            if self.rng.gen_bool(0.5) {
                "open"
            } else {
                "shipped"
            },
            Value::Timestamp(self.rng.gen_range(0..1_000_000))
        ];
        self.next_order += 1;
        Op {
            template: "insert",
            action: Action::Write(
                "sales",
                UpdateOp::Insert {
                    table: "orders".into(),
                    row,
                },
            ),
        }
    }

    fn update(&mut self) -> Op {
        let n_ord = sizes(self.sf).1;
        let status = ["open", "shipped", "billed"][self.rng.gen_range(0..3)];
        Op {
            template: "update",
            action: Action::Write(
                "sales",
                UpdateOp::UpdateByKey {
                    table: "orders".into(),
                    key: Value::Int(self.rng.gen_range(0..n_ord)),
                    assignments: vec![("status".into(), Value::from(status))],
                },
            ),
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.deck.is_empty() {
            self.deck = self.deal();
        }
        self.deck.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_stream_and_another_seed_other_keys() {
        for w in Workload::ALL {
            let a: Vec<Op> = Stream::new(w, w.sf(), 1).take(500).collect();
            let b: Vec<Op> = Stream::new(w, w.sf(), 1).take(500).collect();
            let c: Vec<Op> = Stream::new(w, w.sf(), 2).take(500).collect();
            assert_eq!(a, b, "{}: same seed, same stream", w.name());
            assert_ne!(a, c, "{}: another seed changes the stream", w.name());
        }
        // On the lookup workload a different seed changes the keys, not
        // only the order.
        let sqls = |seed| -> std::collections::BTreeSet<String> {
            Stream::new(Workload::LookupSf32, 32, seed)
                .take(200)
                .filter_map(|op| match op.action {
                    Action::Read(sql) => Some(sql),
                    Action::Write(..) => None,
                })
                .collect()
        };
        assert_ne!(sqls(1), sqls(2));
    }

    #[test]
    fn fedmark_rounds_run_every_query_once() {
        let n = FedMark::queries().len();
        let ops: Vec<Op> = Stream::new(Workload::FedmarkSf8, 8, 5)
            .take(3 * n)
            .collect();
        for round in ops.chunks(n) {
            let mut ids: Vec<&str> = round.iter().map(|o| o.template).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n);
        }
    }

    #[test]
    fn every_deck_has_the_same_mix() {
        for w in Workload::ALL {
            let mix = |deck: &[Op]| {
                let mut t: Vec<&str> = deck.iter().map(|o| o.template).collect();
                t.sort_unstable();
                t
            };
            let ops: Vec<Op> = Stream::new(w, w.sf(), 4).take(3 * w.block()).collect();
            let decks: Vec<&[Op]> = ops.chunks(w.block()).collect();
            assert_eq!(mix(decks[0]), mix(decks[1]), "{}", w.name());
            assert_eq!(mix(decks[0]), mix(decks[2]), "{}", w.name());
        }
    }

    #[test]
    fn every_template_is_listed() {
        for w in Workload::ALL {
            let listed = w.templates();
            for op in Stream::new(w, w.sf(), 3).take(2000).chain(w.warmup(w.sf())) {
                assert!(
                    listed.contains(&op.template),
                    "{}: {}",
                    w.name(),
                    op.template
                );
            }
        }
    }
}
