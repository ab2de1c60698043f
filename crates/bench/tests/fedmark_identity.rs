//! FedMark identity gate: the Q1–Q11 suite at sf 8 (data seed 13, the
//! benchmark's data) must keep its answers, simulated ms and ledger bytes
//! bit for bit. Source access paths and statistics caching are pure
//! performance work; any drift here means a change altered what a source
//! returns, in what order, or what the cost model charges for it.
//!
//! The golden values were taken from the engine before bound fetches
//! became one-pass and statistics became per-version memos. To re-pin
//! after a deliberate change (for example a cost-accounting fix), run
//! `cargo test -p eii-bench --test fedmark_identity -- --nocapture` and
//! copy the printed table.

use eii::data::Batch;
use eii_bench::fedmark::FedMark;

const SF: usize = 8;
const DATA_SEED: u64 = 13;

/// `(query id, rows, row-order-sensitive answer digest, sim_ms bits,
/// ledger bytes shipped by the query)`.
const GOLDEN: [(&str, usize, u64, u64, usize); 11] = [
    ("Q1", 26, 0x3c4e03869f955c90, 0x40068df266ba493c, 631),
    ("Q2", 51, 0x2ade54ac836d71ff, 0x4045ddec80c73abd, 4148),
    ("Q3", 8, 0x48473b16eb3404f4, 0x4052a353f7ced918, 110400),
    ("Q4", 6, 0xda9142a2bb176838, 0x406d4aca57a786c1, 378536),
    ("Q5", 286, 0xbe4be7473da7fd07, 0x4018e34eb9a176dd, 23298),
    ("Q6", 597, 0xf8b7a0acb4c0d453, 0x404d58c49ba5e353, 78484),
    ("Q7", 278, 0x20f5fe96e1de7d0c, 0x400707cd898b2e9d, 5570),
    ("Q8", 104, 0xf9f2e9a8487f1e7a, 0x40b043834f616723, 5323),
    ("Q9", 10, 0xcc3a6456e15bb51c, 0x4053446d9be4cd76, 122919),
    ("Q10", 307, 0x96e71f338955037a, 0x40096ac322291fb4, 7013),
    ("Q11", 2, 0x3ee69f0408a677e3, 0x404dcd0e56041893, 74919),
];

/// FNV-1a over the column names and the rows *in the order returned*.
fn ordered_digest(batch: &Batch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in batch.schema().fields() {
        feed(f.name.as_bytes());
        feed(b"\x1f");
    }
    for r in batch.rows() {
        feed(format!("{r:?}").as_bytes());
        feed(b"\x1e");
    }
    h
}

#[test]
fn fedmark_sf8_answers_sim_ms_and_bytes_are_pinned() {
    let env = FedMark::build(SF, DATA_SEED).expect("FedMark builds");
    let ledger = env.system.federation().ledger();
    let mut observed = Vec::new();
    for (id, _, sql) in FedMark::queries() {
        let before = ledger.total().bytes;
        let out = env
            .system
            .execute(sql)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let result = out.query_result().expect("a query");
        observed.push((
            id,
            result.batch.num_rows(),
            ordered_digest(&result.batch),
            result.cost.sim_ms.to_bits(),
            ledger.total().bytes - before,
        ));
    }
    for (id, rows, digest, sim_bits, bytes) in &observed {
        println!("    (\"{id}\", {rows}, {digest:#018x}, {sim_bits:#018x}, {bytes}),");
    }
    for (got, want) in observed.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            got, want,
            "FedMark sf {SF} drifted from its pinned identity"
        );
    }
}
