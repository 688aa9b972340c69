//! End-to-end §8 test on a realistic database: spill the full simulated
//! financial database (Fig. 1 schema, ≈76 K tuples) and verify disk
//! propagation along the prop-paths CrossMine actually uses in Table 2,
//! under a buffer pool far smaller than the data.

use crossmine_core::idset::TargetSet;
use crossmine_core::propagation::{propagate, try_propagate, ClauseState};
use crossmine_datasets::{generate_financial, FinancialConfig};
use crossmine_relational::{ClassLabel, JoinGraph};
use crossmine_storage::{DiskDatabase, DiskSource, PAGE_SIZE};

#[test]
fn financial_database_spills_and_propagates() {
    let db = generate_financial(&FinancialConfig::small());
    let path =
        std::env::temp_dir().join(format!("crossmine-finspill-{}.pages", std::process::id()));
    let pool_pages = 8; // 64 KiB of cache
    let mut disk = DiskDatabase::spill(&db, &path, pool_pages).unwrap();

    // The file must dwarf the pool (else the test proves nothing).
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        file_len > (4 * pool_pages * PAGE_SIZE) as u64,
        "data ({file_len} B) should be much larger than the pool"
    );

    let graph = JoinGraph::build(&db.schema);
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
    let loan = db.target().unwrap();

    // Loan -> Account (the first hop of most Table 2 clauses), then one
    // further hop from Account in every direction (District via fk->pk,
    // Orders/Trans via fk–fk, back to Loan) — covering every §3.1 edge kind
    // on real-shaped data.
    let first = *graph
        .edges()
        .iter()
        .find(|e| e.from == loan && db.schema.relation(e.to).name == "Account")
        .expect("Loan -> Account edge");
    let source = DiskSource::new(&mut disk);
    let mem1 = state.propagate_edge(&first);
    let dsk1 = try_propagate(&source, state.annotation(loan).unwrap(), &first).unwrap();
    assert_eq!(mem1.idsets, dsk1.idsets, "Loan -> Account");

    let mut hops = 0;
    for edge2 in graph.edges_from(first.to) {
        let mem2 = propagate(&db, &mem1, edge2);
        let dsk2 = try_propagate(&source, &dsk1, edge2).unwrap();
        assert_eq!(mem2.idsets, dsk2.idsets, "Account -> {}", db.schema.relation(edge2.to).name);
        hops += 1;
    }
    assert!(hops >= 3, "Account should reach several relations, got {hops}");
    drop(source);
    assert!(disk.resident_pages() <= pool_pages);
    assert!(disk.stats().evictions > 0, "the pool must have been under pressure");
    std::fs::remove_file(&path).ok();
}
