//! Disk-resident CrossMine (paper §8): spill a generated database to a page
//! file, run tuple-ID propagation and literal counting through a small
//! buffer pool, and verify the results equal the in-memory versions while
//! memory stays bounded.
//!
//! Run with: `cargo run --release --example disk_resident`

use crossmine::core::idset::{Stamp, TargetSet};
use crossmine::core::propagation::{try_propagate, ClauseState};
use crossmine::storage::{categorical_counts_disk, DiskDatabase, DiskSource};
use crossmine::{ClassLabel, GenParams, JoinGraph};

fn main() {
    // A database big enough that its pages dwarf the buffer pool.
    let params = GenParams { num_relations: 10, expected_tuples: 5000, ..Default::default() };
    let db = crossmine::generate(&params);
    println!(
        "generated {}: {} tuples across {} relations",
        params.name(),
        db.total_tuples(),
        db.schema.num_relations()
    );

    let path = std::env::temp_dir().join("crossmine-disk-demo.pages");
    let pool_pages = 16; // 16 × 8 KiB = 128 KiB of page cache
    let mut disk = DiskDatabase::spill(&db, &path, pool_pages).expect("spill");
    let file_size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "spilled to {} ({:.1} MiB on disk, {} KiB buffer pool)",
        path.display(),
        file_size as f64 / (1024.0 * 1024.0),
        pool_pages * 8
    );

    // In-memory reference state.
    let graph = JoinGraph::build(&db.schema);
    let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
    let targets = TargetSet::all(&is_pos);
    let state = ClauseState::new(&db, &is_pos, targets.clone());
    let target = db.target().expect("target");

    // Propagate across every edge leaving the target, both ways.
    let mut checked = 0;
    for edge in graph.edges_from(target) {
        let mem = state.propagate_edge(edge);
        let dsk =
            try_propagate(&DiskSource::new(&mut disk), state.annotation(target).unwrap(), edge)
                .expect("disk propagation");
        assert_eq!(mem.idsets, dsk.idsets, "disk propagation must equal in-memory");
        checked += 1;

        // And a §8.2 one-scan literal count on the first categorical
        // attribute of the reached relation.
        if let Some((aid, attr)) =
            db.schema.relation(edge.to).iter_attrs().find(|(_, a)| a.ty.is_categorical())
        {
            let mut stamp = Stamp::new(db.num_targets());
            let counts = categorical_counts_disk(
                &mut disk, edge.to, aid, &dsk, &targets, &is_pos, &mut stamp,
            )
            .expect("disk literal counts");
            let total: usize = counts.iter().map(|(p, n)| p + n).sum();
            println!(
                "  edge -> {}: propagation verified; literal counts over {} ({} values, {} target hits)",
                db.schema.relation(edge.to).name,
                attr.name,
                counts.len(),
                total
            );
        }
    }

    let stats = disk.stats();
    println!(
        "\nverified {checked} edges. buffer pool: {} hits, {} misses, {} evictions, {} writebacks (resident {} pages)",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.writebacks,
        disk.resident_pages()
    );
    println!("memory stayed bounded at {pool_pages} pages while the data lived on disk.");
    std::fs::remove_file(&path).ok();
}
