//! # crossmine-storage
//!
//! Disk-resident operation for CrossMine — the §8 discussion of the paper,
//! implemented: "In some real applications the dataset cannot fit in main
//! memory. [...] all the operations of CrossMine can be performed
//! efficiently on data stored on disks."
//!
//! * [`page`] — fixed-size 8 KiB pages of 9-byte fixed-width cells (the
//!   "string of fixed length" encoding §8.1 suggests);
//! * [`pager`] — a file of pages with allocate/read/write;
//! * [`buffer`] — a bounded LRU buffer pool with write-back and
//!   hit/miss/eviction statistics;
//! * [`store`] — [`DiskDatabase`]: a columnar multi-relational database
//!   spilled to one page file, all access through the pool;
//! * [`disk_ops`] — the two operations §8 analyses: [`DiskSource`], the
//!   tuple source core's propagation and clause evaluator run over, with
//!   one in-memory side per join (§8.1), and one-scan categorical literal
//!   counting (§8.2) — both tested to agree exactly with their in-memory
//!   counterparts under pathologically small buffer pools.
//!
//! ```
//! use crossmine_storage::{DiskDatabase, DiskSource};
//! use crossmine_core::idset::TargetSet;
//! use crossmine_core::propagation::{try_propagate, ClauseState};
//! use crossmine_relational::{ClassLabel, JoinGraph};
//!
//! let db = crossmine_synth::generate(&crossmine_synth::GenParams {
//!     num_relations: 4, expected_tuples: 60, min_tuples: 20, ..Default::default()
//! });
//! let path = std::env::temp_dir().join("crossmine-doc-spill.pages");
//! let mut disk = DiskDatabase::spill(&db, &path, 8).unwrap();
//!
//! let graph = JoinGraph::build(&db.schema);
//! let is_pos: Vec<bool> = db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
//! let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
//! let target = db.target().unwrap();
//! let edge = *graph.edges_from(target).next().unwrap();
//!
//! let source = DiskSource::new(&mut disk);
//! let on_disk = try_propagate(&source, state.annotation(target).unwrap(), &edge).unwrap();
//! let in_memory = state.propagate_edge(&edge);
//! assert_eq!(on_disk.idsets, in_memory.idsets);
//! # std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod disk_ops;
pub mod page;
pub mod pager;
pub mod store;

pub use buffer::{BufferPool, BufferStats};
pub use disk_ops::{categorical_counts_disk, DiskSource};
pub use page::{Page, CELLS_PER_PAGE, PAGE_SIZE};
pub use pager::{PageId, Pager, StorageError};
pub use store::{DiskColumn, DiskDatabase};
