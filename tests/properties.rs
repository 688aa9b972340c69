//! Property-based tests (proptest) on the core invariants:
//! foil-gain algebra, the numerical-literal sweep vs. brute force, the §6
//! safe estimator, ID-set semantics, fold stratification, CSV round trips,
//! and propagation round-trip containment on random generated databases.

use proptest::prelude::*;

use crossmine::core::gain::{foil_gain, info, laplace_accuracy};
use crossmine::core::idset::{IdSet, Stamp, TargetSet};
use crossmine::core::literal::CmpOp;
use crossmine::core::propagation::{propagate, ClauseState};
use crossmine::core::sampling::safe_negative_estimate;
use crossmine::core::search::best_constraint_in;
use crossmine::core::CrossMineParams;
use crossmine::relational::csv;
use crossmine::{
    AttrType, Attribute, ClassLabel, Database, DatabaseSchema, GenParams, JoinGraph,
    RelationSchema, Row, Value,
};

proptest! {
    #[test]
    fn info_is_nonnegative_and_monotone(p in 1usize..200, n in 0usize..200) {
        let i = info(p, n);
        prop_assert!(i >= 0.0);
        // Adding negatives only increases the information cost.
        prop_assert!(info(p, n + 1) >= i);
        // Adding positives only decreases it.
        prop_assert!(info(p + 1, n) <= i);
    }

    #[test]
    fn foil_gain_bounds(p in 1usize..100, n in 0usize..100, pl_frac in 0.0f64..1.0, nl_frac in 0.0f64..1.0) {
        let p_l = ((p as f64) * pl_frac) as usize;
        let n_l = ((n as f64) * nl_frac) as usize;
        let g = foil_gain(p, n, p_l, n_l);
        // Gain never exceeds covering all positives perfectly.
        prop_assert!(g <= (p_l as f64) * info(p, n) + 1e-9);
        // Pure-positive literals achieve exactly that bound.
        if p_l > 0 {
            let pure = foil_gain(p, n, p_l, 0);
            prop_assert!((pure - (p_l as f64) * info(p, n)).abs() < 1e-9);
            prop_assert!(g <= pure + 1e-9);
        }
    }

    #[test]
    fn laplace_accuracy_in_unit_interval(sp in 0usize..1000, sn in 0.0f64..1000.0, c in 2usize..5) {
        let a = laplace_accuracy(sp, sn, c);
        prop_assert!(a > 0.0 && a < 1.0);
    }

    #[test]
    fn safe_estimate_properties(n_obs_frac in 0.0f64..=1.0, n_sampled in 10usize..500, mult in 2usize..20) {
        let n_obs = (n_sampled as f64 * n_obs_frac) as usize;
        let n_full = n_sampled * mult;
        let est = safe_negative_estimate(n_obs, n_sampled, n_full);
        // Bounded by the full count.
        prop_assert!(est <= n_full as f64 + 1e-9);
        // At least the naive scale-up (the safe estimate errs high).
        let naive = n_obs as f64 * n_full as f64 / n_sampled as f64;
        prop_assert!(est >= naive - 1e-6, "est {est} < naive {naive}");
        // Monotone in the observed count.
        if n_obs < n_sampled {
            prop_assert!(safe_negative_estimate(n_obs + 1, n_sampled, n_full) >= est);
        }
    }

    #[test]
    fn idset_from_ids_is_sorted_dedup(ids in proptest::collection::vec(0u32..100, 0..50)) {
        let set = IdSet::from_ids(ids.clone());
        let s = set.as_slice();
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        for id in &ids {
            prop_assert!(set.contains(*id));
        }
        prop_assert_eq!(
            s.len(),
            {
                let mut v = ids.clone();
                v.sort_unstable();
                v.dedup();
                v.len()
            }
        );
    }

    #[test]
    fn target_set_counts_are_consistent(membership in proptest::collection::vec(any::<(bool, bool)>(), 1..80)) {
        // (is_pos, is_member) pairs.
        let is_pos: Vec<bool> = membership.iter().map(|&(p, _)| p).collect();
        let rows: Vec<Row> = membership
            .iter()
            .enumerate()
            .filter(|(_, &(_, m))| m)
            .map(|(i, _)| Row(i as u32))
            .collect();
        let set = TargetSet::from_rows(&is_pos, rows.iter().copied());
        let want_pos = rows.iter().filter(|r| is_pos[r.0 as usize]).count();
        prop_assert_eq!(set.pos(), want_pos);
        prop_assert_eq!(set.neg(), rows.len() - want_pos);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn numerical_sweep_matches_bruteforce(
        values in proptest::collection::vec(-50i32..50, 4..40),
        labels in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let n = values.len();
        let labels = &labels[..n];
        prop_assume!(labels.iter().any(|&b| b));
        prop_assume!(labels.iter().any(|&b| !b));

        // Single-relation database with one numerical attribute.
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        t.add_attribute(Attribute::new("x", AttrType::Numerical)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for (i, v) in values.iter().enumerate() {
            db.push_row(tid, vec![Value::Key(i as u64), Value::Num(*v as f64)]).unwrap();
            db.push_label(if labels[i] { ClassLabel::POS } else { ClassLabel::NEG });
        }
        let is_pos: Vec<bool> = labels.to_vec();
        let targets = TargetSet::all(&is_pos);
        let mut stamp = Stamp::new(n);
        let params = CrossMineParams::builder().aggregation_literals(false).build().unwrap();
        let ann = crossmine::core::propagation::Annotation {
            idsets: (0..n as u32).map(IdSet::singleton).collect(),
        };
        let best = best_constraint_in(&db, tid, &ann, &targets, &mut stamp, &params, false);

        // Brute force over every (op, threshold).
        let p_c = is_pos.iter().filter(|&&b| b).count();
        let n_c = n - p_c;
        let mut brute: Option<f64> = None;
        for &v in &values {
            for op in [CmpOp::Le, CmpOp::Ge] {
                let (mut p, mut ng) = (0, 0);
                for (i, &x) in values.iter().enumerate() {
                    if op.test(x as f64, v as f64) {
                        if is_pos[i] { p += 1 } else { ng += 1 }
                    }
                }
                if p > 0 && !(p == p_c && ng == n_c) {
                    let g = foil_gain(p_c, n_c, p, ng);
                    if g > 0.0 && brute.map(|b| g > b).unwrap_or(true) {
                        brute = Some(g);
                    }
                }
            }
        }
        match (best, brute) {
            (Some(b), Some(expected)) => prop_assert!((b.gain - expected).abs() < 1e-9,
                "sweep {} vs brute {expected}", b.gain),
            (None, None) => {}
            (b, e) => prop_assert!(false, "sweep {b:?} vs brute {e:?}"),
        }
    }

    #[test]
    fn generated_database_always_valid(seed in 0u64..40, r in 3usize..8, t in 30usize..90) {
        let params = GenParams {
            num_relations: r,
            expected_tuples: t,
            min_tuples: 10,
            seed,
            ..Default::default()
        };
        let db = crossmine::generate(&params);
        prop_assert_eq!(db.num_targets(), t);
        prop_assert_eq!(db.dangling_foreign_keys(), 0);
        prop_assert!(JoinGraph::build(&db.schema).is_connected_from(db.target().unwrap()));
    }

    #[test]
    fn csv_roundtrip_on_generated_databases(seed in 0u64..12) {
        let params = GenParams {
            num_relations: 4,
            expected_tuples: 40,
            min_tuples: 10,
            seed,
            ..Default::default()
        };
        let db = crossmine::generate(&params);
        let dir = std::env::temp_dir().join(format!("crossmine-prop-{}-{seed}", std::process::id()));
        csv::save_dir(&db, &dir).unwrap();
        let db2 = csv::load_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(db2.num_targets(), db.num_targets());
        prop_assert_eq!(db2.total_tuples(), db.total_tuples());
        prop_assert_eq!(db2.labels(), db.labels());
        prop_assert_eq!(db2.dangling_foreign_keys(), 0);
        // Relation names survive (order may change: loader sorts by name).
        for (_, rel) in db.schema.iter_relations() {
            let rid2 = db2.schema.rel_id(&rel.name);
            prop_assert!(rid2.is_some(), "relation {} lost", rel.name);
            prop_assert_eq!(
                db2.relation(rid2.unwrap()).len(),
                db.relation(db.schema.rel_id(&rel.name).unwrap()).len()
            );
        }
    }

    #[test]
    fn stratified_folds_partition_and_balance(seed in 0u64..20, n in 30usize..120) {
        let mut schema = DatabaseSchema::new();
        let mut t = RelationSchema::new("T");
        t.add_attribute(Attribute::new("id", AttrType::PrimaryKey)).unwrap();
        let tid = schema.add_relation(t).unwrap();
        schema.set_target(tid);
        let mut db = Database::new(schema).unwrap();
        for i in 0..n as u64 {
            db.push_row(tid, vec![Value::Key(i)]).unwrap();
            db.push_label(if i % 3 == 0 { ClassLabel::POS } else { ClassLabel::NEG });
        }
        let rows: Vec<Row> = db.relation(tid).iter_rows().collect();
        let k = 5;
        let folds = crossmine::core::eval::stratified_folds(&db, &rows, k, seed);
        // Partition.
        let mut all: Vec<Row> = folds.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        prop_assert_eq!(all.len(), n);
        // Stratification within 1 per class.
        let pos_counts: Vec<usize> = folds
            .iter()
            .map(|f| f.iter().filter(|r| db.label(**r) == ClassLabel::POS).count())
            .collect();
        let min = pos_counts.iter().min().unwrap();
        let max = pos_counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "positive counts {pos_counts:?}");
    }

    #[test]
    fn propagation_round_trip_containment(seed in 0u64..15) {
        // For every edge out of the target: propagate forward then backward.
        // Every target that reached some tuple must appear in its own idset
        // after the round trip (it joins itself through the shared tuple).
        let params = GenParams {
            num_relations: 5,
            expected_tuples: 50,
            min_tuples: 15,
            seed,
            ..Default::default()
        };
        let db = crossmine::generate(&params);
        let graph = JoinGraph::build(&db.schema);
        let target = db.target().unwrap();
        let is_pos: Vec<bool> =
            db.labels().iter().map(|&l| l == ClassLabel::POS).collect();
        let state = ClauseState::new(&db, &is_pos, TargetSet::all(&is_pos));
        for edge in graph.edges_from(target) {
            let fwd = state.propagate_edge(edge);
            let back = propagate(&db, &fwd, &edge.reversed());
            let mut reached = vec![false; db.num_targets()];
            for set in &fwd.idsets {
                for id in set.iter() {
                    reached[id as usize] = true;
                }
            }
            for (t, was_reached) in reached.iter().enumerate() {
                if *was_reached {
                    prop_assert!(
                        back.idsets[t].contains(t as u32),
                        "target {t} lost itself on the round trip of {edge:?}"
                    );
                }
            }
            // And nothing appears that never joined forward.
            for set in &back.idsets {
                for id in set.iter() {
                    prop_assert!(reached[id as usize]);
                }
            }
        }
    }
}
