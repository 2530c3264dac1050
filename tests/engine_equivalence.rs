//! Cross-engine equivalence: the level-indexed engine vs the Theorem-3
//! reference oracle vs the generic `hc-linalg` OLS solve, over randomly
//! sampled tree shapes — the trust harness demanded by ISSUE 2 and extended
//! by ISSUE 3's allocation-free pipeline.
//!
//! The contracts pinned here:
//!
//! * engine ≡ `hierarchical_inference` within 1e-9 on every sampled shape
//!   (the uniform path is in fact bit-identical, which is asserted too),
//!   including fixed shapes large enough to tile into several slabs;
//! * engine ≡ the dense OLS projection on small shapes (the "don't trust
//!   either closed form" check);
//! * a batch of N trials ≡ N single runs, bit for bit, under pinned seeds;
//! * the work-stealing parallel passes ≡ the serial sweep, bit for bit;
//! * the weighted (per-level GLS) tables ≡ the per-node weighted oracle;
//! * the engine's level-sweep zeroing ≡ the `enforce_nonnegativity` walk
//!   (including the `<= 0.0` boundary and parent-zeroed cascades);
//! * `release_and_infer(_rounded)` ≡ release-then-infer through the old
//!   owned-release path at the same seed, bit for bit.

use hc_testutil::assert_close;
use hist_consistency::linalg::{lstsq, Matrix};
use hist_consistency::prelude::*;
use proptest::prelude::*;
use rand::Rng;

fn random_noisy(shape: &TreeShape, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..shape.nodes())
        .map(|_| rng.random_range(-50.0..120.0))
        .collect()
}

proptest! {
    #[test]
    fn engine_matches_reference_on_random_shapes(
        k in 2usize..6,
        height in 1usize..8,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let reference = hierarchical_inference(&shape, &noisy);
        let engine = LevelTree::new(&shape).infer(&noisy);
        assert_close(&engine, &reference, 1e-9);
        // The uniform tables use the oracle's own expressions: exact match.
        prop_assert_eq!(engine, reference);
    }

    #[test]
    fn engine_matches_generic_ols_on_small_shapes(
        k in 2usize..5,
        height in 2usize..5,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);

        let a = Matrix::from_fn(shape.nodes(), shape.leaves(), |v, leaf| {
            if shape.leaf_span(v).contains(leaf) { 1.0 } else { 0.0 }
        });
        let x = lstsq(&a, &noisy).expect("aggregation matrix has full column rank");
        let ols = a.matvec(&x).expect("dimensions match");

        let engine = LevelTree::new(&shape).infer(&noisy);
        assert_close(&engine, &ols, 1e-7);
    }

    #[test]
    fn batch_of_n_is_bit_identical_to_n_single_runs(
        k in 2usize..4,
        height in 1usize..6,
        trials in 1usize..9,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let tree = LevelTree::new(&shape);
        let n = shape.nodes();
        let mut batch = Vec::with_capacity(trials * n);
        let mut singles = Vec::with_capacity(trials * n);
        for t in 0..trials {
            let noisy = random_noisy(&shape, seed.wrapping_add(t as u64));
            singles.extend(tree.infer(&noisy));
            batch.extend(noisy);
        }
        let mut engine = BatchInference::new(tree);
        prop_assert_eq!(&engine.infer_batch(&batch), &singles);
        prop_assert_eq!(&engine.infer_batch_parallel(&batch, 4), &singles);
    }

    #[test]
    fn parallel_subtree_passes_are_bit_identical_to_serial(
        k in 2usize..5,
        height in 3usize..7,
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let tree = LevelTree::new(&shape);
        prop_assert_eq!(tree.infer_parallel(&noisy, threads), tree.infer(&noisy));
    }

    #[test]
    fn weighted_engine_matches_weighted_oracle(
        k in 2usize..4,
        height in 1usize..6,
        seed in any::<u64>(),
    ) {
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let mut rng = rng_from_seed(seed ^ 0x5A5A);
        let level_vars: Vec<f64> = (0..height).map(|_| rng.random_range(0.1..25.0)).collect();
        let mut per_node = vec![0.0f64; shape.nodes()];
        for (d, &var) in level_vars.iter().enumerate() {
            for v in shape.level(d) {
                per_node[v] = var;
            }
        }
        let oracle = weighted_hierarchical_inference(&shape, &noisy, &per_node);
        let engine = LevelTree::with_level_variances(&shape, &level_vars);
        prop_assert_eq!(engine.infer(&noisy), oracle);
    }

    #[test]
    fn release_pipeline_is_engine_backed_and_consistent(
        domain_size in 1usize..70,
        seed in any::<u64>(),
    ) {
        // End to end: TreeRelease::infer (engine) ≡ oracle over the same
        // noisy vector, and the result satisfies the constraints.
        let domain = Domain::new("x", domain_size).unwrap();
        let mut rng = rng_from_seed(seed);
        let counts: Vec<u64> = (0..domain_size).map(|_| rng.random_range(0u64..9)).collect();
        let histogram = Histogram::from_counts(domain, counts);
        let release = HierarchicalUniversal::binary(Epsilon::new(0.5).unwrap())
            .release(&histogram, &mut rng);
        let tree = release.infer();
        let oracle = hierarchical_inference(release.shape(), release.noisy_values());
        prop_assert_eq!(tree.node_values(), &oracle[..]);
        prop_assert!(tree.max_consistency_violation() < 1e-9);
    }

    #[test]
    fn engine_zeroing_matches_reference_walk(
        k in 2usize..5,
        height in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Values straddling zero so subtree zeroing fires; the engine's
        // top-down level sweep must match the per-node parent() walk bit
        // for bit, and the fused zero+round must equal zero-then-round.
        let shape = TreeShape::new(k, height);
        let mut rng = rng_from_seed(seed);
        let values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let tree = LevelTree::new(&shape);
        let reference = enforce_nonnegativity(&shape, &values);
        let mut swept = values.clone();
        tree.zero_subtrees_in_place(&mut swept);
        prop_assert_eq!(&swept, &reference);

        let mut rounded_reference = reference;
        for v in &mut rounded_reference {
            *v = Rounding::NonNegativeInteger.apply(*v);
        }
        let mut fused = values;
        tree.zero_round_in_place(&mut fused);
        prop_assert_eq!(fused, rounded_reference);
    }

    #[test]
    fn engine_zeroing_pins_boundary_and_cascades(
        height in 2usize..6,
        zero_at in any::<u64>(),
        negate_zero in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Plant an exact ±0.0 at an arbitrary node: its subtree must zero
        // wholesale (the `<= 0.0` boundary), cascading through positive
        // descendants, exactly as the reference walk decides.
        let shape = TreeShape::new(2, height);
        let mut rng = rng_from_seed(seed);
        let mut values: Vec<f64> = (0..shape.nodes())
            .map(|_| rng.random_range(0.5..4.0)) // strictly positive elsewhere
            .collect();
        let v = (zero_at as usize) % shape.nodes();
        values[v] = if negate_zero { -0.0 } else { 0.0 };
        let reference = enforce_nonnegativity(&shape, &values);
        let mut swept = values;
        LevelTree::new(&shape).zero_subtrees_in_place(&mut swept);
        prop_assert_eq!(&swept, &reference);
        // The planted node's whole leaf span is zeroed.
        let span = shape.leaf_span(v);
        for leaf in span.lo()..=span.hi() {
            prop_assert_eq!(swept[shape.leaf_node(leaf)], 0.0);
        }
    }

    #[test]
    fn release_and_infer_matches_old_path_at_fixed_seeds(
        domain_size in 1usize..70,
        seed in any::<u64>(),
    ) {
        // The fused allocation-free trial ≡ owned release → infer(_rounded)
        // through the estimator types, bit for bit, at the same RNG state.
        let domain = Domain::new("x", domain_size).unwrap();
        let mut rng = rng_from_seed(seed ^ 0xC0FFEE);
        let counts: Vec<u64> = (0..domain_size).map(|_| rng.random_range(0u64..6)).collect();
        let histogram = Histogram::from_counts(domain, counts);
        let pipeline = HierarchicalUniversal::binary(Epsilon::new(0.4).unwrap());
        let prepared = pipeline.prepare(domain_size);
        let shape = TreeShape::for_domain(domain_size, 2);
        let mut engine = BatchInference::for_shape(&shape);
        let mut out = Vec::new();

        engine.release_and_infer(&prepared, &histogram, &mut rng_from_seed(seed), &mut out);
        let old = pipeline.release(&histogram, &mut rng_from_seed(seed)).infer();
        prop_assert_eq!(&out[..], old.node_values());

        engine.release_and_infer_rounded(
            &prepared, &histogram, &mut rng_from_seed(seed), &mut out,
        );
        let old_rounded = pipeline
            .release(&histogram, &mut rng_from_seed(seed))
            .infer_rounded();
        prop_assert_eq!(&out[..], old_rounded.node_values());
    }

    #[test]
    fn work_stealing_parallel_matches_serial_across_splits(
        k in 2usize..4,
        height in 3usize..9,
        threads in 2usize..17,
        seed in any::<u64>(),
    ) {
        // Thread counts beyond the old one-worker-per-root-subtree cap:
        // the split depth (and so the job count) varies with `threads`,
        // and every configuration must reproduce the serial bits.
        let shape = TreeShape::new(k, height);
        let noisy = random_noisy(&shape, seed);
        let tree = LevelTree::new(&shape);
        let serial = tree.infer(&noisy);
        prop_assert_eq!(tree.infer_parallel(&noisy, threads), serial);
    }
}

#[test]
fn engine_matches_reference_on_multi_slab_trees() {
    // The random shapes above top out at a few thousand leaves — a single
    // slab. These cross the engine's 8192-leaf tile width, so the upward
    // and downward passes really run slab by slab.
    for (k, height, seed) in [(2usize, 15usize, 61u64), (3, 10, 62)] {
        let shape = TreeShape::new(k, height);
        assert!(shape.leaves() > 8192, "k={k} ℓ={height} must tile");
        let noisy = random_noisy(&shape, seed);
        let engine = LevelTree::new(&shape).infer(&noisy);
        assert_eq!(
            engine,
            hierarchical_inference(&shape, &noisy),
            "k={k} ℓ={height}"
        );
    }
}
