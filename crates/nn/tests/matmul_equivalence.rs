//! Golden equivalence: the cache-blocked [`Tensor::matmul`] must be
//! bit-identical to the pre-PR naive triple loop
//! ([`mcpb_nn::reference::matmul_naive`]) on every input.
//!
//! Bit-identity holds by construction: the blocked kernel accumulates each
//! output element as a single left-associated chain in increasing-k order —
//! the same float-addition order as the naive loop — and dropping the
//! `a == 0.0` skip is exact because `acc + 0.0 * b` rounds to `acc` under
//! round-to-nearest for the finite accumulators the skip could produce.
//! These tests pin that argument with `to_bits` comparisons, including on
//! relu-masked inputs where the zero-skip actually used to fire.

use mcpb_nn::reference::matmul_naive;
use mcpb_nn::{SparseMatrix, Tensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.rows, b.rows, "{what}: row mismatch");
    assert_eq!(a.cols, b.cols, "{what}: col mismatch");
    for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn blocked_matches_naive_on_odd_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C);
    // Shapes straddling the k-panel (256) and the 4-wide unroll: primes,
    // one-row/one-col edges, exact panel multiples, and panel+remainder.
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 5, 7),
        (17, 31, 13),
        (8, 256, 8),
        (5, 257, 3),
        (2, 1023, 2),
        (64, 300, 19),
        (1, 512, 1),
    ] {
        let a = Tensor::xavier(m, k, &mut rng);
        let b = Tensor::xavier(k, n, &mut rng);
        assert_bit_identical(
            &a.matmul(&b),
            &matmul_naive(&a, &b),
            &format!("{m}x{k}x{n}"),
        );
    }
}

#[test]
fn blocked_matches_naive_with_relu_masked_zeros() {
    // Post-relu activations are full of exact zeros — the case the old
    // kernel's `a == 0.0` skip targeted. Equivalence must survive them.
    let mut rng = ChaCha8Rng::seed_from_u64(0x2E1);
    let mut a = Tensor::xavier(23, 129, &mut rng);
    for v in a.data.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let b = Tensor::xavier(129, 11, &mut rng);
    assert_bit_identical(&a.matmul(&b), &matmul_naive(&a, &b), "relu-masked");
}

#[test]
fn skip_zeros_entry_point_matches_both_on_sparse_inputs() {
    // The explicit sparse entry point keeps the zero-skip; on any input it
    // must still agree bit-for-bit (skipping a zero row contributes exactly
    // what adding it would).
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A);
    let mut a = Tensor::xavier(9, 260, &mut rng);
    for v in a.data.iter_mut() {
        if rng.gen::<f32>() < 0.7 {
            *v = 0.0;
        }
    }
    let b = Tensor::xavier(260, 6, &mut rng);
    let blocked = a.matmul(&b);
    assert_bit_identical(&blocked, &a.matmul_skip_zeros(&b), "skip_zeros vs blocked");
    assert_bit_identical(&blocked, &matmul_naive(&a, &b), "blocked vs naive");
}

#[test]
fn special_values_propagate_identically() {
    // NaN/inf in the activations must flow through both kernels the same
    // way (same operation order -> same NaN payloads are not guaranteed by
    // IEEE, but same *placement* of NaN/inf is, and to_bits on the rest).
    let mut rng = ChaCha8Rng::seed_from_u64(0x71);
    let mut a = Tensor::xavier(4, 40, &mut rng);
    a.data[7] = f32::INFINITY;
    a.data[13] = f32::NEG_INFINITY;
    let b = Tensor::xavier(40, 5, &mut rng);
    let x = a.matmul(&b);
    let y = matmul_naive(&a, &b);
    for (u, v) in x.data.iter().zip(&y.data) {
        assert_eq!(u.to_bits(), v.to_bits(), "{u} vs {v}");
    }
}

#[test]
fn row_kernels_match_their_full_products() {
    // `vecmat_into` and `row_matmul_dense_into` recompute single rows for
    // incremental inference; each row must equal the full kernel's per bit.
    let mut rng = ChaCha8Rng::seed_from_u64(0x20F);
    for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (9, 257, 4), (6, 16, 16), (3, 8, 0)] {
        let a = Tensor::xavier(m, k, &mut rng);
        let b = Tensor::xavier(k, n, &mut rng);
        let full = a.matmul(&b);
        let mut row = vec![0.0; n];
        for i in 0..m {
            b.vecmat_into(a.row_slice(i), &mut row);
            assert_bit_identical(
                &Tensor::row(&row),
                &Tensor::row(full.row_slice(i)),
                &format!("vecmat row {i} of {m}x{k}x{n}"),
            );
        }
    }
    // Duplicate entries and empty rows exercise the CSR summation order.
    let triplets: Vec<(u32, u32, f32)> = (0..60)
        .map(|_| {
            (
                rng.gen_range(0..12u32),
                rng.gen_range(0..9u32),
                rng.gen_range(-2.0f32..2.0),
            )
        })
        .collect();
    let s = SparseMatrix::from_triplets(14, 9, &triplets);
    let x = Tensor::xavier(9, 6, &mut rng);
    let full = s.matmul_dense(&x);
    let mut row = vec![0.0; 6];
    for r in 0..14 {
        s.row_matmul_dense_into(r, &x, &mut row);
        assert_bit_identical(
            &Tensor::row(&row),
            &Tensor::row(full.row_slice(r)),
            &format!("spmm row {r}"),
        );
    }
}
