//! Property-based tests of the tensor kernels.

use dpaudit_tensor::{
    conv2d_backward, conv2d_forward, matmul_acc, matvec, matvec_transposed, maxpool2d_forward,
    outer_product, Conv2dDims, PoolDims, Tensor,
};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0..10.0f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matrix–vector product is linear: W(ax + by) = a·Wx + b·Wy.
    #[test]
    fn matvec_linearity(
        w in small_vec(12),
        x in small_vec(4),
        y in small_vec(4),
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
    ) {
        let combined: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let lhs = matvec(&w, &combined, 3, 4);
        let wx = matvec(&w, &x, 3, 4);
        let wy = matvec(&w, &y, 3, 4);
        for i in 0..3 {
            prop_assert!((lhs[i] - (a * wx[i] + b * wy[i])).abs() < 1e-9);
        }
    }

    /// xᵀ(Wy) == (Wᵀx)ᵀy — the transpose pairing used by dense backward.
    #[test]
    fn matvec_transpose_adjoint(
        w in small_vec(12),
        x in small_vec(3),
        y in small_vec(4),
    ) {
        let wy = matvec(&w, &y, 3, 4);
        let wtx = matvec_transposed(&w, &x, 3, 4);
        let lhs: f64 = x.iter().zip(&wy).map(|(a, b)| a * b).sum();
        let rhs: f64 = wtx.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    /// matmul with a vector as a 1-column matrix agrees with matvec.
    #[test]
    fn matmul_matvec_consistency(w in small_vec(12), x in small_vec(4)) {
        let mut mm = vec![0.0; 3];
        matmul_acc(&mut mm, &w, &x, 3, 4, 1);
        let mv = matvec(&w, &x, 3, 4);
        for i in 0..3 {
            prop_assert!((mm[i] - mv[i]).abs() < 1e-12);
        }
    }

    /// Outer product contracts back: (x ⊗ y)·y = x·‖y‖².
    #[test]
    fn outer_product_contraction(x in small_vec(3), y in small_vec(4)) {
        let op = outer_product(&x, &y);
        let yy: f64 = y.iter().map(|v| v * v).sum();
        let contracted = matvec(&op, &y, 3, 4);
        for i in 0..3 {
            prop_assert!((contracted[i] - x[i] * yy).abs() < 1e-9);
        }
    }

    /// Convolution is linear in the input (bias fixed at zero).
    #[test]
    fn conv_linearity(
        input1 in small_vec(2 * 5 * 5),
        input2 in small_vec(2 * 5 * 5),
        kernels in small_vec(3 * 2 * 3 * 3),
        a in -2.0..2.0f64,
    ) {
        let dims = Conv2dDims {
            in_channels: 2, out_channels: 3, in_h: 5, in_w: 5, k_h: 3, k_w: 3,
        };
        let bias = vec![0.0; 3];
        let sum: Vec<f64> = input1.iter().zip(&input2).map(|(p, q)| p + a * q).collect();
        let o_sum = conv2d_forward(&sum, &kernels, &bias, &dims);
        let o1 = conv2d_forward(&input1, &kernels, &bias, &dims);
        let o2 = conv2d_forward(&input2, &kernels, &bias, &dims);
        for i in 0..o_sum.len() {
            prop_assert!((o_sum[i] - (o1[i] + a * o2[i])).abs() < 1e-8);
        }
    }

    /// The conv backward input-gradient is the adjoint of the forward map:
    /// ⟨conv(x), g⟩ == ⟨x, convᵀ(g)⟩ for zero bias.
    #[test]
    fn conv_backward_is_adjoint(
        input in small_vec(6 * 6),
        kernels in small_vec(2 * 3 * 3),
        g in small_vec(2 * 4 * 4),
    ) {
        let dims = Conv2dDims {
            in_channels: 1, out_channels: 2, in_h: 6, in_w: 6, k_h: 3, k_w: 3,
        };
        let bias = vec![0.0; 2];
        let out = conv2d_forward(&input, &kernels, &bias, &dims);
        let (d_in, _, _) = conv2d_backward(&input, &kernels, &g, &dims);
        let lhs: f64 = out.iter().zip(&g).map(|(a, b)| a * b).sum();
        let rhs: f64 = input.iter().zip(&d_in).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-7, "{lhs} vs {rhs}");
    }

    /// Every pooled value is the max of its window: it appears in the input
    /// and dominates the whole window.
    #[test]
    fn pool_outputs_dominate_windows(input in small_vec(2 * 6 * 6)) {
        let dims = PoolDims { channels: 2, in_h: 6, in_w: 6, pool_h: 2, pool_w: 2 };
        let (out, argmax) = maxpool2d_forward(&input, &dims);
        for (o_idx, (&o, &am)) in out.iter().zip(&argmax).enumerate() {
            prop_assert_eq!(input[am], o);
            // Reconstruct window coordinates from the output index.
            let per_ch = 3 * 3;
            let c = o_idx / per_ch;
            let r = (o_idx % per_ch) / 3;
            let col = o_idx % 3;
            for u in 0..2 {
                for v in 0..2 {
                    let idx = c * 36 + (r * 2 + u) * 6 + col * 2 + v;
                    prop_assert!(input[idx] <= o);
                }
            }
        }
    }

    /// Tensor reshape round-trips and preserves the flat data.
    #[test]
    fn reshape_round_trip(data in small_vec(24)) {
        let t = Tensor::from_vec(&[2, 3, 4], data.clone());
        let r = t.clone().reshape(&[4, 6]).reshape(&[2, 3, 4]);
        prop_assert_eq!(r, t);
    }
}
