//! Multi-head self-attention with an explicit, gradient-checked backward
//! pass. Training processes one unpadded sequence at a time (T×d matrices);
//! inference packs several sequences row-wise and attends within each
//! sequence's row block, so no attention mask is needed either way.

use nfm_tensor::layers::{Linear, Module};
use nfm_tensor::matrix::{dot, dot8, Matrix};
use nfm_tensor::pool;
use nfm_tensor::scratch::ScratchArena;
use rand::Rng;

/// Multi-head self-attention: `Y = concat_h(softmax(Q_h K_hᵀ/√d_h) V_h) W_o`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    /// Number of heads (must divide the model dimension).
    pub n_heads: usize,
    /// Model dimension.
    pub d_model: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention probabilities (T×T each).
    probs: Vec<Matrix>,
    /// Concatenated head outputs before W_o (T×d).
    concat: Matrix,
}

fn head_slice(m: &Matrix, head: usize, d_head: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), d_head);
    for r in 0..m.rows() {
        let src = &m.row(r)[head * d_head..(head + 1) * d_head];
        out.row_mut(r).copy_from_slice(src);
    }
    out
}

fn head_insert(dst: &mut Matrix, src: &Matrix, head: usize, d_head: usize) {
    for r in 0..src.rows() {
        let row = src.row(r).to_vec();
        dst.row_mut(r)[head * d_head..(head + 1) * d_head].copy_from_slice(&row);
    }
}

/// Approximate flop count of one attention pass over a T-row input: the
/// two T×T×d_head matmuls per head dominate, summed across heads. Used to
/// gate head-level parallelism in training — short sequences through a
/// small model must not pay a thread spawn per layer per sequence.
fn attend_work(t: usize, d_model: usize) -> usize {
    4 * t * t * d_model
}

impl MultiHeadAttention {
    /// Create with `n_heads` dividing `d_model`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, d_model: usize, n_heads: usize) -> MultiHeadAttention {
        assert!(d_model.is_multiple_of(n_heads), "heads must divide d_model");
        MultiHeadAttention {
            wq: Linear::new(rng, d_model, d_model),
            wk: Linear::new(rng, d_model, d_model),
            wv: Linear::new(rng, d_model, d_model),
            wo: Linear::new(rng, d_model, d_model),
            n_heads,
            d_model,
            cache: None,
        }
    }

    /// Forward pass over one sequence `x` (T×d), caching for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let d_head = self.d_model / self.n_heads;
        let (q, k, v) = (self.wq.forward(x), self.wk.forward(x), self.wv.forward(x));
        // Heads are independent; par_map returns them in head order, so the
        // concat/probs layout matches the sequential loop exactly.
        let work = attend_work(x.rows(), self.d_model);
        let heads = pool::par_map_work(self.n_heads, work, |h| attend(&q, &k, &v, h, d_head));
        let mut concat = Matrix::zeros(x.rows(), self.d_model);
        let mut probs = Vec::with_capacity(self.n_heads);
        for (h, (oh, p)) in heads.into_iter().enumerate() {
            head_insert(&mut concat, &oh, h, d_head);
            probs.push(p);
        }
        let y = self.wo.forward(&concat);
        self.cache = Some(Cache { q, k, v, probs, concat });
        y
    }

    /// Packed-batch inference: `x` holds several sequences concatenated
    /// row-wise, with sequence `s` occupying rows `bounds[s]..bounds[s+1]`.
    /// The Q/K/V/O projections run as single large GEMMs over the packed
    /// rows (per-output-row reductions, so each row's bits are independent
    /// of its neighbours), while attention itself iterates per sequence per
    /// head — exactly the training [`MultiHeadAttention::forward`]
    /// arithmetic on that sequence's row block, but computed straight off
    /// the packed Q/K/V with strided head views: no head-slice copies, no
    /// per-head output matrices, head results accumulated directly into the
    /// concat buffer. Scores use the same [`dot`] kernel `matmul_nt` runs
    /// on materialised slices and the `probs·V` product accumulates over
    /// ascending `p` like `matmul`, so every bit matches the training
    /// forward on that sequence alone. Activations come from `arena` and
    /// are retired back into it.
    pub fn forward_inference_batch(
        &self,
        x: &Matrix,
        bounds: &[usize],
        arena: &mut ScratchArena,
    ) -> Matrix {
        let d_head = self.d_model / self.n_heads;
        let dm = self.d_model;
        let rows = x.rows();
        // Fuse the Q/K/V projections into one GEMM over the packed rows:
        // W_f = [W_q | W_k | W_v] column-wise, so row r of the output is
        // [q_r | k_r | v_r]. Each output element is the same ascending-`p`
        // reduction plus the same bias add the three separate projections
        // perform — identical bits, one pass over `x` instead of three.
        let mut wf = arena.take(dm, 3 * dm);
        for p in 0..dm {
            let row = wf.row_mut(p);
            row[..dm].copy_from_slice(self.wq.w.row(p));
            row[dm..2 * dm].copy_from_slice(self.wk.w.row(p));
            row[2 * dm..].copy_from_slice(self.wv.w.row(p));
        }
        let mut bf = arena.take(1, 3 * dm);
        {
            let b = bf.row_mut(0);
            b[..dm].copy_from_slice(&self.wq.b);
            b[dm..2 * dm].copy_from_slice(&self.wk.b);
            b[2 * dm..].copy_from_slice(&self.wv.b);
        }
        let mut qkv = arena.take(rows, 3 * dm);
        x.matmul_into(&wf, &mut qkv);
        qkv.add_row_broadcast(bf.row(0));
        arena.put(wf);
        arena.put(bf);
        let mut concat = arena.take(rows, self.d_model);
        let scale = 1.0 / (d_head as f32).sqrt();
        let n_seqs = bounds.len().saturating_sub(1);
        // One flat accumulator strip reused by every 4-row probs·V tile.
        let mut acc_strip = vec![0.0f32; 4 * d_head];
        for s in 0..n_seqs {
            let (r0, r1) = (bounds[s], bounds[s + 1]);
            let t = r1 - r0;
            let mut scores = arena.take(t, t);
            for h in 0..self.n_heads {
                let off = h * d_head;
                // scores[i][j] = q_h[i] · k_h[j]: the bits `matmul_nt`
                // produces on head-sliced copies, read in place. Four query
                // rows share each streamed key row; every score is still its
                // own [`dot`] call, so regrouping changes no element's bits.
                let mut i = 0;
                while i + 4 <= t {
                    let q0 = &qkv.row(r0 + i)[off..off + d_head];
                    let q1 = &qkv.row(r0 + i + 1)[off..off + d_head];
                    let q2 = &qkv.row(r0 + i + 2)[off..off + d_head];
                    let q3 = &qkv.row(r0 + i + 3)[off..off + d_head];
                    let block = &mut scores.data_mut()[i * t..(i + 4) * t];
                    let (s0, rest) = block.split_at_mut(t);
                    let (s1, rest) = rest.split_at_mut(t);
                    let (s2, s3) = rest.split_at_mut(t);
                    if d_head == 8 {
                        // dot8 == dot bit-for-bit at this width; the
                        // specialised body keeps the whole product in SIMD
                        // registers (the generic loop defeats the
                        // vectoriser at an 8-long trip count).
                        for j in 0..t {
                            let kj = &qkv.row(r0 + j)[dm + off..dm + off + d_head];
                            s0[j] = dot8(q0, kj);
                            s1[j] = dot8(q1, kj);
                            s2[j] = dot8(q2, kj);
                            s3[j] = dot8(q3, kj);
                        }
                    } else {
                        for j in 0..t {
                            let kj = &qkv.row(r0 + j)[dm + off..dm + off + d_head];
                            s0[j] = dot(q0, kj);
                            s1[j] = dot(q1, kj);
                            s2[j] = dot(q2, kj);
                            s3[j] = dot(q3, kj);
                        }
                    }
                    i += 4;
                }
                for i in i..t {
                    let qi = &qkv.row(r0 + i)[off..off + d_head];
                    if d_head == 8 {
                        for (j, sv) in scores.row_mut(i).iter_mut().enumerate() {
                            *sv = dot8(qi, &qkv.row(r0 + j)[dm + off..dm + off + d_head]);
                        }
                    } else {
                        for (j, sv) in scores.row_mut(i).iter_mut().enumerate() {
                            *sv = dot(qi, &qkv.row(r0 + j)[dm + off..dm + off + d_head]);
                        }
                    }
                }
                scores.scale(scale);
                scores.softmax_rows();
                // concat_h[i] = Σ_p scores[i][p] · v_h[p], `p` ascending
                // into the zeroed concat rows — the accumulation order
                // `matmul` guarantees, so the same bits it would write.
                // Four output rows share each streamed v row (register
                // blocking; regrouping rows never changes an element's own
                // accumulation sequence).
                let mut i = 0;
                while i + 4 <= t {
                    let (s0, s1) = (scores.row(i), scores.row(i + 1));
                    let (s2, s3) = (scores.row(i + 2), scores.row(i + 3));
                    acc_strip.fill(0.0);
                    let (acc0, rest) = acc_strip.split_at_mut(d_head);
                    let (acc1, rest) = rest.split_at_mut(d_head);
                    let (acc2, acc3) = rest.split_at_mut(d_head);
                    for p in 0..t {
                        let vrow = &qkv.row(r0 + p)[2 * dm + off..2 * dm + off + d_head];
                        let (w0, w1, w2, w3) = (s0[p], s1[p], s2[p], s3[p]);
                        for (l, &vv) in vrow.iter().enumerate() {
                            acc0[l] += w0 * vv;
                            acc1[l] += w1 * vv;
                            acc2[l] += w2 * vv;
                            acc3[l] += w3 * vv;
                        }
                    }
                    concat.row_mut(r0 + i)[off..off + d_head].copy_from_slice(acc0);
                    concat.row_mut(r0 + i + 1)[off..off + d_head].copy_from_slice(acc1);
                    concat.row_mut(r0 + i + 2)[off..off + d_head].copy_from_slice(acc2);
                    concat.row_mut(r0 + i + 3)[off..off + d_head].copy_from_slice(acc3);
                    i += 4;
                }
                for i in i..t {
                    let srow = scores.row(i);
                    let orow = &mut concat.row_mut(r0 + i)[off..off + d_head];
                    for (p, &sv) in srow.iter().enumerate() {
                        let vrow = &qkv.row(r0 + p)[2 * dm + off..2 * dm + off + d_head];
                        for (o, &vv) in orow.iter_mut().zip(vrow) {
                            *o += sv * vv;
                        }
                    }
                }
            }
            arena.put(scores);
        }
        arena.put(qkv);
        let mut y = arena.take(rows, self.d_model);
        self.wo.forward_inference_into(&concat, &mut y);
        arena.put(concat);
        y
    }

    /// Attention probabilities per head from the last cached forward.
    pub fn last_attention(&self) -> Option<&[Matrix]> {
        self.cache.as_ref().map(|c| c.probs.as_slice())
    }

    /// Backward pass; returns dL/dx.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        let d_head = self.d_model / self.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let t = cache.concat.rows();
        // Backward roughly doubles the forward's per-head matmul work.
        let work = 2 * attend_work(t, self.d_model);
        let head_grads = pool::par_map_work(self.n_heads, work, |h| {
            let doh = head_slice(&dconcat, h, d_head);
            let p = &cache.probs[h];
            let qh = head_slice(&cache.q, h, d_head);
            let kh = head_slice(&cache.k, h, d_head);
            let vh = head_slice(&cache.v, h, d_head);
            // dP = dOh · Vhᵀ ; dVh = Pᵀ · dOh
            let dp = doh.matmul_nt(&vh);
            let dvh = p.matmul_tn(&doh);
            // Softmax backward per row: dS = P ⊙ (dP − rowsum(dP⊙P)).
            let mut ds = Matrix::zeros(t, t);
            for r in 0..t {
                let prow = p.row(r);
                let dprow = dp.row(r);
                let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                for c in 0..t {
                    ds.set(r, c, prow[c] * (dprow[c] - dot));
                }
            }
            ds.scale(scale);
            // dQh = dS · Kh ; dKh = dSᵀ · Qh
            (ds.matmul(&kh), ds.matmul_tn(&qh), dvh)
        });
        let mut dq = Matrix::zeros(t, self.d_model);
        let mut dk = Matrix::zeros(t, self.d_model);
        let mut dv = Matrix::zeros(t, self.d_model);
        for (h, (dqh, dkh, dvh)) in head_grads.into_iter().enumerate() {
            head_insert(&mut dq, &dqh, h, d_head);
            head_insert(&mut dk, &dkh, h, d_head);
            head_insert(&mut dv, &dvh, h, d_head);
        }
        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }
}

/// One head's attention: returns (output T×d_head, probs T×T).
fn attend(q: &Matrix, k: &Matrix, v: &Matrix, head: usize, d_head: usize) -> (Matrix, Matrix) {
    let qh = head_slice(q, head, d_head);
    let kh = head_slice(k, head, d_head);
    let vh = head_slice(v, head, d_head);
    let mut scores = qh.matmul_nt(&kh);
    scores.scale(1.0 / (d_head as f32).sqrt());
    scores.softmax_rows();
    let out = scores.matmul(&vh);
    (out, scores)
}

impl Module for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_prob_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
        let x = init::normal(&mut rng, 6, 16, 1.0);
        let y = attn.forward(&x);
        assert_eq!((y.rows(), y.cols()), (6, 16));
        for p in attn.last_attention().unwrap() {
            for r in 0..p.rows() {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::normal(&mut rng, 3, 8, 0.5);
        // L = ½‖y‖² so dL/dy = y.
        let y = attn.forward(&x);
        let dx = attn.backward(&y);

        let eps = 1e-2;
        let loss = |attn: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = attn.clone().forward(x);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut max_rel = 0.0f32;
        for (r, c) in [(0, 0), (1, 3), (2, 7)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let numeric = (loss(&attn, &xp) - loss(&attn, &xm)) / (2.0 * eps);
            let analytic = dx.get(r, c);
            let rel = (numeric - analytic).abs() / numeric.abs().max(1e-3);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 0.07, "max relative error {max_rel}");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::normal(&mut rng, 3, 8, 0.5);
        attn.zero_grad();
        let y = attn.forward(&x);
        attn.backward(&y);
        // Grab dL/d(wq[0,0]).
        let mut analytic = 0.0;
        let mut slot = 0;
        attn.visit_params(&mut |_, g| {
            if slot == 0 {
                analytic = g[0];
            }
            slot += 1;
        });
        let eps = 1e-2;
        let loss = |attn: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = attn.clone().forward(x);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut orig = 0.0;
        let mut slot = 0;
        attn.visit_params(&mut |p, _| {
            if slot == 0 {
                orig = p[0];
                p[0] = orig + eps;
            }
            slot += 1;
        });
        let lp = loss(&attn, &x);
        let mut slot = 0;
        attn.visit_params(&mut |p, _| {
            if slot == 0 {
                p[0] = orig - eps;
            }
            slot += 1;
        });
        let lm = loss(&attn, &x);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() / numeric.abs().max(1e-3) < 0.07,
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn packed_batch_matches_training_forward_bitwise() {
        // d_head 4 takes the generic `dot` scores, d_head 8 the `dot8` ones.
        for n_heads in [4, 2] {
            let mut rng = StdRng::seed_from_u64(7);
            let attn = MultiHeadAttention::new(&mut rng, 16, n_heads);
            let seqs = [
                init::normal(&mut rng, 3, 16, 0.8),
                init::normal(&mut rng, 7, 16, 0.8),
                init::normal(&mut rng, 1, 16, 0.8),
            ];
            let packed = Matrix::vstack(&[&seqs[0], &seqs[1], &seqs[2]]);
            let bounds = [0usize, 3, 10, 11];
            let mut arena = ScratchArena::new();
            // Run twice: the second pass exercises warm (reused, dirty) buffers.
            for pass in 0..2 {
                let y = attn.forward_inference_batch(&packed, &bounds, &mut arena);
                for (s, x) in seqs.iter().enumerate() {
                    let want = attn.clone().forward(x);
                    for r in 0..x.rows() {
                        let got: Vec<u32> =
                            y.row(bounds[s] + r).iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u32> = want.row(r).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "heads {n_heads} pass {pass} seq {s} row {r}");
                    }
                }
                arena.put(y);
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
        // 4 linears of 16×16 + bias 16.
        assert_eq!(attn.n_params(), 4 * (16 * 16 + 16));
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn invalid_head_count_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = MultiHeadAttention::new(&mut rng, 10, 3);
    }
}
