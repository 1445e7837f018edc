//! The BERT-style transformer encoder: token + learned position embeddings,
//! post-LN encoder blocks (attention and feed-forward sublayers with
//! residuals). Training runs one unpadded sequence at a time
//! ([`Encoder::forward`]); inference has one entry point,
//! [`Encoder::forward_inference_batch`], which packs any number of
//! sequences (one included) and reproduces the training forward bit for
//! bit.
//!
//! For serving under deadlines, inference cost is metered in deterministic
//! multiply-accumulate units (a reproducible proxy for wall time). Cost
//! depends only on sequence length, so [`Encoder::plan_inference_cost`]
//! decides before any compute whether a request fits its budget, and
//! returns a typed [`InferError::DeadlineExceeded`] instead of starting work
//! it cannot afford.

use std::fmt;

use nfm_tensor::layers::{Embedding, Gelu, LayerNorm, Linear, Module};
use nfm_tensor::matrix::Matrix;
use nfm_tensor::scratch::ScratchArena;
use rand::Rng;

use super::attention::MultiHeadAttention;

/// Why a budgeted inference call could not produce hidden states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The token sequence is empty (nothing to encode).
    EmptyInput,
    /// The remaining deadline budget cannot cover the next unit of work.
    /// Costs are deterministic multiply-accumulate counts, so the same
    /// request against the same model misses its deadline identically on
    /// every run.
    DeadlineExceeded {
        /// Cost units already spent when the check failed.
        spent: u64,
        /// Cost units the next unit of work would need.
        needed: u64,
        /// The total budget the request arrived with.
        budget: u64,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::EmptyInput => write!(f, "empty token sequence"),
            InferError::DeadlineExceeded { spent, needed, budget } => write!(
                f,
                "deadline exceeded: spent {spent} + next step {needed} cost units > budget {budget}"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// Encoder hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model dimension.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Encoder blocks.
    pub n_layers: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl EncoderConfig {
    /// A small default suited to CPU training.
    pub fn small(vocab: usize) -> EncoderConfig {
        EncoderConfig { vocab, d_model: 32, n_heads: 4, n_layers: 2, d_ff: 64, max_len: 128 }
    }
}

/// One post-LN encoder block.
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    gelu: Gelu,
    ff2: Linear,
    ln2: LayerNorm,
}

impl EncoderBlock {
    fn new<R: Rng + ?Sized>(rng: &mut R, cfg: &EncoderConfig) -> EncoderBlock {
        EncoderBlock {
            attn: MultiHeadAttention::new(rng, cfg.d_model, cfg.n_heads),
            ln1: LayerNorm::new(cfg.d_model),
            ff1: Linear::new(rng, cfg.d_model, cfg.d_ff),
            gelu: Gelu::new(),
            ff2: Linear::new(rng, cfg.d_ff, cfg.d_model),
            ln2: LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let a = self.attn.forward(x);
        let mut r1 = x.clone();
        r1.add_assign(&a);
        let h1 = self.ln1.forward(&r1);
        let f = self.ff2.forward(&self.gelu.forward(&self.ff1.forward(&h1)));
        let mut r2 = h1.clone();
        r2.add_assign(&f);
        self.ln2.forward(&r2)
    }

    /// Packed-batch inference over concatenated sequences (rows of `x`;
    /// sequence `s` owns rows `bounds[s]..bounds[s+1]`). Linear/LayerNorm/
    /// GELU sublayers operate per row, so they run once over the packed
    /// matrix; attention iterates per sequence inside
    /// [`MultiHeadAttention::forward_inference_batch`]. Takes ownership of
    /// `x` to reuse its buffer for the first residual; every intermediate
    /// comes from (and retires into) `arena`. Bitwise identical, row for
    /// row, to the training forward on each sequence.
    fn forward_inference_batch(
        &self,
        mut x: Matrix,
        bounds: &[usize],
        arena: &mut ScratchArena,
    ) -> Matrix {
        let (rows, d) = (x.rows(), x.cols());
        let a = self.attn.forward_inference_batch(&x, bounds, arena);
        // r1 = x + a, reusing x's buffer (same `+=` arithmetic as the
        // training forward's `r1 = x.clone(); r1 += a`).
        x.add_assign(&a);
        arena.put(a);
        let mut h1 = arena.take(rows, d);
        self.ln1.forward_inference_into(&x, &mut h1);
        arena.put(x);
        let d_ff = self.ff1.w.cols();
        let mut f1 = arena.take(rows, d_ff);
        self.ff1.forward_inference_into(&h1, &mut f1);
        let mut g = arena.take(rows, d_ff);
        self.gelu.forward_inference_into(&f1, &mut g);
        arena.put(f1);
        let mut f2 = arena.take(rows, d);
        self.ff2.forward_inference_into(&g, &mut f2);
        arena.put(g);
        // r2 = h1 + f, reusing h1's buffer.
        h1.add_assign(&f2);
        arena.put(f2);
        let mut out = arena.take(rows, d);
        self.ln2.forward_inference_into(&h1, &mut out);
        arena.put(h1);
        out
    }

    fn backward(&mut self, dy: &Matrix) -> Matrix {
        let dr2 = self.ln2.backward(dy);
        // r2 = h1 + f
        let df = dr2.clone();
        let dff = self.ff1.backward(&self.gelu.backward(&self.ff2.backward(&df)));
        let mut dh1 = dr2;
        dh1.add_assign(&dff);
        let dr1 = self.ln1.backward(&dh1);
        // r1 = x + attn(x)
        let da = dr1.clone();
        let mut dx = dr1;
        dx.add_assign(&self.attn.backward(&da));
        dx
    }

    /// Attention probabilities from the last training forward.
    pub fn last_attention(&self) -> Option<&[Matrix]> {
        self.attn.last_attention()
    }
}

impl Module for EncoderBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.ln2.visit_params(f);
    }
}

/// The full encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Hyperparameters.
    pub config: EncoderConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<EncoderBlock>,
    emb_ln: LayerNorm,
}

impl Encoder {
    /// Create with random initialization.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: EncoderConfig) -> Encoder {
        Encoder {
            tok_emb: Embedding::new(rng, config.vocab, config.d_model),
            pos_emb: Embedding::new(rng, config.max_len, config.d_model),
            blocks: (0..config.n_layers).map(|_| EncoderBlock::new(rng, &config)).collect(),
            emb_ln: LayerNorm::new(config.d_model),
            config,
        }
    }

    /// Replace the token-embedding table (e.g. with pre-trained GloVe
    /// vectors). Panics on shape mismatch.
    pub fn set_token_embeddings(&mut self, table: Matrix) {
        assert_eq!(table.rows(), self.config.vocab);
        assert_eq!(table.cols(), self.config.d_model);
        self.tok_emb.table.data_mut().copy_from_slice(table.data());
    }

    /// A copy of the token-embedding table (vocab × d_model).
    pub fn token_embeddings(&self) -> &Matrix {
        &self.tok_emb.table
    }

    /// Zero the token-embedding gradients accumulated this step. Calling
    /// this before every optimizer step freezes the embedding table (with
    /// optimizers whose state starts at zero), preserving pre-trained token
    /// geometry — including for tokens the fine-tuning set never contains.
    pub fn zero_token_embedding_grads(&mut self) {
        self.tok_emb.zero_grad();
    }

    fn clamp_ids<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.config.max_len)]
    }

    /// Forward one sequence of token ids (training mode; caches for
    /// backward). Returns hidden states (T×d).
    pub fn forward(&mut self, ids: &[usize]) -> Matrix {
        let ids = self.clamp_ids(ids);
        assert!(!ids.is_empty(), "empty sequence");
        let positions: Vec<usize> = (0..ids.len()).collect();
        let mut x = self.tok_emb.forward(ids);
        x.add_assign(&self.pos_emb.forward(&positions));
        let mut h = self.emb_ln.forward(&x);
        for block in &mut self.blocks {
            h = block.forward(&h);
        }
        h
    }

    /// Deterministic cost (multiply-accumulate units) of running one
    /// encoder block on a `t`-token sequence: QKV/output projections,
    /// attention scores, and the feed-forward sublayer.
    pub fn block_cost(&self, t: usize) -> u64 {
        let t = t as u64;
        let d = self.config.d_model as u64;
        let d_ff = self.config.d_ff as u64;
        4 * t * d * d + 2 * t * t * d + 2 * t * d * d_ff
    }

    /// Cost of the embedding lookup + embedding layer norm for `t` tokens.
    pub fn embed_cost(&self, t: usize) -> u64 {
        2 * t as u64 * self.config.d_model as u64
    }

    /// Total inference cost for a `t`-token sequence (after clamping to
    /// `max_len`): embeddings plus every block. This is the reproducible
    /// wall-time proxy the serving path budgets against.
    pub fn inference_cost(&self, t: usize) -> u64 {
        let t = t.min(self.config.max_len);
        self.embed_cost(t) + self.config.n_layers as u64 * self.block_cost(t)
    }

    /// Packed-batch inference over several token sequences at once: clamps
    /// each sequence to `max_len`, concatenates them row-wise, and runs
    /// embeddings, layer norms, and all linear projections as single
    /// operations over the packed rows (attention iterates per sequence).
    /// Returns the packed hidden states plus row bounds: sequence `s`
    /// occupies rows `bounds[s]..bounds[s+1]`.
    ///
    /// Every per-row computation in the stack (GEMM output rows, layer
    /// norm, GELU, embedding gathers) is independent of neighbouring rows
    /// and of the total row count, so each sequence's block of the output
    /// is bitwise identical to the training [`Encoder::forward`] on that
    /// sequence alone. This is the encoder's only inference forward: a
    /// single request is a batch of one. Scratch matrices come from
    /// `arena`, which after the first batch serves every request from warm
    /// buffers.
    ///
    /// Panics if any sequence is empty (mirroring the training forward's
    /// assert); budgeted callers must filter affordable, non-empty
    /// sequences first (see [`Encoder::plan_inference_cost`]).
    pub fn forward_inference_batch(
        &self,
        seqs: &[&[usize]],
        arena: &mut ScratchArena,
    ) -> (Matrix, Vec<usize>) {
        let clamped: Vec<&[usize]> = seqs.iter().map(|ids| self.clamp_ids(ids)).collect();
        let mut bounds = Vec::with_capacity(clamped.len() + 1);
        bounds.push(0usize);
        for ids in &clamped {
            assert!(!ids.is_empty(), "empty sequence");
            bounds.push(bounds.last().unwrap() + ids.len());
        }
        let rows = *bounds.last().unwrap();
        let d = self.config.d_model;
        let mut x = arena.take(rows, d);
        let mut pos_ids = Vec::with_capacity(rows);
        for (s, ids) in clamped.iter().enumerate() {
            self.tok_emb.lookup_span(ids, &mut x, bounds[s]);
            pos_ids.extend(0..ids.len());
        }
        let mut pos = arena.take(rows, d);
        self.pos_emb.lookup_span(&pos_ids, &mut pos, 0);
        x.add_assign(&pos);
        arena.put(pos);
        let mut h = arena.take(rows, d);
        self.emb_ln.forward_inference_into(&x, &mut h);
        arena.put(x);
        for block in &self.blocks {
            h = block.forward_inference_batch(h, &bounds, arena);
        }
        (h, bounds)
    }

    /// The deadline check for a `t`-token (pre-clamp) sequence against
    /// `budget`, without doing any compute: the embedding charge, then one
    /// block charge per layer, each checked before it is spent. Returns the
    /// encoder cost the forward spends, or a typed [`InferError`]:
    /// [`InferError::EmptyInput`] for a zero-length sequence, or
    /// [`InferError::DeadlineExceeded`] naming the charge that did not fit.
    /// Cost depends only on length, so budgeted inference is this plan
    /// followed by [`Encoder::forward_inference_batch`] on the sequences it
    /// accepts; unaffordable requests get their deterministic refusal
    /// without holding up the rest of the batch.
    pub fn plan_inference_cost(&self, t: usize, budget: u64) -> Result<u64, InferError> {
        let t = t.min(self.config.max_len);
        if t == 0 {
            return Err(InferError::EmptyInput);
        }
        let mut spent = 0u64;
        let mut charge = |needed: u64| -> Result<(), InferError> {
            if spent + needed > budget {
                Err(InferError::DeadlineExceeded { spent, needed, budget })
            } else {
                spent += needed;
                Ok(())
            }
        };
        charge(self.embed_cost(t))?;
        let block_cost = self.block_cost(t);
        for _ in &self.blocks {
            charge(block_cost)?;
        }
        Ok(spent)
    }

    /// Backward from dL/dhidden; accumulates gradients in all submodules.
    pub fn backward(&mut self, dhidden: &Matrix) {
        let mut d = dhidden.clone();
        for block in self.blocks.iter_mut().rev() {
            d = block.backward(&d);
        }
        let dx = self.emb_ln.backward(&d);
        self.tok_emb.backward(&dx);
        self.pos_emb.backward(&dx);
    }

    /// Attention maps of the last training forward, per layer then head.
    pub fn last_attention(&self) -> Vec<&[Matrix]> {
        self.blocks.iter().filter_map(|b| b.last_attention()).collect()
    }

    /// The `[CLS]` (first-position) embedding of a sequence, inference mode.
    pub fn cls_embedding(&self, ids: &[usize]) -> Vec<f32> {
        let (h, _) = self.forward_inference_batch(&[ids], &mut ScratchArena::new());
        h.row(0).to_vec()
    }
}

impl Module for Encoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.tok_emb.visit_params(f);
        self.pos_emb.visit_params(f);
        self.emb_ln.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> (Encoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let enc = Encoder::new(
            &mut rng,
            EncoderConfig {
                vocab: 20,
                d_model: 16,
                n_heads: 2,
                n_layers: 2,
                d_ff: 32,
                max_len: 16,
            },
        );
        (enc, rng)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let (mut enc, _) = small();
        let h = enc.forward(&[2, 5, 6, 7, 3]);
        assert_eq!((h.rows(), h.cols()), (5, 16));
        assert!(h.is_finite());
    }

    #[test]
    fn sequences_longer_than_max_len_are_clamped() {
        let (mut enc, _) = small();
        let ids: Vec<usize> = (0..40).map(|i| i % 20).collect();
        let h = enc.forward(&ids);
        assert_eq!(h.rows(), 16);
    }

    #[test]
    fn contextual_embeddings_differ_by_context() {
        // The same token in different contexts gets different vectors —
        // the BERT-vs-Word2Vec distinction the paper's §2 highlights.
        let (mut enc, _) = small();
        let h1 = enc.forward(&[2, 7, 8, 3]);
        let h2 = enc.forward(&[2, 7, 15, 3]);
        // Token 7 at position 1 in both, different right context.
        let v1 = h1.row(1);
        let v2 = h2.row(1);
        let diff: f32 = v1.iter().zip(v2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "contextual embeddings should differ: {diff}");
    }

    #[test]
    fn end_to_end_gradient_check() {
        let (mut enc, _) = small();
        let ids = [2usize, 6, 11, 3];
        // L = ½‖h‖².
        let h = enc.forward(&ids);
        enc.zero_grad();
        // Re-run forward so caches match the graded pass.
        let h = {
            let h2 = enc.forward(&ids);
            assert_eq!(h.data(), h2.data());
            h2
        };
        enc.backward(&h);
        // Numeric check on one token-embedding entry.
        let eps = 1e-2;
        let token = ids[1];
        let dim0 = 0usize;
        let idx = token * 16 + dim0;
        let mut analytic = 0.0;
        let mut slot = 0;
        enc.visit_params(&mut |_, g| {
            if slot == 0 {
                analytic = g[idx];
            }
            slot += 1;
        });
        let loss = |enc: &Encoder| -> f32 {
            let h = enc.clone().forward(&ids);
            0.5 * h.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut orig = 0.0;
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                orig = p[idx];
                p[idx] = orig + eps;
            }
            slot += 1;
        });
        let lp = loss(&enc);
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                p[idx] = orig - eps;
            }
            slot += 1;
        });
        let lm = loss(&enc);
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                p[idx] = orig;
            }
            slot += 1;
        });
        let numeric = (lp - lm) / (2.0 * eps);
        let rel = (numeric - analytic).abs() / numeric.abs().max(1e-2);
        assert!(rel < 0.1, "numeric {numeric} analytic {analytic}");
    }

    #[test]
    fn packed_batch_forward_matches_training_forward_bitwise() {
        let (enc, _) = small();
        let seqs: Vec<Vec<usize>> = vec![
            vec![2, 5, 6, 7, 3],
            vec![2],
            vec![2, 9, 10, 11, 12, 13, 14, 3],
            (0..40).map(|i| i % 20).collect(), // clamped to max_len
        ];
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut arena = ScratchArena::new();
        // Two passes: the second runs entirely on recycled dirty buffers.
        for pass in 0..2 {
            let (h, bounds) = enc.forward_inference_batch(&refs, &mut arena);
            assert_eq!(bounds.len(), seqs.len() + 1);
            for (s, ids) in seqs.iter().enumerate() {
                let want = enc.clone().forward(ids);
                assert_eq!(bounds[s + 1] - bounds[s], want.rows(), "seq {s} rows");
                for r in 0..want.rows() {
                    let got: Vec<u32> = h.row(bounds[s] + r).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = want.row(r).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "pass {pass} seq {s} row {r}");
                }
            }
            assert_eq!(bounds[4] - bounds[3], enc.config.max_len, "over-long input clamps");
            arena.put(h);
        }
        assert!(arena.available() > 0, "buffers were retired for reuse");
    }

    #[test]
    fn plan_inference_cost_checks_every_charge() {
        let (enc, _) = small();
        let t = 5;
        let cost = enc.inference_cost(t);
        assert!(cost > 0);
        // An exact budget suffices and reports the whole cost.
        assert_eq!(enc.plan_inference_cost(t, cost), Ok(cost));
        // One unit short fails at the last block's charge.
        let short = enc.plan_inference_cost(t, cost - 1);
        assert_eq!(
            short,
            Err(InferError::DeadlineExceeded {
                spent: cost - enc.block_cost(t),
                needed: enc.block_cost(t),
                budget: cost - 1,
            })
        );
        // Same inputs, same verdict: the proxy is reproducible.
        assert_eq!(short, enc.plan_inference_cost(t, cost - 1));
        // Zero budget fails before the embedding; the error displays.
        let zero = enc.plan_inference_cost(t, 0).expect_err("zero budget");
        assert_eq!(
            zero,
            InferError::DeadlineExceeded { spent: 0, needed: enc.embed_cost(t), budget: 0 }
        );
        assert!(zero.to_string().contains("deadline exceeded"));
        assert_eq!(enc.plan_inference_cost(0, u64::MAX), Err(InferError::EmptyInput));
        assert!(InferError::EmptyInput.to_string().contains("empty"));
        // Over-long sequences clamp the same way the forward does.
        assert_eq!(enc.inference_cost(40), enc.inference_cost(enc.config.max_len));
        assert_eq!(enc.plan_inference_cost(40, cost * 100), Ok(enc.inference_cost(40)));
    }

    #[test]
    fn set_token_embeddings_replaces_table() {
        let (mut enc, mut rng) = small();
        let table = nfm_tensor::init::normal(&mut rng, 20, 16, 0.1);
        enc.set_token_embeddings(table.clone());
        assert_eq!(enc.token_embeddings().data(), table.data());
    }

    #[test]
    fn cls_embedding_is_the_first_hidden_row() {
        let (enc, _) = small();
        let cls = enc.cls_embedding(&[2, 5, 3]);
        let want = enc.clone().forward(&[2, 5, 3]);
        assert_eq!(cls.len(), 16);
        assert_eq!(
            cls.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
