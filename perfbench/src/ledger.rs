//! The per-layer ledger of a traced run. Each layer is timed from outside
//! by replaying its public functions on the workload's own inputs: the
//! capture, its requests, their batch composition and the served model.
//! A layer the workload does not run itself (the fan-out server and the
//! cluster on both workloads, training on `serve-open`, the open-loop
//! engine on `train`) is replayed on the same inputs, so every workload
//! reports every layer.

use std::time::Instant;

use nfm_core::pipeline::{FmClassifier, FoundationModel, TaskHead, TextExample};
use nfm_core::serve::{assemble_requests, ServeEngine, ServeRequest};
use nfm_model::nn::attention::MultiHeadAttention;
use nfm_model::nn::heads::ClsHead;
use nfm_model::pretrain::encode_context;
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_tensor::layers::{Embedding, Gelu, LayerNorm, Linear};
use nfm_tensor::matrix::Matrix;
use nfm_tensor::pool;
use nfm_tensor::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::prep::MAX_TOKENS;
use crate::serving::{fallback, open_loop, serve_config, OpenLoop};
use crate::trace::Tracer;
use crate::util::{median, ns_since, poisson_arrivals, sub_seed, Summary};
use crate::Ctx;

/// Minimum wall time each replay repeats for before taking its median.
const MIN_REPLAY_S: f64 = 0.25;

/// Requests whose batches the encoder, stage and head replays cover: the
/// first batches of the workload, up to this many requests.
const REPLAY_REQUESTS: usize = 2000;

/// Reference arrival rate of the open-loop serving phases, requests/s.
pub const REF_RATE: f64 = 1000.0;

/// A workload's inputs, as the ledger replays them.
pub struct Input<'a> {
    /// The capture the workload ingests.
    pub trace: &'a Trace,
    /// Its requests.
    pub requests: &'a [ServeRequest],
    /// The served (or, for `train`, freshly trained) classifier.
    pub clf: &'a FmClassifier,
    /// Batch composition: request positions per packed forward.
    pub batches: &'a [Vec<usize>],
}

/// Read an observability counter.
pub fn counter(name: &'static str) -> u64 {
    nfm_obs::global().counter(name, nfm_obs::Unit::Count).get()
}

/// Pool dispatches so far.
pub fn pool_calls() -> u64 {
    counter("pool.par_map.calls") + counter("pool.par_chunks.calls")
}

/// Repeat `f` (which returns the seconds it measured) until
/// [`MIN_REPLAY_S`] has passed and at least `min_reps` ran; the median.
/// Only the first repetition is traced, which keeps the span file small.
fn repeat(tr: &mut Tracer, min_reps: usize, mut f: impl FnMut(&mut Tracer) -> f64) -> (f64, usize) {
    let t = Instant::now();
    let mut v = vec![f(tr)];
    let mut off = Tracer::new(false);
    while v.len() < min_reps || (t.elapsed().as_secs_f64() < MIN_REPLAY_S && v.len() < 10_000) {
        v.push(f(&mut off));
    }
    (median(&v), v.len())
}

fn tokens_of<'a>(requests: &'a [ServeRequest], batch: &[usize]) -> Vec<&'a [String]> {
    batch.iter().map(|&i| requests[i].tokens.as_slice()).collect()
}

/// Ledger rows every workload measures the same way. Returns the encoder's
/// µs per request, which the serve and fan-out settle rows subtract.
pub fn common(ctx: &mut Ctx, inp: &Input) -> f64 {
    let mut covered = 0usize;
    let n_batches = inp
        .batches
        .iter()
        .take_while(|b| {
            covered += b.len();
            covered <= REPLAY_REQUESTS
        })
        .count()
        .max(1);
    let inp = &Input { batches: &inp.batches[..n_batches], ..*inp };
    let tr = &mut ctx.tracer;
    let rep = &mut ctx.report;
    let tok = FieldTokenizer::new();
    let n_req: usize = inp.batches.iter().map(Vec::len).sum();

    // ingest: nfm_net parsing + flow assembly.
    let mut ingest = None;
    let (t, reps) = repeat(tr, 3, |tr| {
        let t0 = Instant::now();
        let out =
            tr.span("assemble_requests", 0, || assemble_requests(inp.trace, &tok, MAX_TOKENS));
        let s = t0.elapsed().as_secs_f64();
        ingest = Some(out.1);
        s
    });
    let st = ingest.expect("ingest ran");
    let packets = inp.trace.len().max(1) as f64;
    let detail = format!("median of {reps} assemblies of {packets} packets");
    rep.put("ingest.us_per_packet", t * 1e6 / packets, detail.clone());
    rep.put("ingest.us_per_flow", t * 1e6 / st.flows_assembled.max(1) as f64, detail);
    rep.put(
        "ingest.malformed_ratio",
        st.malformed_packets as f64 / packets,
        format!("{} malformed / {packets} packets", st.malformed_packets),
    );

    // vocab: FoundationModel::encode.
    let fm = FoundationModel {
        encoder: inp.clf.encoder.clone(),
        vocab: inp.clf.vocab.clone(),
        max_len: inp.clf.max_len,
    };
    let (t, reps) = repeat(tr, 3, |tr| {
        let t0 = Instant::now();
        tr.span("FoundationModel::encode", 0, || {
            for r in inp.requests {
                std::hint::black_box(fm.encode(&r.tokens));
            }
        });
        t0.elapsed().as_secs_f64()
    });
    rep.put(
        "vocab.encode_us_per_req",
        t * 1e6 / inp.requests.len() as f64,
        format!("median of {reps} passes over {} requests", inp.requests.len()),
    );

    // encoder: the workload's batches through the packed forward.
    let backbone = inp.clf.backbone();
    let mut arena = ScratchArena::new();
    let takes = || {
        counter("tensor.arena.alloc") + counter("tensor.arena.reuse") + counter("tensor.arena.grow")
    };
    let (reuse0, takes0) = (counter("tensor.arena.reuse"), takes());
    let (t, reps) = repeat(tr, 3, |tr| {
        let t0 = Instant::now();
        for (b, batch) in inp.batches.iter().enumerate() {
            let toks = tokens_of(inp.requests, batch);
            if let [one] = toks[..] {
                // The engine serves a batch of one through the single-request path.
                let _ = tr.span("FmClassifier::logits_within", b as u64, || {
                    std::hint::black_box(inp.clf.logits_within(one, u64::MAX))
                });
            } else {
                tr.span("FmClassifier::logits_batch_within", b as u64, || {
                    std::hint::black_box(inp.clf.logits_batch_within(&toks, u64::MAX, &mut arena))
                });
            }
        }
        t0.elapsed().as_secs_f64()
    });
    let (reuse, all) = (counter("tensor.arena.reuse") - reuse0, takes() - takes0);
    let enc_us = t * 1e6 / n_req as f64;
    let macs: f64 = inp
        .batches
        .iter()
        .flatten()
        .map(|&i| inp.clf.inference_cost(inp.requests[i].tokens.len()) as f64)
        .sum::<f64>()
        / n_req as f64;
    rep.put(
        "encoder.us_per_req",
        enc_us,
        format!(
            "logits_within / logits_batch_within, median of {reps} replays of {} batches / {n_req} requests",
            inp.batches.len()
        ),
    );
    rep.put("encoder.macs_per_req", macs, "deterministic inference cost, mean over requests");
    rep.put(
        "encoder.gmacs_effective",
        macs / enc_us / 1e3,
        "encoder.macs_per_req / encoder.us_per_req",
    );
    rep.put(
        "tensor.arena.reuse_ratio",
        reuse as f64 / all.max(1) as f64,
        format!("{reuse} reused of {all} arena takes over the encoder replays"),
    );

    // stages: the same batches through freshly built public modules.
    let stages = stage_ledger(inp, tr);
    let names = [
        "stage.embed.us_per_req",
        "stage.attention.us_per_req",
        "stage.layernorm.us_per_req",
        "stage.ffn.us_per_req",
        "stage.gelu.us_per_req",
        "stage.head.us_per_req",
    ];
    for (name, v) in names.iter().zip(stages) {
        rep.put(name, v, "module replay at the workload's batch composition");
    }
    let sum: f64 = stages.iter().sum();
    rep.put(
        "stage.unaccounted.us_per_req",
        enc_us - sum,
        format!("encoder.us_per_req {enc_us:.2} - stage sum {sum:.2}"),
    );
    println!(
        "  stage ledger: stages {sum:.2} + unaccounted {:.2} = encoder.us_per_req {enc_us:.2} us",
        enc_us - sum
    );

    // heads: TaskHead::logits_batch on the workload's pooled batches.
    let head = TaskHead::from_classifier(inp.clf, "ledger");
    let pooled: Vec<Matrix> = inp
        .batches
        .iter()
        .map(|b| {
            backbone.pooled_batch_within(&tokens_of(inp.requests, b), u64::MAX, &mut arena).pooled
        })
        .collect();
    let (t, reps) = repeat(tr, 3, |tr| {
        let t0 = Instant::now();
        for (b, p) in pooled.iter().enumerate() {
            tr.span("TaskHead::logits_batch", b as u64, || {
                std::hint::black_box(head.logits_batch(p))
            });
        }
        t0.elapsed().as_secs_f64()
    });
    rep.put("head.us_per_row", t * 1e6 / n_req as f64, format!("median of {reps} replays"));

    kernels(ctx, inp);
    enc_us
}

/// Time every stage of the packed encoder forward on modules shaped like
/// the served model, over the workload's batches. µs per request for embed,
/// attention, layernorm (with residual adds), ffn, gelu and head (pooling
/// plus the class head).
fn stage_ledger(inp: &Input, tr: &mut Tracer) -> [f64; 6] {
    let cfg = inp.clf.encoder.config;
    let d = cfg.d_model;
    let mut rng = StdRng::seed_from_u64(0x57A6E);
    let tok = Embedding::new(&mut rng, cfg.vocab, d);
    let pos = Embedding::new(&mut rng, cfg.max_len, d);
    let emb_ln = LayerNorm::new(d);
    struct Block {
        attn: MultiHeadAttention,
        ln1: LayerNorm,
        ff1: Linear,
        gelu: Gelu,
        ff2: Linear,
        ln2: LayerNorm,
    }
    let blocks: Vec<Block> = (0..cfg.n_layers)
        .map(|_| Block {
            attn: MultiHeadAttention::new(&mut rng, d, cfg.n_heads),
            ln1: LayerNorm::new(d),
            ff1: Linear::new(&mut rng, d, cfg.d_ff),
            gelu: Gelu::new(),
            ff2: Linear::new(&mut rng, cfg.d_ff, d),
            ln2: LayerNorm::new(d),
        })
        .collect();
    let head = ClsHead::new(&mut rng, d, inp.clf.n_classes);
    let ids: Vec<Vec<Vec<usize>>> = inp
        .batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|&i| encode_context(&inp.clf.vocab, &inp.requests[i].tokens, cfg.max_len))
                .collect()
        })
        .collect();
    let n_req: usize = inp.batches.iter().map(Vec::len).sum();
    let mut arena = ScratchArena::new();
    let mut reps = 0usize;
    let mut acc = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let t_all = Instant::now();
    let mut off = Tracer::new(false);
    while reps < 3 || t_all.elapsed().as_secs_f64() < MIN_REPLAY_S {
        let tr: &mut Tracer = if reps == 0 { &mut *tr } else { &mut off };
        let mut ns = [0u64; 6];
        for (b, seqs) in ids.iter().enumerate() {
            let mut timed = |stage: usize, name: &'static str, f: &mut dyn FnMut()| {
                let id = tr.enter(name, b as u64);
                let t0 = Instant::now();
                f();
                ns[stage] += ns_since(t0);
                tr.exit(id);
            };
            let mut bounds = vec![0usize];
            for s in seqs {
                bounds.push(bounds.last().unwrap() + s.len());
            }
            let rows = *bounds.last().unwrap();
            let mut x = arena.take(rows, d);
            timed(0, "Embedding::lookup", &mut || {
                let mut pos_ids = Vec::with_capacity(rows);
                for (s, ids) in seqs.iter().enumerate() {
                    tok.lookup_span(ids, &mut x, bounds[s]);
                    pos_ids.extend(0..ids.len());
                }
                let mut p = arena.take(rows, d);
                pos.lookup_span(&pos_ids, &mut p, 0);
                x.add_assign(&p);
                arena.put(p);
            });
            let mut h = arena.take(rows, d);
            timed(2, "LayerNorm", &mut || emb_ln.forward_inference_into(&x, &mut h));
            arena.put(x);
            for blk in &blocks {
                let mut a = Matrix::zeros(0, 0);
                timed(1, "MultiHeadAttention", &mut || {
                    a = blk.attn.forward_inference_batch(&h, &bounds, &mut arena)
                });
                let mut h1 = arena.take(rows, d);
                timed(2, "LayerNorm", &mut || {
                    h.add_assign(&a);
                    blk.ln1.forward_inference_into(&h, &mut h1);
                });
                arena.put(a);
                let mut f1 = arena.take(rows, cfg.d_ff);
                timed(3, "Linear", &mut || blk.ff1.forward_inference_into(&h1, &mut f1));
                let mut g = arena.take(rows, cfg.d_ff);
                timed(4, "Gelu", &mut || blk.gelu.forward_inference_into(&f1, &mut g));
                let mut f2 = arena.take(rows, d);
                timed(3, "Linear", &mut || blk.ff2.forward_inference_into(&g, &mut f2));
                let mut out = arena.take(rows, d);
                timed(2, "LayerNorm", &mut || {
                    h1.add_assign(&f2);
                    blk.ln2.forward_inference_into(&h1, &mut out);
                });
                for m in [std::mem::replace(&mut h, out), h1, f1, g, f2] {
                    arena.put(m);
                }
            }
            timed(5, "ClsHead", &mut || {
                let mut pooled = arena.take(seqs.len(), d);
                for j in 0..seqs.len() {
                    let prow = pooled.row_mut(j);
                    for r in bounds[j]..bounds[j + 1] {
                        for (o, v) in prow.iter_mut().zip(h.row(r)) {
                            *o += v;
                        }
                    }
                    let inv = 1.0 / (bounds[j + 1] - bounds[j]) as f32;
                    prow.iter_mut().for_each(|o| *o *= inv);
                }
                std::hint::black_box(head.forward_inference(&pooled));
                arena.put(pooled);
            });
            arena.put(h);
        }
        for (a, v) in acc.iter_mut().zip(ns) {
            a.push(v as f64 / 1e3 / n_req as f64);
        }
        reps += 1;
    }
    acc.map(|v| median(&v))
}

/// Kernel ceilings and achieved rates, the pool's dispatch cost, and the
/// host record.
fn kernels(ctx: &mut Ctx, inp: &Input) {
    let rep = &mut ctx.report;
    let mat = |r: usize, c: usize| {
        Matrix::from_fn(r, c, |i, j| ((i * 31 + j * 7) % 17) as f32 * 0.1 - 0.8)
    };
    let mut off = Tracer::new(false);
    let mut gmacs = |macs: f64, mut f: Box<dyn FnMut() + '_>| {
        let (t, reps) = repeat(&mut off, 3, |_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        });
        (macs / t / 1e9, reps)
    };
    let (a, b) = (mat(256, 256), mat(256, 256));
    let (g, reps) = gmacs(
        256f64.powi(3),
        Box::new(|| {
            std::hint::black_box(a.matmul(&b));
        }),
    );
    rep.put("kernel.matmul_peak_gmacs", g, format!("256x256x256 matmul, median of {reps}"));

    // Serving shapes: one packed batch of the workload's mean row count
    // through the QKV, FFN-in and FFN-out projections.
    let cfg = inp.clf.encoder.config;
    let (d, dff) = (cfg.d_model, cfg.d_ff);
    let rows = (inp
        .batches
        .iter()
        .flatten()
        .map(|&i| (inp.requests[i].tokens.len() + 2).min(cfg.max_len))
        .sum::<usize>()
        / inp.batches.len().max(1))
    .max(1);
    let (x, wqkv, w1, h, w2) =
        (mat(rows, d), mat(d, 3 * d), mat(d, dff), mat(rows, dff), mat(dff, d));
    let macs = (rows * d * 3 * d + rows * d * dff + rows * dff * d) as f64;
    let (g, reps) = gmacs(
        macs,
        Box::new(|| {
            std::hint::black_box(x.matmul(&wqkv));
            std::hint::black_box(x.matmul(&w1));
            std::hint::black_box(h.matmul(&w2));
        }),
    );
    rep.put(
        "kernel.matmul_serving_gmacs",
        g,
        format!(
            "{rows}-row packed batch through {d}x{} / {d}x{dff} / {dff}x{d}, median of {reps}",
            3 * d
        ),
    );

    // Training shapes: weight and input gradients of the FFN at one
    // 8-sequence batch of max_len tokens.
    let t = 8 * cfg.max_len;
    let (xt, dy, w) = (mat(t, d), mat(t, dff), mat(d, dff));
    let macs = (d * dff * t + t * dff * d) as f64;
    let (g, reps) = gmacs(
        macs,
        Box::new(|| {
            std::hint::black_box(xt.matmul_tn(&dy));
            std::hint::black_box(dy.matmul_nt(&w));
        }),
    );
    rep.put(
        "kernel.matmul_train_gmacs",
        g,
        format!("matmul_tn + matmul_nt at {t}x{d}x{dff}, median of {reps}"),
    );

    let threads = pool::effective_threads();
    let (t, reps) = repeat(&mut Tracer::new(false), 3, |_| {
        let t0 = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(pool::par_map(threads, |i| i));
        }
        t0.elapsed().as_secs_f64() / 100.0
    });
    rep.put(
        "pool.dispatch_us",
        t * 1e6,
        format!("par_map of {threads} trivial tasks, median of {reps} x 100"),
    );
    rep.put("host.nproc", crate::util::nproc() as f64, "available_parallelism");
    rep.put("host.pool_threads", threads as f64, "pool::effective_threads");
}

/// Checkpoint save and load times of the served classifier, ms.
pub fn checkpoint(ctx: &mut Ctx, clf: &FmClassifier) -> Result<(), String> {
    let path = ctx.dir.join("ledger.nfmc");
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        ctx.tracer.span("FmClassifier::save", 0, || clf.save(&path)).map_err(|e| e.to_string())?;
        save.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        ctx.tracer
            .span("FmClassifier::load", 0, || FmClassifier::load(&path))
            .map_err(|e| e.to_string())?;
        load.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    ctx.report.put("cluster.checkpoint_save_ms", median(&save), "FmClassifier::save, median of 5");
    ctx.report.put("cluster.checkpoint_load_ms", median(&load), "FmClassifier::load, median of 5");
    Ok(())
}

/// The serve layer's rows from an open-loop phase.
pub fn serve_rows(ctx: &mut Ctx, ol: &OpenLoop, enc_us: f64, source: &str) {
    let rep = &mut ctx.report;
    let answered = (ol.model + ol.fallback).max(1) as f64;
    let sub = Summary::of(&ol.submit_us);
    rep.put("serve.submit_us", sub.p50, format!("{source}; {}", sub.describe()));
    rep.put(
        "serve.settle_us_per_req",
        ol.drain_ns as f64 / 1e3 / answered - enc_us,
        format!("{source}; drain time per answer minus encoder.us_per_req"),
    );
    let qw = Summary::of(&ol.queue_wait_us);
    rep.put(
        "serve.queue_wait_p50_us",
        qw.p50,
        format!("{source}; due to submit; {}", qw.describe()),
    );
    rep.put("serve.queue_wait_p99_us", qw.p99, format!("{source}; n {}", qw.n));
    let (forwards, packed) = ol.packed;
    rep.put(
        "serve.batch_size_mean",
        packed as f64 / forwards.max(1) as f64,
        format!(
            "{source}; serve.batch.requests / serve.batch.count: {packed} requests in \
             {forwards} packed forwards (micro-batches of one are not packed)"
        ),
    );
    let (par_map, par_chunks) = ol.pool_calls;
    rep.put(
        "pool.calls_per_req",
        (par_map + par_chunks) as f64 / ol.sent.max(1) as f64,
        format!(
            "{source}; ({par_map} pool.par_map + {par_chunks} par_chunks calls) / {} sent",
            ol.sent
        ),
    );
    let sent = ol.sent.max(1) as f64;
    rep.put(
        "serve.shed_ratio",
        ol.shed as f64 / sent,
        format!("{} shed / {} sent", ol.shed, ol.sent),
    );
    rep.put(
        "serve.fallback_ratio",
        ol.fallback as f64 / sent,
        format!("{} fallback / {} sent", ol.fallback, ol.sent),
    );
    let late = Summary::of(&ol.late_us);
    rep.put(
        "gen.late_p99_us",
        late.p99,
        format!("{source}; idle-generator lateness; {}", late.describe()),
    );
    rep.put("gen.late_max_us", late.max, format!("{source}; n {}", late.n));
}

/// Serve the workload's requests open loop at the reference rate through a
/// fresh engine, for the serve layer's rows.
pub fn serve_replay(ctx: &mut Ctx, inp: &Input, expected: &[usize], enc_us: f64) {
    let mut engine = ServeEngine::new(inp.clf.clone(), fallback(inp.clf.n_classes), serve_config());
    let n = (REF_RATE * 2.0) as usize;
    let due = poisson_arrivals(n, REF_RATE, sub_seed(ctx.seed, 40));
    let ol = open_loop(&mut engine, inp.requests, expected, &due, &mut ctx.tracer, 1 << 40);
    ctx.ops(ol.model, ol.wrong);
    serve_rows(ctx, &ol, enc_us, "replay at 1000 req/s");
}

/// Training facts: step times and pool dispatches per epoch.
pub struct Train {
    /// ms per pretraining step.
    pub pretrain_step_ms: f64,
    /// ms per fine-tuning step.
    pub finetune_step_ms: f64,
    /// Pool dispatches per epoch.
    pub pool_calls_per_epoch: f64,
}

/// The training layer's rows.
pub fn train_rows(ctx: &mut Ctx, t: &Train, source: &str) {
    let rep = &mut ctx.report;
    rep.put(
        "train.pretrain_step_ms",
        t.pretrain_step_ms,
        format!("{source}; epoch time / train.steps"),
    );
    rep.put(
        "train.finetune_step_ms",
        t.finetune_step_ms,
        format!("{source}; epoch time / finetune.steps"),
    );
    rep.put(
        "pool.calls_per_epoch",
        t.pool_calls_per_epoch,
        format!("{source}; pool.par_map + par_chunks calls"),
    );
}

/// One pretrain + fine-tune round on the first requests of the workload,
/// labelled by the served model.
pub fn train_replay(ctx: &mut Ctx, inp: &Input, expected: &[usize]) -> Result<(), String> {
    let n = inp.requests.len().min(48);
    let corpus = crate::train::Corpus {
        contexts: inp.requests[..n].iter().map(|r| r.tokens.clone()).collect(),
        examples: inp.requests[..n]
            .iter()
            .zip(expected)
            .map(|(r, &label)| TextExample { tokens: r.tokens.clone(), label })
            .collect(),
        n_classes: inp.clf.n_classes,
    };
    let vocab = corpus.vocab();
    let (round, _) = crate::train::round(&corpus, &vocab, ctx.seed, &mut ctx.tracer)?;
    train_rows(ctx, &round.facts(), "replay on 48 of the workload's requests");
    Ok(())
}

/// Traced ÷ untraced wall time of `pass` (which returns its seconds):
/// the ratio of the medians of five runs each, interleaved.
pub fn overhead(mut pass: impl FnMut(&mut Tracer) -> f64) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..10 {
        let traced = i % 4 == 1 || i % 4 == 2;
        let s = pass(&mut Tracer::new(traced));
        if traced {
            on.push(s)
        } else {
            off.push(s)
        }
    }
    median(&on) / median(&off)
}

/// Expected classes of `requests` under `clf`, keyed by position.
pub fn reference_classes(clf: &FmClassifier, requests: &[ServeRequest]) -> Vec<usize> {
    requests.iter().map(|r| clf.predict(&r.tokens)).collect()
}
