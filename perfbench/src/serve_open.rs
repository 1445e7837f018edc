//! `serve-open`: one task on one [`ServeEngine`], serving requests
//! pre-assembled from a clean capture, in cycles of open-loop Poisson
//! arrivals at a reference rate followed by a closed loop at capacity.
//!
//! Requests go out in a length-interleaved order (`util::stratified_order`),
//! so any run of requests, and so every timing window, holds the capture's
//! mix of short and long flows (14 to 48 tokens, ~4x apart in encoder cost).

use std::path::Path;
use std::time::Instant;

use nfm_core::serve::{Responder, ServeEngine, ServeRequest};

use crate::ledger::{self, Input, REF_RATE};
use crate::serving::{
    fallback, load_capture, load_model, open_loop, positions, serve_config, serve_counters,
    OpenLoop, MAX_BATCH,
};
use crate::trace::Tracer;
use crate::util::{self, poisson_arrivals, stratified_order, sub_seed, Summary};
use crate::Ctx;

/// Requests per latency window of the reference phase.
const WINDOW: usize = 50;
/// Wall time of one throughput window of the saturation phase, s.
const RATE_WINDOW_S: f64 = 0.02;
/// Measured saturation time between two set-up blocks, s.
const SETUP_EVERY_S: f64 = 0.06;
/// Reference-rate / capacity cycles of an untraced run. Alternating the
/// phases (and the set-up blocks run in the capacity phases) through the
/// whole run samples more of the host's quiet and busy periods than one
/// phase after the other.
const CYCLES: usize = 10;

/// Load, construct and warm an engine; returns it with the warm-up answers.
fn set_up(dir: &Path, warm: &[ServeRequest]) -> Result<(ServeEngine, Vec<usize>), String> {
    let clf = load_model(dir)?;
    let mut engine = ServeEngine::new(clf.clone(), fallback(clf.n_classes), serve_config());
    for r in warm {
        engine.submit(r.clone());
    }
    let classes = engine.drain_queue().iter().map(|r| r.class).collect();
    Ok((engine, classes))
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut cap = load_capture(&ctx.dir)?;
    let lengths: Vec<usize> = cap.requests.iter().map(|r| r.tokens.len()).collect();
    let order = stratified_order(&lengths, sub_seed(ctx.seed, 9));
    let mut taken: Vec<Option<ServeRequest>> = cap.requests.drain(..).map(Some).collect();
    cap.requests = order.iter().map(|&i| taken[i].take().expect("a permutation")).collect();
    let reference = load_model(&ctx.dir)?;
    let expected = ledger::reference_classes(&reference, &cap.requests);
    let warm = &cap.requests[..cap.requests.len().min(MAX_BATCH)];

    let dir = ctx.dir.clone();
    let mut build = || set_up(&dir, warm);
    let (mut engine, warm_classes) = ctx.set_ups(&mut build)?;
    ctx.check(
        warm_classes == expected[..warm.len()],
        "warm-up answers equal FmClassifier::predict",
    );

    let (ref_share, cycles) = if ctx.traced { (0.4, 1) } else { (0.7, CYCLES) };
    let n_ref = (REF_RATE * ctx.seconds * ref_share / cycles as f64) as usize;
    let sat_s = ctx.seconds * (1.0 - ref_share) / cycles as f64;
    let (mut ol, mut sat) = (OpenLoop::default(), Saturation::default());
    for c in 0..cycles {
        let due = poisson_arrivals(n_ref, REF_RATE, sub_seed(ctx.seed, 10 + c as u64));
        let base = 1 + (c * n_ref) as u64;
        ol.absorb(open_loop(&mut engine, &cap.requests, &expected, &due, &mut ctx.tracer, base));
        if !ctx.traced {
            saturate(ctx, &mut engine, &cap.requests, &expected, sat_s, &mut build, &mut sat)?;
        }
    }
    ctx.ops(ol.model, ol.wrong);
    ctx.accounting("reference rate", ol.sent, ol.model, ol.fallback, ol.shed);
    pool_line("reference rate", ol.sent, ol.packed, ol.pool_calls);

    if !ctx.traced {
        ctx.ops(sat.model, sat.wrong);
        ctx.accounting("saturation", sat.sent, sat.model, sat.fallback, sat.shed);
        let d = |k: usize| sat.counters[k];
        pool_line("saturation", sat.sent, (d(0), d(1)), (d(2), d(3)));
        ctx.setup("model load, engine construction, warm-up");
        let what = "per request at 1000 req/s, due to drain return";
        ctx.latency(&ol.latency_us, WINDOW, what);
        ctx.report.put(
            "model_answer_ratio",
            ol.model_ratio(),
            format!("{} model answers / {} sent at 1000 req/s", ol.model, ol.sent),
        );
        println!(
            "  generator lateness at the reference rate: {}",
            Summary::of(&ol.late_us).describe()
        );
        let what = "capacity: model answers/s with a full micro-batch always queued";
        ctx.throughput(&sat.rates, util::RATE_SHARE, what);
        return Ok(());
    }

    // Traced: the serve layer from this run's own open loop; the rest from
    // the shared ledger at this run's batch composition.
    let input =
        Input { trace: &cap.trace, requests: &cap.requests, clf: &reference, batches: &ol.batches };
    let enc_us = ledger::common(ctx, &input);
    ledger::serve_rows(ctx, &ol, enc_us, "this run at 1000 req/s");
    ledger::checkpoint(ctx, &reference)?;
    crate::fanout::replay(ctx, &input, enc_us);
    ledger::train_replay(ctx, &input, &expected)?;
    crate::cluster::replay(ctx, &cap.trace, &reference)?;
    let overhead = ledger::overhead(|tr| closed_pass(&mut engine, &cap.requests, tr));
    ctx.report.put(
        "trace.overhead_ratio",
        overhead,
        "traced / untraced time of one closed-loop pass",
    );
    Ok(())
}

/// Every request once, sixteen at a time, draining after each group; s.
fn closed_pass(engine: &mut ServeEngine, requests: &[ServeRequest], tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    for (b, chunk) in requests.chunks(MAX_BATCH).enumerate() {
        for r in chunk {
            tr.span("ServeEngine::submit", b as u64, || engine.submit(r.clone()));
        }
        tr.span("ServeEngine::drain_queue", b as u64, || engine.drain_queue());
    }
    t.elapsed().as_secs_f64()
}

/// What the capacity phases measured.
#[derive(Debug, Default)]
struct Saturation {
    /// Model answers per second of each window.
    rates: Vec<f64>,
    sent: usize,
    model: usize,
    fallback: usize,
    shed: usize,
    /// Wrong model answers, and admitted requests without exactly one answer.
    wrong: usize,
    /// [`serve_counters`] deltas, set-up blocks left out.
    counters: [u64; 4],
}

/// Closed loop at capacity: a full micro-batch in, drain, repeat, for
/// `secs`. Each response is matched to its request by flow. Between
/// windows, untimed by them, a set-up block runs `build` every
/// [`SETUP_EVERY_S`] of measured time.
fn saturate<T>(
    ctx: &mut Ctx,
    engine: &mut ServeEngine,
    requests: &[ServeRequest],
    expected: &[usize],
    secs: f64,
    build: &mut impl FnMut() -> Result<T, String>,
    out: &mut Saturation,
) -> Result<(), String> {
    let position = positions(requests);
    let (shed0, c0) = (engine.stats().shed, serve_counters());
    // Counts the set-up blocks add, left out of the phase's.
    let mut in_setup = [0u64; 4];
    let (mut since_setup, mut answers) = (0.0, 0usize);
    let (t, mut w0) = (Instant::now(), Instant::now());
    let mut next = 0usize;
    while t.elapsed().as_secs_f64() < secs {
        let shed_before = engine.stats().shed;
        for _ in 0..MAX_BATCH {
            engine.submit(requests[next % requests.len()].clone());
            next += 1;
        }
        out.sent += MAX_BATCH;
        let admitted = MAX_BATCH - (engine.stats().shed - shed_before);
        let responses = engine.drain_queue();
        out.wrong += admitted.abs_diff(responses.len());
        for r in &responses {
            match r.responder {
                Responder::Model => {
                    answers += 1;
                    out.model += 1;
                    let want = position.get(&r.flow).map(|&j| expected[j]);
                    out.wrong += usize::from(want != Some(r.class));
                }
                Responder::Fallback => out.fallback += 1,
            }
        }
        let w = w0.elapsed().as_secs_f64();
        if w >= RATE_WINDOW_S {
            out.rates.push(answers as f64 / w);
            answers = 0;
            since_setup += w;
            if since_setup >= SETUP_EVERY_S {
                let b0 = serve_counters();
                ctx.setup_block(build)?;
                let b1 = serve_counters();
                (0..4).for_each(|k| in_setup[k] += b1[k] - b0[k]);
                since_setup = 0.0;
            }
            w0 = Instant::now();
        }
    }
    let c1 = serve_counters();
    (0..4).for_each(|k| out.counters[k] += c1[k] - c0[k] - in_setup[k]);
    out.shed += engine.stats().shed - shed0;
    Ok(())
}

/// Print a phase's packed forwards and pool calls.
fn pool_line(phase: &str, sent: usize, packed: (u64, u64), pool: (u64, u64)) {
    let per = |n: u64| n as f64 / sent.max(1) as f64;
    println!(
        "  {phase}: {} packed forwards of mean {:.2} requests; per request sent {:.3} \
         pool.par_map and {:.2} pool.par_chunks calls",
        packed.0,
        packed.1 as f64 / packed.0.max(1) as f64,
        per(pool.0),
        per(pool.1)
    );
}
