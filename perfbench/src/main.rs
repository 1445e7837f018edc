//! The repository benchmark. One command runs one workload, checks its
//! outputs, and prints every metric by name with its unit; the last line
//! of standard output is a JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` says why each was chosen):
//!
//! | workload     | drives                                            | arrivals |
//! |--------------|---------------------------------------------------|----------|
//! | `serve-open` | one `ServeEngine`, pre-assembled requests         | ten cycles: open loop, Poisson 1000/s; then a full micro-batch always queued |
//! | `train`      | one pretraining + one fine-tuning epoch per round | back-to-back rounds |
//!
//! The fan-out server and the replica cluster have no workload of their
//! own; the traced run replays them on each workload's inputs
//! (`fanout::replay`, `cluster::replay`).
//!
//! With `--trace 0` it reports the end-to-end metrics: `setup_s` (model
//! or corpus load, construction and warm-up), `peak_rss_mb` (VmHWM of the
//! measuring process), `throughput_per_s` (model answers per second at
//! capacity on `serve-open`, sequences per second on `train`) and
//! `model_answer_ratio` (model answers over requests sent; shed and
//! fallback answers count against it). Its table also prints `p50_us` and
//! `p99_us`, the latency of one operation (a request or a training round),
//! which `report::END_TO_END` says why it leaves out of the result. Timings
//! are taken over many short windows and reported over the fastest twentieth
//! of them (`util::fast_windows` says why; serve-open's capacity windows use
//! the fastest fifth, `util::RATE_SHARE`). With `--trace 1` it records
//! spans around every call into the library, writes them to
//! `.bench_work/traces/`, and reports the per-layer ledger (`ledger.rs`).
//!
//! Inputs are prepared from `--seed` by a child process (`--prep`) before
//! anything is timed: it simulates the capture and pretrains and fine-tunes
//! the model, writing both to a scratch directory the measuring process
//! reads and deletes.

mod cluster;
mod fanout;
mod ledger;
mod prep;
mod report;
mod serve_open;
mod serving;
#[cfg(test)]
mod spec;
mod trace;
mod train;
mod util;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use nfm_tensor::pool;

use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;
use util::Summary;

/// Set-up blocks an untraced run times before its measured region; the
/// workloads time more between their measurement windows.
const SETUP_BLOCKS: usize = 20;

/// Minimum wall time of one set-up block, s: a block repeats the set-up
/// until this much time has passed, so a millisecond-scale set-up is timed
/// over many repetitions.
const SETUP_BLOCK_S: f64 = 0.02;

/// Where inputs and traces live, relative to the checkout root.
const WORK_DIR: &str = ".bench_work";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop single-engine serving.
    ServeOpen,
    /// Pretraining and fine-tuning epochs.
    Train,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 2] = [Workload::ServeOpen, Workload::Train];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve-open",
            Workload::Train => "train",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// State of one run, shared by the workload and the ledger.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced (end-to-end).
    pub traced: bool,
    /// Prepared inputs; scratch files go here too.
    pub dir: PathBuf,
    /// Pool threads in use.
    pub nproc: usize,
    /// Metrics so far.
    pub report: Report,
    /// Span recorder (off in untraced runs).
    pub tracer: Tracer,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Mean time of one set-up in each set-up block so far, s.
    pub setup_blocks: Vec<f64>,
}

impl Ctx {
    /// Time the workload's set-up in [`SETUP_BLOCKS`] blocks (a traced run
    /// sets up once) and return the last set-up's result.
    pub fn set_ups<T>(
        &mut self,
        set_up: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = self.setup_block(set_up)?;
        for _ in 1..if self.traced { 1 } else { SETUP_BLOCKS } {
            last = self.setup_block(set_up)?;
        }
        Ok(last)
    }

    /// One set-up block: repeat `set_up` until [`SETUP_BLOCK_S`] has passed
    /// (once in a traced run) and record the mean time of one set-up. The
    /// workloads call this between measurement windows too, so `setup_s`
    /// samples the whole run rather than the second before it.
    pub fn setup_block<T>(
        &mut self,
        set_up: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let mut n = 0u32;
        let mut last = None;
        while n == 0 || (!self.traced && t.elapsed().as_secs_f64() < SETUP_BLOCK_S) {
            last = Some(set_up()?);
            n += 1;
        }
        self.setup_blocks.push(t.elapsed().as_secs_f64() / f64::from(n));
        Ok(last.expect("at least one set-up"))
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        println!("  check {}: {what}", if ok { "ok  " } else { "FAIL" });
    }

    /// Record `n` operations of which `failed` failed a check.
    pub fn ops(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }

    /// Print a phase's request accounting; a traced run also reports the
    /// first (main) phase's counts.
    pub fn accounting(
        &mut self,
        phase: &str,
        sent: usize,
        model: usize,
        fallback: usize,
        shed: usize,
    ) {
        println!("  {phase}: sent {sent}, model {model}, fallback {fallback}, shed {shed}");
        if self.traced && self.report.get("req.sent").is_none() {
            for (name, v) in [
                ("req.sent", sent),
                ("req.answered_model", model),
                ("req.answered_fallback", fallback),
                ("req.shed", shed),
            ] {
                self.report.put(name, v as f64, phase);
            }
        }
    }

    /// Report `setup_s`: the mean of the fastest twentieth of the set-up
    /// blocks.
    pub fn setup(&mut self, what: &str) {
        let blocks = &self.setup_blocks;
        let detail = format!(
            "{what}; mean of the fastest twentieth of {} blocks of >= {SETUP_BLOCK_S} s spread \
             through the run, median {:.6}",
            blocks.len(),
            util::median(blocks)
        );
        self.report.put("setup_s", util::fast_mean(blocks, util::FAST_SHARE, true), detail);
    }

    /// Report operation latency, in time order, over windows of `w`
    /// samples: `p50_us` is the mean of the fastest twentieth of the window
    /// medians, `p99_us` the p99 of the samples of the fastest tenth of the
    /// windows (ranked by median).
    pub fn latency(&mut self, samples: &[f64], w: usize, what: &str) {
        let windows: Vec<&[f64]> = samples.chunks(w).collect();
        let medians: Vec<f64> = windows.iter().map(|c| util::median(c)).collect();
        let pooled: Vec<f64> = util::fast_windows(&medians, util::TAIL_SHARE)
            .iter()
            .flat_map(|&i| windows[i].iter().copied())
            .collect();
        let tail = Summary::of(&pooled);
        let support = match tail.tail_q {
            Some(q) if q >= 0.99 => "p99 has >= 10 samples beyond it".to_string(),
            Some(q) => format!("samples support only p{}", q * 100.0),
            None => "too few samples for a tail percentile".to_string(),
        };
        let detail = format!(
            "{what}; mean of the fastest twentieth of {} window medians (windows of {w}); \
             whole run {}",
            windows.len(),
            Summary::of(samples).describe()
        );
        self.report.put("p50_us", util::fast_mean(&medians, util::FAST_SHARE, true), detail);
        let detail =
            format!("p99 of the {} samples of the fastest tenth of windows ({support})", tail.n);
        self.report.put("p99_us", tail.p99, detail);
    }

    /// Report `throughput_per_s`: the mean of the fastest `share` of
    /// per-window rates.
    pub fn throughput(&mut self, per_window: &[f64], share: f64, what: &str) {
        let detail = format!(
            "{what}; mean of the fastest {share} of {} windows, median {:.1}",
            per_window.len(),
            util::median(per_window)
        );
        self.report.put("throughput_per_s", util::fast_mean(per_window, share, false), detail);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    prep_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut prep_out) =
        (None, 1u64, 10.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--prep" => prep_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, prep_out })
}

/// Removes the run's input directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<i32, String> {
    if let Some(out) = &args.prep_out {
        prep::prepare(args.workload, args.seed, out)?;
        return Ok(0);
    }
    let nproc = util::nproc();
    pool::set_threads(nproc);
    let w = args.workload;
    let dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let _scratch = Scratch(dir.clone());

    let t_prep = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string(), "--prep"])
        .arg(&dir)
        .status()
        .map_err(|e| format!("spawning input preparation: {e}"))?;
    if !status.success() {
        return Err(format!("input preparation failed: {status}"));
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} | host.nproc {nproc} pool threads {} | commit {} \
         | inputs prepared in {:.1} s (untimed)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool::effective_threads(),
        util::git_commit(),
        t_prep.elapsed().as_secs_f64()
    );

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        dir,
        nproc,
        report: Report::default(),
        tracer: Tracer::new(args.trace),
        attempted: 0,
        failed: 0,
        setup_blocks: Vec::new(),
    };
    match w {
        Workload::ServeOpen => serve_open::run(&mut ctx)?,
        Workload::Train => train::run(&mut ctx)?,
    }
    if args.trace {
        let traces = PathBuf::from(WORK_DIR).join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
        let path = traces.join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        ctx.tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}; self time by span:",
            ctx.tracer.spans().len(),
            path.display()
        );
        for (name, (count, total, own)) in ctx.tracer.totals() {
            println!(
                "    {name:<36} n {count:>7}  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    } else {
        ctx.report.put("peak_rss_mb", util::peak_rss_mb(), "VmHWM of the measuring process");
    }
    print!("{}", ctx.report.table());
    let correct = ctx.failed == 0;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", ctx.report.json(names, correct, ctx.attempted.max(1), ctx.failed)?);
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
