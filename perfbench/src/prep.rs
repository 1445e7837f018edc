//! Input preparation, run in a child process before anything is timed:
//! simulate the workload's capture, pretrain and fine-tune its model, and
//! write both to files. The measuring process receives only these files,
//! so its peak memory and timings exclude all of this.

use std::path::Path;

use nfm_core::netglue::Task;
use nfm_core::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, PipelineConfig, Pooling};
use nfm_model::context::{contexts_from_trace, ContextStrategy};
use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_traffic::dataset::extract_flows;
use nfm_traffic::netsim::{simulate, SimConfig};

use crate::util::sub_seed;
use crate::Workload;

/// Encoder width of every served and trained model.
pub const D_MODEL: usize = 32;
/// Sequence cap: requests average ~36 tokens and are truncated here.
pub const MAX_LEN: usize = 32;
/// Token cap per flow context when assembling requests.
pub const MAX_TOKENS: usize = 48;
/// Fan-out tasks (the four NetGLUE tasks).
pub const N_TASKS: usize = 4;

/// Sessions in each workload's capture.
fn capture_sessions(w: Workload) -> usize {
    match w {
        Workload::ServeOpen => 1000,
        Workload::Train => 200,
    }
}

/// Frame bytes a capture keeps, its earliest packets first. Seeds differ
/// by ~20% in the traffic 1000 sessions make, and the capture is most of
/// the serving process's memory, so a fixed size keeps `peak_rss_mb` the
/// same input's figure on every seed. Only the serving capture is larger.
const CAPTURE_BYTES: usize = 12 << 20;

/// The earliest packets of `trace` that fit in `budget` frame bytes.
fn cut(trace: &Trace, budget: usize) -> Trace {
    let mut total = 0;
    let kept = trace.packets().iter().take_while(|p| {
        total += p.frame.len();
        total <= budget
    });
    Trace::from_packets(kept.cloned().collect())
}

/// Pipeline shape shared by every model the benchmark serves or trains.
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        d_model: D_MODEL,
        n_heads: 4,
        n_layers: 2,
        d_ff: 64,
        max_len: MAX_LEN,
        min_freq: 1,
        context: ContextStrategy::Flow,
        pretrain: PretrainConfig {
            epochs: 1,
            tasks: train_tasks(),
            seed,
            ..PretrainConfig::default()
        },
    }
}

/// The pretraining objectives: masked tokens plus next-flow prediction.
pub fn train_tasks() -> TaskMix {
    TaskMix { mlm: true, next_flow: true, query_answer: false }
}

fn sim(seed: u64, n_sessions: usize) -> SimConfig {
    SimConfig { seed, n_sessions, n_general_hosts: 6, n_iot_sets: 2, ..SimConfig::default() }
}

/// Write a capture as classic pcap.
fn write_pcap(path: &Path, trace: &Trace) -> Result<(), String> {
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    nfm_net::pcap::write(&mut f, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    std::io::Write::flush(&mut f).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read a capture written by [`write_pcap`].
pub fn read_pcap(path: &Path) -> Result<Trace, String> {
    let mut f = std::io::BufReader::new(
        std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    nfm_net::pcap::read(&mut f).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// One corpus line: an optional label and a token sequence.
pub type CorpusRow = (Option<usize>, Vec<String>);

/// One token sequence per line, tokens joined by the unit separator; a
/// labelled line starts with the label and a tab.
pub fn write_corpus(path: &Path, rows: &[CorpusRow]) -> Result<(), String> {
    let mut text = String::new();
    for (label, tokens) in rows {
        if tokens.iter().any(|t| t.contains(['\n', '\t', '\x1f'])) {
            return Err("token holds a separator character".into());
        }
        if let Some(l) = label {
            text.push_str(&format!("{l}\t"));
        }
        text.push_str(&tokens.join("\x1f"));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read a corpus written by [`write_corpus`].
pub fn read_corpus(path: &Path) -> Result<Vec<CorpusRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (label, rest) = match line.split_once('\t') {
                Some((l, r)) => (Some(l.parse().map_err(|_| format!("bad label {l:?}"))?), r),
                None => (None, line),
            };
            Ok((label, rest.split('\x1f').map(str::to_string).collect()))
        })
        .collect()
}

/// Build every input file of `workload` under `out`.
pub fn prepare(workload: Workload, seed: u64, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let tok = FieldTokenizer::new();
    let cfg = pipeline_config(sub_seed(seed, 1));

    // The model: pretrained on its own small capture, then fine-tuned for
    // app classification.
    let model_lt = simulate(&sim(sub_seed(seed, 2), 80));
    let (fm, _) = FoundationModel::pretrain_on(&[&model_lt.trace], &tok, &cfg)
        .map_err(|e| format!("pretraining: {e}"))?;
    let flows = extract_flows(&model_lt, 1);
    let ft = FineTuneConfig {
        epochs: 1,
        pooling: Pooling::Mean,
        seed: sub_seed(seed, 3),
        ..FineTuneConfig::default()
    };
    let app = Task::AppClassification;
    let examples = app.examples(&flows, &tok, MAX_TOKENS);
    let clf = FmClassifier::fine_tune(&fm, &examples, app.n_classes(), &ft)
        .map_err(|e| format!("fine-tuning: {e}"))?;
    clf.save(&out.join("model.nfmc")).map_err(|e| format!("save model: {e}"))?;

    // The capture the workload serves (or, for `train`, learns from).
    let lt = simulate(&sim(sub_seed(seed, 4), capture_sessions(workload)));
    write_pcap(&out.join("capture.pcap"), &cut(&lt.trace, CAPTURE_BYTES))?;

    if workload == Workload::Train {
        let contexts = contexts_from_trace(&lt.trace, &tok, ContextStrategy::Flow, MAX_LEN - 2);
        let rows: Vec<_> = contexts.into_iter().map(|c| (None, c)).collect();
        write_corpus(&out.join("contexts.txt"), &rows)?;
        let flows = extract_flows(&lt, 1);
        let rows: Vec<_> = app
            .examples(&flows, &tok, MAX_TOKENS)
            .into_iter()
            .map(|e| (Some(e.label), e.tokens))
            .collect();
        write_corpus(&out.join("examples.txt"), &rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_round_trips() {
        let dir = std::env::temp_dir().join(format!("perfbench_corpus_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.txt");
        let rows = vec![
            (Some(3), vec!["PORT_443".to_string(), "IP4".to_string()]),
            (None, vec!["a b".to_string()]),
        ];
        write_corpus(&path, &rows).unwrap();
        assert_eq!(read_corpus(&path).unwrap(), rows);
        assert!(write_corpus(&path, &[(None, vec!["x\ty".into()])]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
