//! The cluster layer's replay: a three-replica [`ClusterSupervisor`] serves
//! the workload's capture in seeded bursts, and replica 0 crashes a third of
//! the way through, so routing, canary probes, hedges and warm restarts
//! from checkpoint files all run. Each burst is one `serve_trace` call (one
//! cluster tick).

use std::collections::{HashMap, HashSet};

use nfm_core::cluster::{ClusterConfig, ClusterStats, ClusterSupervisor};
use nfm_core::pipeline::FmClassifier;
use nfm_core::serve::{assemble_requests, Responder, ServeConfig, ServeRequest};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::{Trace, TracePacket};
use nfm_net::flow::FlowTable;
use nfm_traffic::faults::{ReplicaFault, ReplicaFaultKind};

use crate::fanout::Stream;
use crate::prep::MAX_TOKENS;
use crate::serving::{fallback, serve_config};
use crate::trace::Tracer;
use crate::Ctx;

/// Replicas in the cluster.
const REPLICAS: usize = 3;

/// E16's supervision knobs: a deadline two requests deep, probes every
/// four ticks, hedging on, and a restart backoff short enough that the
/// crashed replica comes back within the pass.
fn cluster_config(clf: &FmClassifier) -> ClusterConfig {
    let canary = vec!["PORT_443".to_string(), "IP4".to_string()];
    ClusterConfig {
        serve: ServeConfig {
            deadline_budget: clf.inference_cost(MAX_TOKENS) * 2,
            ..serve_config()
        },
        probe_interval: 4,
        probe_budget: clf.inference_cost(canary.len()) * 2,
        canary,
        degraded_after: 1,
        down_after: 2,
        hedge: true,
        restart_backoff_base: 4,
        restart_backoff_factor: 2,
        ..ClusterConfig::default()
    }
}

/// Split `trace` into one sub-capture per burst: each request's flow goes
/// whole into its burst's sub-capture, and packets of no request (malformed
/// ones, empty flows) follow the packet before them, so ingest still sees
/// and counts them.
fn split_bursts(trace: &Trace, requests: &[ServeRequest], schedule: &[usize]) -> Vec<Trace> {
    let packets = trace.packets();
    let mut table = FlowTable::new();
    for (i, tp) in packets.iter().enumerate() {
        if let Ok(p) = tp.parse() {
            table.push(i, tp.ts_us, &p);
        }
    }
    let mut burst_of_flow = HashMap::new();
    let mut j = 0usize;
    for (b, &n) in schedule.iter().enumerate() {
        for r in &requests[j..j + n] {
            burst_of_flow.insert(r.flow, b);
        }
        j += n;
    }
    let mut owner = vec![usize::MAX; packets.len()];
    for (f, flow) in table.flows().iter().enumerate() {
        if let Some(&b) = burst_of_flow.get(&f) {
            for fp in &flow.packets {
                owner[fp.index] = b;
            }
        }
    }
    let mut subs: Vec<Vec<TracePacket>> = vec![Vec::new(); schedule.len()];
    let mut cur = 0usize;
    for (i, tp) in packets.iter().enumerate() {
        if owner[i] != usize::MAX {
            cur = owner[i];
        }
        subs[cur].push(tp.clone());
    }
    subs.into_iter().map(Trace::from_packets).collect()
}

/// Split `trace` into per-burst sub-captures (checking that each assembles
/// into exactly its burst's requests) and give each burst's reference
/// classes, keyed by the flow id the burst's own assembly assigns.
fn bursts(
    ctx: &mut Ctx,
    trace: &Trace,
    requests: &[ServeRequest],
    schedule: &[usize],
    reference: &FmClassifier,
) -> (Vec<Trace>, Vec<HashMap<usize, usize>>) {
    let subs = split_bursts(trace, requests, schedule);
    let tok = FieldTokenizer::new();
    let mut expected = Vec::with_capacity(subs.len());
    let mut j = 0usize;
    let mut split_ok = true;
    for (sub, &n) in subs.iter().zip(schedule) {
        let (reqs, _) = assemble_requests(sub, &tok, MAX_TOKENS);
        let want = &requests[j..j + n];
        split_ok &= reqs.len() == n && reqs.iter().zip(want).all(|(a, b)| a.tokens == b.tokens);
        expected.push(reqs.iter().map(|r| (r.flow, reference.predict(&r.tokens))).collect());
        j += n;
    }
    ctx.check(split_ok, "every burst's sub-capture assembles into exactly its requests");
    (subs, expected)
}

/// One crash pass of a fresh cluster over `trace`, for the cluster rows.
pub fn replay(ctx: &mut Ctx, trace: &Trace, clf: &FmClassifier) -> Result<(), String> {
    let (requests, _) = assemble_requests(trace, &FieldTokenizer::new(), MAX_TOKENS);
    let schedule = Stream::new(requests.len(), crate::util::sub_seed(ctx.seed, 42)).schedule;
    let (subs, expected) = bursts(ctx, trace, &requests, &schedule, clf);
    let replicas = (0..REPLICAS).map(|_| (clf.clone(), fallback(clf.n_classes))).collect();
    let dir = ctx.dir.join("cluster_replay");
    let mut cluster =
        ClusterSupervisor::new(replicas, fallback(clf.n_classes), &dir, cluster_config(clf))
            .map_err(|e| e.to_string())?;
    let s0 = cluster.stats();
    let p = pass(&mut cluster, &subs, &expected, &mut ctx.tracer);
    ctx.ops(p.arrived, p.wrong + p.unanswered);
    ctx.accounting("cluster replay", p.arrived, p.model, p.fallback, p.shed);
    ctx.check(
        p.model as f64 >= 0.99 * p.arrived as f64,
        "replayed cluster keeps model availability >= 0.99",
    );
    cluster_rows(ctx, &s0, &cluster.stats(), "replay: one crash pass over this workload's capture");
    Ok(())
}

/// What one pass counted.
#[derive(Debug, Default)]
struct Pass {
    arrived: usize,
    model: usize,
    fallback: usize,
    shed: usize,
    wrong: usize,
    /// Arrivals without exactly one answer.
    unanswered: usize,
}

/// Serve every burst once, crashing replica 0 a third of the way through.
fn pass(
    cluster: &mut ClusterSupervisor,
    subs: &[Trace],
    expected: &[HashMap<usize, usize>],
    tr: &mut Tracer,
) -> Pass {
    let tok = FieldTokenizer::new();
    let faults = [ReplicaFault {
        replica: 0,
        at_burst: cluster.tick() + subs.len() / 3,
        kind: ReplicaFaultKind::Crash,
    }];
    let mut out = Pass::default();
    let phase = tr.enter("phase.cluster_pass", 0);
    for (b, sub) in subs.iter().enumerate() {
        let s0 = cluster.stats();
        let responses = tr.span("ClusterSupervisor::serve_trace", 1 + b as u64, || {
            cluster.serve_trace(sub, &tok, &[usize::MAX], &faults)
        });
        let s1 = cluster.stats();
        let arrived = s1.arrived - s0.arrived;
        let shed = s1.shed - s0.shed;
        let flows: HashSet<usize> = responses.iter().map(|r| r.flow).collect();
        if flows.len() != responses.len() || responses.len() + shed != arrived {
            out.unanswered += arrived.abs_diff(flows.len() + shed).max(1);
        }
        out.arrived += arrived;
        out.shed += shed;
        for r in &responses {
            match r.responder {
                Responder::Model => {
                    out.model += 1;
                    if expected[b].get(&r.flow) != Some(&r.class) {
                        out.wrong += 1;
                    }
                }
                Responder::Fallback => out.fallback += 1,
            }
        }
    }
    tr.exit(phase);
    out
}

/// The cluster layer's counts between two snapshots.
fn cluster_rows(ctx: &mut Ctx, s0: &ClusterStats, s1: &ClusterStats, source: &str) {
    let arrived = (s1.arrived - s0.arrived).max(1) as f64;
    let rep = &mut ctx.report;
    let probes = (s1.probes - s0.probes) as f64;
    rep.put(
        "cluster.probes_per_arrival",
        probes / arrived,
        format!("{source}; {probes} probes / {arrived} arrivals"),
    );
    rep.put(
        "cluster.hedges",
        (s1.hedges - s0.hedges) as f64,
        format!("{source}; ClusterStats::hedges"),
    );
    rep.put(
        "cluster.failovers",
        (s1.failovers - s0.failovers) as f64,
        format!("{source}; ClusterStats::failovers"),
    );
    rep.put(
        "cluster.restarts",
        (s1.restarts_ok - s0.restarts_ok) as f64,
        format!("{source}; ClusterStats::restarts_ok"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_traffic::faults::{inject, FaultConfig};
    use nfm_traffic::netsim::{simulate, SimConfig};

    #[test]
    fn every_burst_assembles_into_exactly_its_requests() {
        let lt = simulate(&SimConfig { n_sessions: 30, ..SimConfig::default() });
        let faults = FaultConfig { corrupt_chance: 0.3, snaplen: 200, ..FaultConfig::default() };
        let trace = inject(&lt.trace, &faults).0;
        let tok = FieldTokenizer::new();
        let (requests, ingest) = assemble_requests(&trace, &tok, MAX_TOKENS);
        let schedule = Stream::new(requests.len(), 5).schedule;
        let subs = split_bursts(&trace, &requests, &schedule);
        assert_eq!(subs.iter().map(Trace::len).sum::<usize>(), trace.len());
        let mut j = 0;
        let mut malformed = 0;
        for (sub, &n) in subs.iter().zip(&schedule) {
            let (reqs, st) = assemble_requests(sub, &tok, MAX_TOKENS);
            let tokens: Vec<_> = reqs.iter().map(|r| &r.tokens).collect();
            let want: Vec<_> = requests[j..j + n].iter().map(|r| &r.tokens).collect();
            assert_eq!(tokens, want);
            malformed += st.malformed_packets;
            j += n;
        }
        assert_eq!(malformed, ingest.malformed_packets);
    }
}
