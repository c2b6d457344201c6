//! The `--trace 1` run: a serial, single-thread replay that calls each
//! layer's public entry point in turn, a span around every call.
//!
//! Nothing here measures end to end — those numbers come from the untraced
//! run. Times are per-request medians of *self* time; counts are totals
//! over the replay divided by its fixed number of requests, so the same
//! seed gives the same counts on every run.

use crate::corpus::user_bytes;
use crate::json::Value;
use crate::load::{percentile, Phase};
use crate::spec::PER_LAYER;
use crate::staged::{self, LayerCounts};
use crate::stream;
use crate::trace::{median_u64, Tracer};
use crate::workloads::{agreement, nproc, Agreement, Churn, Live, Opts, Report, TempDir, BURST};
use ir::{topk_beliefs, InvertedIndex};
use mirror_core::query::RankedResult;
use mirror_core::serve::{Channel, MirrorServer, RetrievalRequest};
use mirror_core::shard::MirrorCluster;
use mirror_core::{LiveMirror, MirrorDbms, Retriever, INTERNAL};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seeded arrivals for the open-loop probe of a `--trace 1` run: long
/// enough for the 1 000 samples a 99th percentile needs, within the run's
/// `--seconds`.
pub fn probe_arrivals(o: &Opts, rate: f64) -> Vec<f64> {
    stream::arrivals(o.seed, rate, (1_100.0 / rate).max(o.seconds * 0.3).min(o.seconds))
}

pub struct Layers {
    workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    tracer: Tracer,
    /// Replayed requests whose staged (or live) answer differed.
    wrong: u64,
    /// Probe requests shed at admission: failed, but not wrong.
    shed: u64,
    replayed: u64,
    info: Vec<(&'static str, Value)>,
}

fn median_us(ns: &mut [u64]) -> f64 {
    median_u64(ns) / 1e3
}

/// Whether two optional answers are both there and agree (float noise
/// allowed, see [`Agreement::Inexact`]).
fn agree(a: &Option<Vec<RankedResult>>, b: &Option<Vec<RankedResult>>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if agreement(a, b) != Agreement::Different)
}

fn is_plain_text(r: &RetrievalRequest) -> bool {
    r.channel == Channel::Text && r.filter.is_none()
}

impl Layers {
    pub fn new(workload: &'static str) -> Layers {
        Layers {
            workload,
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            tracer: Tracer::new(),
            wrong: 0,
            shed: 0,
            replayed: 0,
            info: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        *slot = value;
    }

    /// `core.serve.*` under open-loop load: what a phase at the workload's
    /// pinned rate saw — latency from the due time, what admission shed,
    /// and how late the generator ran.
    pub fn open_probe(&mut self, phase: &Phase) {
        let lat = phase.latencies();
        let mut late = phase.late_ms.clone();
        late.sort_by(f64::total_cmp);
        self.set("core.serve.open_p50_ms", percentile(&lat, 0.50));
        self.set("core.serve.open_p99_ms", percentile(&lat, 0.99));
        self.set("core.serve.shed", phase.shed as f64);
        self.set("core.serve.fail_frac", phase.failed() as f64 / phase.offered.max(1) as f64);
        self.set("core.serve.gen_late_p99_ms", percentile(&late, 0.99));
        self.wrong += phase.bad;
        self.shed += phase.shed;
        self.replayed += phase.offered;
        self.info.push(("open_probe_s", phase.elapsed_s.into()));
        self.info.push(("open_probe_samples", phase.offered.into()));
    }

    /// The single-node layers: for each of the first `n` requests, the
    /// facade's `retrieve` whole, then the same request staged layer by
    /// layer (order alternating, so neither always runs on warm caches),
    /// then the layers below the kernel operator on their own — the
    /// block-max top-k and the block decoder.
    pub fn node(&mut self, db: &Arc<MirrorDbms>, reqs: &[RetrievalRequest], n: usize) {
        let reqs = &reqs[..n.min(reqs.len())];
        let ann = db.store().get(&format!("{INTERNAL}__annotation")).expect("annotation index");
        let img = db.store().get(&format!("{INTERNAL}__image")).expect("image index");
        let belief = db.store().params();
        let mut counts = LayerCounts::default();
        let (mut topk_n, mut scored, mut pruned, mut skipped, mut blocks) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (i, req) in reqs.iter().enumerate() {
            let id = i as u32;
            let direct = |t: &mut Tracer| t.span("direct.retrieve", id, |_| db.retrieve(req).ok());
            let (whole, staged) = if i % 2 == 0 {
                let whole = direct(&mut self.tracer);
                (whole, staged::retrieve(db, req, id, &mut self.tracer, &mut counts).ok())
            } else {
                let staged = staged::retrieve(db, req, id, &mut self.tracer, &mut counts).ok();
                (direct(&mut self.tracer), staged)
            };
            self.replayed += 1;
            self.wrong += u64::from(!agree(&whole, &staged));
            if is_plain_text(req) {
                let query: Vec<(&str, f64)> =
                    req.terms.iter().map(|(t, w)| (t.as_str(), *w)).collect();
                // degree 1: the counts must not depend on the host's cores
                let out = self
                    .tracer
                    .span("ir.topk", id, |_| topk_beliefs(&ann, belief, &query, None, req.k, 1));
                topk_n += 1;
                scored += out.scored;
                pruned += out.pruned;
                skipped += out.blocks_skipped;
                blocks += query
                    .iter()
                    .map(|(t, _)| ann.postings_list(t).map_or(0, |l| l.blocks().len()) as u64)
                    .sum::<u64>();
            }
        }
        let per_req = |x: u64| x as f64 / counts.requests.max(1) as f64;
        let mut self_ns = self.tracer.self_ns();
        let mut self_us = |name: &str| self_ns.get_mut(name).map_or(0.0, |ns| median_us(ns));
        self.set("core.retrieve.self_us", self_us("core.retrieve"));
        self.set("thesaurus.expand_us", self_us("thesaurus.expand"));
        self.set(
            "thesaurus.expanded_terms",
            counts.expanded_terms as f64 / counts.expansions.max(1) as f64,
        );
        self.set("moa.flatten_us", self_us("moa.flatten"));
        self.set("moa.plan_nodes", per_req(counts.plan_nodes));
        self.set("moa.opt_us", self_us("moa.opt"));
        self.set("moa.opt.passes_fired", per_req(counts.passes_fired));
        self.set("monet.exec_us", self_us("monet.exec"));
        self.set("monet.ops_evaluated", per_req(counts.ops_evaluated));
        self.set("monet.rows_produced", per_req(counts.rows_produced));
        self.set("monet.memo_hits", per_req(counts.memo_hits));
        self.set("monet.fragmented_ops", per_req(counts.fragmented_ops));
        self.set("ir.topk_us", self_us("ir.topk"));
        let per_topk = |x: u64| x as f64 / topk_n.max(1) as f64;
        self.set("ir.topk.scored", per_topk(scored));
        self.set("ir.topk.pruned", per_topk(pruned));
        self.set("ir.topk.blocks_skipped", per_topk(skipped));
        // of the compressed blocks of the query's term lists, the share
        // never decoded (`TopKOutcome::skipped_postings` also counts the
        // step past every scored posting, so it is no base for a ratio)
        self.set("ir.topk.skip_ratio", skipped as f64 / blocks.max(1) as f64);
        self.set(
            "ir.postings.bytes_per_doc",
            (ann.postings_heap_bytes() + img.postings_heap_bytes()) as f64
                / db.n_docs().max(1) as f64,
        );
        let decode_ns = self.decode_probe(&ann, reqs);
        self.set("ir.postings.decode_ns_per_posting", decode_ns);

        let direct_ns: u64 = self.tracer.total_ns("direct.retrieve").iter().sum();
        let staged_ns: u64 = self.tracer.total_ns("core.retrieve").iter().sum();
        self.set(
            "trace.overhead_frac",
            (staged_ns as f64 - direct_ns as f64) / direct_ns.max(1) as f64,
        );

        // one worker, one blocking client: queue + hand-off, nothing else
        let server = MirrorServer::start(Arc::clone(db), 1);
        let probed = &reqs[..reqs.len().min(500)];
        for (i, req) in probed.iter().enumerate() {
            let got = self.tracer.span("core.serve.query", i as u32, |_| server.query(req).ok());
            self.wrong += u64::from(got.is_none());
        }
        let mut served = self.tracer.total_ns("core.serve.query");
        let mut direct: Vec<u64> =
            self.tracer.total_ns("direct.retrieve").into_iter().take(probed.len()).collect();
        self.set("core.serve.overhead_us", median_us(&mut served) - median_us(&mut direct));
    }

    /// Decode every block of the posting lists the requests' text terms
    /// name; ns per posting.
    fn decode_probe(&mut self, index: &InvertedIndex, reqs: &[RetrievalRequest]) -> f64 {
        let (mut docs, mut tfs) = (Vec::new(), Vec::new());
        let mut postings = 0u64;
        for (i, req) in reqs.iter().enumerate().take(500) {
            self.tracer.span("ir.postings.decode", i as u32, |_| {
                for list in req.terms.iter().filter_map(|(t, _)| index.postings_list(t)) {
                    for b in 0..list.blocks().len() {
                        list.decode_block_into(b, &mut docs, &mut tfs);
                        postings += docs.len() as u64;
                    }
                }
            });
        }
        let ns: u64 = self.tracer.total_ns("ir.postings.decode").iter().sum();
        ns as f64 / postings.max(1) as f64
    }

    /// `core.durable.*` and `monet.storage.space_amp`: save the instance to
    /// disk and cold-open it, three times each.
    pub fn durable(&mut self, db: &MirrorDbms, o: &Opts) {
        let mut bytes = 0;
        for i in 0..3 {
            let dir = TempDir::new(&o.out_dir, "durable");
            let saved = self.tracer.span("core.durable.save", i, |_| db.save(&dir.0).is_ok());
            let opened =
                self.tracer.span("core.durable.open", i, |_| MirrorDbms::open(&dir.0).is_ok());
            self.wrong += u64::from(!saved) + u64::from(!opened);
            bytes = dir.bytes();
        }
        let mut save = self.tracer.total_ns("core.durable.save");
        let mut open = self.tracer.total_ns("core.durable.open");
        self.set("core.durable.save_ms", median_us(&mut save) / 1e3);
        self.set("core.durable.open_ms", median_us(&mut open) / 1e3);
        self.set(
            "monet.storage.space_amp",
            bytes as f64 / user_bytes(db.library_rows()).max(1) as f64,
        );
    }

    /// `core.shard.*`: the cluster against the single node it must equal.
    pub fn shard(
        &mut self,
        cluster: &MirrorCluster,
        single: &Arc<MirrorDbms>,
        reqs: &[RetrievalRequest],
        n: usize,
    ) {
        let reqs = &reqs[..n.min(reqs.len())];
        for (i, req) in reqs.iter().enumerate() {
            let id = i as u32;
            let a = self.tracer.span("core.shard.retrieve", id, |_| cluster.retrieve(req).ok());
            let b = self.tracer.span("core.shard.single", id, |_| single.retrieve(req).ok());
            self.replayed += 1;
            self.wrong += u64::from(!agree(&a, &b));
        }
        let mut scattered = self.tracer.total_ns("core.shard.retrieve");
        let mut alone = self.tracer.total_ns("core.shard.single");
        self.set(
            "core.shard.vs_single_ratio",
            median_us(&mut scattered) / median_us(&mut alone).max(1e-9),
        );
        let docs = cluster.stats().docs_per_shard;
        let mean = docs.iter().sum::<usize>() as f64 / docs.len().max(1) as f64;
        self.set(
            "core.shard.imbalance",
            docs.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        );
    }

    /// `core.live.*` read side: pin and read over the un-merged delta,
    /// against the merged re-ingest of the same rows.
    pub fn live_reads(
        &mut self,
        live: &LiveMirror,
        merged: &Arc<MirrorDbms>,
        reqs: &[RetrievalRequest],
        n: usize,
    ) {
        let (delta_rows, _, tombstones) = live.delta_pressure();
        self.set("core.live.delta_rows", delta_rows as f64);
        self.set("core.live.tombstones", tombstones as f64);
        let reqs = &reqs[..n.min(reqs.len())];
        for (i, req) in reqs.iter().enumerate() {
            let id = i as u32;
            let reader = self.tracer.span("core.live.pin", id, |_| live.pin());
            let a = self.tracer.span("core.live.read", id, |_| reader.retrieve(req).ok());
            let b = self.tracer.span("core.live.merged", id, |_| merged.retrieve(req).ok());
            self.replayed += 1;
            self.wrong += u64::from(!agree(&a, &b));
        }
        let mut pins = self.tracer.total_ns("core.live.pin");
        self.set("core.live.pin_ns", median_u64(&mut pins));
        let mut reads = self.tracer.total_ns("core.live.read");
        // the ratio of totals, not of medians: the delta path is cheap on
        // selective terms and dear on head terms, and `qps` pays the mean
        let live_ns: u64 = reads.iter().sum();
        let merged_ns: u64 = self.tracer.total_ns("core.live.merged").iter().sum();
        self.set("core.live.read_us", median_us(&mut reads));
        self.set("core.live.delta_penalty", live_ns as f64 / merged_ns.max(1) as f64);
    }

    /// `core.live.*` write side on a durable mirror: batched inserts,
    /// single deletes, a burst of consecutive deletes, then one merge; WAL
    /// growth per op from the store directory's size.
    pub fn writes(&mut self, live: &mut Live, o: &Opts) {
        let db = Arc::clone(live.server.db());
        let bytes_before = live.fs.total_bytes();
        let mut ops = 0u64;
        for i in 0..20 {
            let rows = live.shared.rows(o.seed, live.next_row, 64);
            live.next_row += 64;
            let ok = self.tracer.span("core.live.insert", i, |_| db.insert_rows(rows).is_ok());
            self.wrong += u64::from(!ok);
            ops += 1;
        }
        let mut delete = |this: &mut Layers, span: &'static str, id: u32| {
            let url = live.base_urls.pop_front().expect("base outlasts the probes");
            let ok = this.tracer.span(span, id, |_| matches!(db.delete(&url), Ok(Some(_))));
            this.wrong += u64::from(!ok);
        };
        for i in 0..200 {
            delete(self, "core.live.delete", i);
            ops += 1;
        }
        self.set(
            "monet.storage.wal_bytes_per_op",
            live.fs.total_bytes().saturating_sub(bytes_before) as f64 / ops as f64,
        );
        let burst = if o.quick { 200 } else { 2_000 };
        let t = Instant::now();
        for i in 0..burst {
            delete(self, "core.live.delete_burst", i);
        }
        self.set("core.live.delete_burst_ms", t.elapsed().as_secs_f64() * 1e3);
        let rows = db.pin().n_live();
        let merged = self.tracer.span("core.live.merge", 0, |_| db.merge().is_ok());
        self.wrong += u64::from(!merged);

        let mut inserts = self.tracer.total_ns("core.live.insert");
        self.set("core.live.insert_us_per_row", median_us(&mut inserts) / 64.0);
        let mut deletes = self.tracer.total_ns("core.live.delete");
        self.set("core.live.delete_us", median_us(&mut deletes));
        let mut merges = self.tracer.total_ns("core.live.merge");
        let merge_ms = median_us(&mut merges) / 1e3;
        self.set("core.live.merge_ms", merge_ms);
        self.set("core.live.merge_rows_per_s", rows as f64 / (merge_ms / 1e3).max(1e-9));
    }

    /// `write_burst`'s own cycle, op by op: `cycles` cycles, a span per op.
    pub fn churn(&mut self, churn: &mut Churn, cycles: u32) {
        for cycle in 0..cycles {
            for at in 0..BURST + 2 {
                let name = match at {
                    0 => "churn.insert",
                    a if a <= BURST => "churn.delete",
                    _ => "churn.read",
                };
                let outcome = self.tracer.span(name, cycle, |_| churn.step());
                self.replayed += 1;
                self.wrong += u64::from(outcome != crate::load::Outcome::Ok);
            }
        }
        let mut reads = self.tracer.total_ns("churn.read");
        self.set("core.live.read_us", median_us(&mut reads));
        let (delta_rows, _, tombstones) = churn.live.server.db().delta_pressure();
        self.set("core.live.delta_rows", delta_rows as f64);
        self.set("core.live.tombstones", tombstones as f64);
        self.info.push(("churn_cycles", u64::from(cycles).into()));
        self.info.push(("churn_merges", churn.merges.into()));
    }

    /// Close the replay: count the repo's non-test lines, write the trace
    /// file, and hand back every per-layer metric.
    pub fn finish(mut self, o: &Opts) -> Result<Report, String> {
        self.set("repo.nontest_loc", nontest_loc(&o.repo_dir) as f64);
        let path = o.out_dir.join(format!("trace_{}.json", self.workload));
        let provenance = Value::obj([
            ("workload", Value::str(self.workload)),
            ("seed", o.seed.into()),
            ("nproc", (nproc() as u64).into()),
        ]);
        std::fs::write(&path, self.tracer.to_json(provenance).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.info.push(("trace_file", Value::str(path.display().to_string())));
        self.info.push(("spans", (self.tracer.spans.len() as u64).into()));
        self.info.push(("replayed", self.replayed.into()));
        Ok(Report {
            workload: self.workload,
            metrics: PER_LAYER.iter().map(|&(name, _)| (name, self.values[name])).collect(),
            attempted: self.replayed.max(1),
            failed: self.wrong + self.shed,
            wrong: self.wrong,
            info: self.info,
        })
    }
}

/// Lines of the repo's own sources (`crates/*/src`, `src`) before each
/// file's first `#[cfg(test)]` — ROADMAP's number to push down.
fn nontest_loc(repo: &Path) -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let src = std::fs::read_to_string(&path).unwrap_or_default();
                *total +=
                    src.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")).count()
                        as u64;
            }
        }
    }
    let mut total = 0;
    walk(&repo.join("src"), &mut total);
    if let Ok(crates) = std::fs::read_dir(repo.join("crates")) {
        for c in crates.flatten() {
            walk(&c.path().join("src"), &mut total);
        }
    }
    total
}
