//! A block-scale library shared by the top-k and shard property suites:
//! thousands of synthetic rows, so the visual channel's posting lists span
//! tens of 128-posting blocks and the fused operator seeds its threshold
//! and leaps blocks. Also the exhaustive top-k oracles those suites hold
//! the pruning evaluator to, for one channel and for N.

use mirror::core::serve::RetrievalRequest;
use mirror::core::{LibraryRow, MirrorDbms, Retriever};
use mirror::ir::index::Posting;
use mirror::ir::{BeliefParams, InvertedIndex, PostingList, Tombstones, TopKChannel};
use mirror::monet::fxhash::FxHashSet;
use mirror::monet::Oid;

/// Rows in the block-scale library.
pub const BLOCK_SCALE_DOCS: usize = 4_500;

const WORDS: &[&str] =
    &["sunset", "beach", "forest", "mist", "wave", "glow", "stone", "river", "meadow", "dune"];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The library: skewed annotation words (a fifth of the documents
/// unannotated), and visual terms `v0`…`v11` where `v0` sits in ~90 % of
/// the documents and `v1` in ~60 % — lists of 32 and 22 blocks — and the
/// rest in ~25 % each (9–10 blocks). URLs carry one of six theme directories.
pub fn block_scale_rows() -> Vec<LibraryRow> {
    (0..BLOCK_SCALE_DOCS as u64)
        .map(|i| {
            let h = splitmix(i);
            let annotation = (!h.is_multiple_of(5)).then(|| {
                let n = 2 + (h >> 8) % 5;
                let words: Vec<&str> = (0..n)
                    .map(|j| {
                        let r = splitmix(h ^ j) % 100;
                        WORDS[((r * r) / 1000) as usize % WORDS.len()]
                    })
                    .collect();
                words.join(" ")
            });
            let vterms: Vec<String> = (0..12u64)
                .filter(|&v| {
                    let p = match v {
                        0 => 90,
                        1 => 60,
                        _ => 25,
                    };
                    splitmix(h ^ (v << 40)) % 100 < p
                })
                .map(|v| format!("v{v}"))
                .collect();
            let theme = (h >> 16) as usize % 6;
            LibraryRow {
                url: format!("http://lib.example/theme{theme}/{i}.png"),
                annotation,
                vterms: vterms.join(" "),
                theme,
            }
        })
        .collect()
}

/// `dual_terms` requests over the block-scale library for every mix in
/// {0, 0.3, 0.5, 1} and k in {1, 10, all}: text and visual terms present,
/// text terms absent from the corpus, an empty visual side, and a URL
/// filter.
pub fn block_scale_requests() -> Vec<RetrievalRequest> {
    let text = vec![("sunset".to_string(), 1.0), ("wave".to_string(), 0.5)];
    let absent = vec![("zeppelin".to_string(), 1.0), ("quartz".to_string(), 1.0)];
    let visual = vec![("v0".to_string(), 1.0), ("v1".to_string(), 0.7), ("v5".to_string(), 0.4)];
    let mut reqs = Vec::new();
    for mix in [0.0, 0.3, 0.5, 1.0] {
        for k in [1, 10, BLOCK_SCALE_DOCS] {
            let dual = |t: &[(String, f64)], v: &[(String, f64)]| {
                RetrievalRequest::dual_terms(t.to_vec(), v.to_vec(), mix, k)
            };
            reqs.push(dual(&text, &visual));
            reqs.push(dual(&absent, &visual));
            reqs.push(dual(&text, &[]));
            reqs.push(dual(&text, &visual).with_filter("/theme2/"));
        }
    }
    reqs
}

/// Panic unless `req` runs on `db` as one fused top-k operator, with no
/// unfused grouped sum or channel arithmetic left in the plan.
pub fn assert_fused(db: &MirrorDbms, req: &RetrievalRequest) {
    let analyzed = db.explain_analyze(req).unwrap();
    let physical = analyzed.split_once("-- physical plan").expect("executor header").1;
    assert!(physical.contains("custom[contrep.getbl.topk]"), "not fused: {req:?}\n{analyzed}");
    for unfused in ["grouped_aggr", "arith"] {
        assert!(!physical.contains(unfused), "{unfused} left unfused: {req:?}\n{analyzed}");
    }
}

/// Every term's postings decoded into raw vectors — the pre-compression
/// representation the exhaustive oracle [`topk_beliefs_raw`] reads.
// not every suite that includes `common` ranks through the oracle
#[allow(dead_code)]
pub struct RawPostings {
    lists: Vec<Vec<Posting>>,
}

#[allow(dead_code)]
impl RawPostings {
    /// Decode every posting list of `index`.
    pub fn from_index(index: &InvertedIndex) -> RawPostings {
        let lists = (0..index.dict().len() as u32)
            .map(|tid| index.postings_by_id(tid).map_or_else(Vec::new, PostingList::to_vec))
            .collect();
        RawPostings { lists }
    }

    /// Total number of postings held.
    pub fn total_postings(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The tf of `term` in `doc`, 0 when absent.
    fn tf(&self, index: &InvertedIndex, term: &str, doc: Oid) -> u32 {
        let Some(posts) = index.dict().lookup(term).and_then(|t| self.lists.get(t as usize)) else {
            return 0;
        };
        posts.binary_search_by_key(&doc, |p| p.doc).map_or(0, |i| posts[i].tf)
    }
}

/// The exhaustive top-k oracle over decoded postings: every document that
/// matches a query term is scored — no bounds, no pruning, no blocks —
/// in the materialise path's float order (matched terms'
/// `w·belief/Σw` in query order, then the default row for the unmatched
/// weight), then ranked by score descending, ties by ascending oid, and
/// cut to `k`. A query without positive total weight ranks nothing.
#[allow(dead_code)]
pub fn topk_beliefs_raw(
    index: &InvertedIndex,
    raw: &RawPostings,
    params: BeliefParams,
    query: &[(&str, f64)],
    k: usize,
) -> Vec<(Oid, f64)> {
    let total_w: f64 = query.iter().map(|(_, w)| w).sum();
    if total_w <= 0.0 {
        return Vec::new();
    }
    let stats = index.stats();
    let mut ranked: Vec<(Oid, f64)> = Vec::new();
    for doc in 0..index.n_docs() as Oid {
        let (mut score, mut mw, mut hit) = (0.0, 0.0, false);
        for &(term, w) in query {
            let tf = raw.tf(index, term, doc);
            if tf > 0 {
                let dl = index.doc_len(doc);
                let b = params.belief(tf, index.df(term), dl, stats.n_docs, stats.avg_dl);
                score += w * b / total_w;
                mw += w;
                hit = true;
            }
        }
        if hit {
            if mw < total_w {
                score += params.alpha * (total_w - mw) / total_w;
            }
            ranked.push((doc, score));
        }
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// The N-channel twin of [`topk_beliefs_raw`]: the exhaustive oracle of
/// `topk_channels` over decoded postings, where `raw[c][s]` holds segment
/// `s` of channel `c`. Every document inside `domain` and not in `dead`
/// is scored — no bounds, no pruning, no blocks. A channel's
/// grouped sum is read from the segment holding the document, in the
/// materialise path's float order, with the channel's explicit statistics
/// and dfs; a channel the document does not match, or whose query has no
/// positive total weight, adds its zero fill `0.0`. The sums are
/// multiplied by their channel weights and added left to right, and the
/// positive scores are ranked by score descending, ties by ascending oid,
/// and cut to `k`.
#[allow(dead_code)]
pub fn topk_channels_raw(
    channels: &[TopKChannel<'_>],
    raw: &[Vec<RawPostings>],
    params: BeliefParams,
    domain: Option<&FxHashSet<Oid>>,
    dead: Option<&Tombstones>,
    k: usize,
) -> Vec<(Oid, f64)> {
    let n_docs = channels
        .iter()
        .flat_map(|c| c.segments.iter().map(|&(first, index)| first as usize + index.n_docs()))
        .max()
        .unwrap_or(0);
    let grouped_sum = |c: &TopKChannel<'_>, raw: &[RawPostings], doc: Oid| -> f64 {
        let total_w: f64 = c.query.iter().map(|q| q.1).sum();
        let s = c.segments.partition_point(|&(first, _)| first <= doc);
        if total_w <= 0.0 || s == 0 {
            return 0.0;
        }
        let (first, index) = c.segments[s - 1];
        let local = doc - first;
        if local as usize >= index.n_docs() {
            return 0.0;
        }
        let (mut sum, mut mw, mut hit) = (0.0, 0.0, false);
        for &(term, w, df) in &c.query {
            let tf = raw[s - 1].tf(index, term, local);
            if tf > 0 {
                let dl = index.doc_len(local);
                let b = params.belief(tf, df, dl, c.stats.n_docs, c.stats.avg_dl);
                sum += w * b / total_w;
                mw += w;
                hit = true;
            }
        }
        if hit && mw < total_w {
            sum += params.alpha * (total_w - mw) / total_w;
        }
        sum
    };
    let mut ranked: Vec<(Oid, f64)> = (0..n_docs as Oid)
        .filter(|d| {
            domain.is_none_or(|dom| dom.contains(d)) && dead.is_none_or(|t| !t.contains(*d))
        })
        .map(|doc| {
            let mut score = 0.0;
            for (c, (channel, raw)) in channels.iter().zip(raw).enumerate() {
                let part = grouped_sum(channel, raw, doc) * channel.weight;
                score = if c == 0 { part } else { score + part };
            }
            (doc, score)
        })
        .filter(|&(_, score)| score > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}
