//! The benchmark's own request generator: seeded, stratified, Zipf.
//!
//! Query terms come from the same Zipf the annotations were drawn from, so
//! a stream mixes head-heavy, head+tail and selective shapes in their
//! natural proportions. The request *kinds* are stratified: every block of
//! twenty requests holds exactly the mix's share of each kind in a seeded
//! order, so two streams differ in which requests they hold, never in how
//! many of each — the op-cost classes differ by 30× and an unstratified
//! draw would put that variance straight into `qps`.

use crate::corpus::{term, Rng, Zipf, DIRS, HOSTS};
use mirror_core::serve::{Channel, RetrievalRequest};

/// Requests per stratification block.
const BLOCK: usize = 20;

/// Shares of each request kind, in twentieths (they sum to 20).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Text channel, fused top-k.
    pub text: usize,
    /// Dual coding, visual side expanded through the thesaurus.
    pub dual: usize,
    /// Text ranking under a URL `contains` filter.
    pub filtered: usize,
    /// Dual coding with explicit visual terms (the feedback path).
    pub feedback: usize,
    /// How many of a block's *text* requests ask for k = 100, not 10.
    pub deep: usize,
}

impl Mix {
    pub const TEXT_ONLY: Mix = Mix { text: 20, dual: 0, filtered: 0, feedback: 0, deep: 2 };
    /// §E15's mix with the filtered and feedback shares evened out, so the
    /// median op sits inside the dual class instead of on a class border.
    pub const DUAL_MIX: Mix = Mix { text: 6, dual: 8, filtered: 3, feedback: 3, deep: 0 };
    pub const TEXT_DUAL: Mix = Mix { text: 14, dual: 6, filtered: 0, feedback: 0, deep: 0 };
}

#[derive(Clone, Copy)]
enum Kind {
    Text(usize),
    Dual,
    Filtered,
    Feedback,
}

fn text_terms(zipf: &Zipf, rng: &mut Rng) -> Vec<(String, f64)> {
    let n = rng.between(1, 3) as usize;
    let mut ids: Vec<usize> = Vec::with_capacity(n);
    while ids.len() < n {
        let t = zipf.draw(rng);
        if !ids.contains(&t) {
            ids.push(t);
        }
    }
    ids.into_iter().map(|t| (term(t), 1.0)).collect()
}

/// Generate `n` requests of stream `seed` under `mix`; `visual` is the
/// visual vocabulary feedback requests draw from.
pub fn requests(
    zipf: &Zipf,
    visual: &[String],
    seed: u64,
    mix: Mix,
    n: usize,
) -> Vec<RetrievalRequest> {
    assert_eq!(mix.text + mix.dual + mix.filtered + mix.feedback, BLOCK);
    assert!(mix.feedback == 0 || visual.len() >= 4, "feedback requests need visual terms");
    let mut rng = Rng::new(seed ^ 0x5712_EA45);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<Kind> = Vec::with_capacity(BLOCK);
        block.extend((0..mix.text).map(|i| Kind::Text(if i < mix.deep { 100 } else { 10 })));
        block.extend((0..mix.dual).map(|_| Kind::Dual));
        block.extend((0..mix.filtered).map(|_| Kind::Filtered));
        block.extend((0..mix.feedback).map(|_| Kind::Feedback));
        rng.shuffle(&mut block);
        for kind in block {
            let terms = text_terms(zipf, &mut rng);
            out.push(match kind {
                Kind::Text(k) => RetrievalRequest::text_terms(terms, k),
                Kind::Dual => RetrievalRequest {
                    channel: Channel::Dual,
                    terms,
                    visual_terms: None,
                    filter: None,
                    k: 10,
                    mix: 0.5,
                },
                Kind::Filtered => {
                    // a directory keeps 1/7 of the corpus, a host 1/50
                    let pattern = if rng.unit() < 0.7 {
                        format!("/d{}/", rng.below(DIRS))
                    } else {
                        format!("//h{}.", rng.below(HOSTS))
                    };
                    RetrievalRequest::text_terms(terms, 10).with_filter(pattern)
                }
                Kind::Feedback => {
                    let mut vis: Vec<(String, f64)> = Vec::with_capacity(4);
                    while vis.len() < 4 {
                        let v = &visual[rng.below(visual.len() as u64) as usize];
                        if !vis.iter().any(|(t, _)| t == v) {
                            vis.push((v.clone(), 0.25));
                        }
                    }
                    RetrievalRequest::dual_terms(terms, vis, 0.5, 10)
                }
            });
        }
    }
    out.truncate(n);
    out
}

/// Seeded Poisson arrival offsets (seconds from phase start) at `rate`
/// per second, enough to cover `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0xA771_7A15);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// FNV-1a, the digest behind `stream_digest` and `result_digest`.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn request(&mut self, r: &RetrievalRequest) {
        self.u64(r.channel as u64);
        self.u64(r.k as u64);
        self.u64(r.mix.to_bits());
        for (t, w) in r.terms.iter().chain(r.visual_terms.iter().flatten()) {
            self.bytes(t.as_bytes());
            self.u64(w.to_bits());
        }
        self.bytes(r.filter.as_deref().unwrap_or("").as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
