//! The one synthetic-corpus generator every workload draws from.
//!
//! A small seed ingest of crawled images (the real `media` + `cluster`
//! pipeline) supplies the [`VisualVocabulary`]; every library row is then a
//! pure function of `(seed, row index)`: 8–20 annotation tokens drawn Zipf
//! (∝ 1/(i+1)) from a 5 000-term vocabulary, 70 % annotated, one visual
//! term per (feature space × segment) slot — 24 under the node config used
//! here — and a URL over 50 hosts × 7 directories. Half of a row's visual
//! slots are a hash of one of its tokens, so words and clusters co-occur
//! and the association thesaurus (built with the `thesaurus` crate's public
//! builder) has something to mine.
//!
//! The generator owns its random numbers (splitmix64): the inputs of the
//! benchmark must not move when the code under test, vendored `rand`
//! included, is changed.

use cluster::VisualVocabulary;
use media::{CrawledImage, RobotConfig, WebRobot};
use mirror_core::{Clustering, LibraryRow, MirrorConfig, MirrorDbms};
use thesaurus::{AssocMeasure, AssociationThesaurus, ThesaurusBuilder};

/// Size of the annotation vocabulary.
pub const VOCAB_TERMS: usize = 5_000;
/// Hosts the URLs spread over.
pub const HOSTS: u64 = 50;
/// Directories per host.
pub const DIRS: u64 = 7;
/// Images in the seed ingest that supplies the visual vocabulary.
pub const SEED_IMAGES: usize = 1_000;
/// Annotated rows the thesaurus is mined from (its builder clones two
/// strings per co-occurrence, so the whole corpus would dominate set-up).
pub const THESAURUS_ROWS: usize = 4_000;
/// Segmentation grid of the node config (grid² segments per image).
const GRID: usize = 2;

/// splitmix64 — small, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for item `i` of stream `seed`, independent of every
    /// other item's.
    pub fn for_item(seed: u64, i: u64) -> Self {
        // hash (seed, i) through the output function twice: a state that is
        // merely offset by `i` would replay its neighbour's stream one
        // draw later
        let s = Rng(seed).next_u64();
        Rng(Rng(s ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf sampler over `0..n` with weight ∝ 1/(i+1).
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cum = (0..n)
            .map(|i| {
                acc += 1.0 / (i + 1) as f64;
                acc
            })
            .collect();
        Zipf { cum }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let x = rng.unit() * self.cum[self.cum.len() - 1];
        self.cum.partition_point(|&c| c <= x).min(self.cum.len() - 1)
    }
}

/// Annotation term `i` — alphanumeric and untouched by the stemmer
/// (asserted in [`Shared::build`]).
pub fn term(i: usize) -> String {
    format!("w{i}")
}

/// FNV-1a over a few integers: the deterministic link between a token and
/// the visual cluster it pulls its document towards.
fn link(a: u64, b: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [a, b] {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What every workload of one run shares: node config, the visual
/// vocabulary of the seed ingest, and the samplers.
pub struct Shared {
    pub config: MirrorConfig,
    pub vocab: VisualVocabulary,
    /// `(space, clusters)` in sorted space order.
    pub spaces: Vec<(String, u64)>,
    pub zipf: Zipf,
}

/// The node configuration of every workload: the repo's cluster/live
/// experiments' config (coarse grid, fixed k-means), otherwise default.
pub fn node_config() -> MirrorConfig {
    MirrorConfig { grid: GRID, clustering: Clustering::KMeans(4), ..MirrorConfig::default() }
}

/// Crawl `n` 12-pixel images (the smallest the renderer supports cheaply).
pub fn crawl(n: usize, seed: u64) -> Vec<CrawledImage> {
    WebRobot::new(RobotConfig { n_images: n, image_size: 12, unannotated_fraction: 0.3, seed })
        .crawl()
}

impl Shared {
    /// Run the seed ingest and keep its visual vocabulary.
    pub fn build(seed: u64, seed_images: usize) -> Shared {
        let config = node_config();
        let mut db = MirrorDbms::new(config.clone());
        db.ingest(&crawl(seed_images, seed)).expect("seed ingest succeeds");
        let vocab = db.vocabulary().expect("ingest built a vocabulary").clone();
        let spaces: Vec<(String, u64)> = vocab
            .spaces()
            .into_iter()
            .map(|s| {
                let k = vocab.terms_of_space(&s).len() as u64;
                (s, k)
            })
            .collect();
        assert!(!spaces.is_empty(), "seed ingest produced no feature space");
        for t in (0..VOCAB_TERMS).step_by(97).map(term).chain([unique_token(4_711)]) {
            assert_eq!(ir::tokenize_stemmed(&t), vec![t.clone()], "stemmer rewrote {t}");
        }
        Shared { config, vocab, spaces, zipf: Zipf::new(VOCAB_TERMS) }
    }

    /// All visual terms of the vocabulary, in sorted space order.
    pub fn visual_terms(&self) -> Vec<String> {
        self.spaces.iter().flat_map(|(s, k)| (0..*k).map(move |c| format!("{s}_{c}"))).collect()
    }

    /// Visual terms of a row whose (possibly hidden) tokens are `tokens`.
    fn vterms(&self, tokens: &[usize], rng: &mut Rng) -> String {
        let mut out = String::new();
        for (s, (space, k)) in self.spaces.iter().enumerate() {
            for _segment in 0..GRID * GRID {
                let cluster = if rng.unit() < 0.5 {
                    let t = tokens[rng.below(tokens.len() as u64) as usize];
                    link(t as u64, s as u64) % k
                } else {
                    rng.below(*k)
                };
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(space);
                out.push('_');
                out.push_str(&cluster.to_string());
            }
        }
        out
    }

    /// Library row `i` of corpus `seed`.
    pub fn row(&self, seed: u64, i: u64) -> LibraryRow {
        let mut rng = Rng::for_item(seed, i);
        let tokens = draw_tokens(&self.zipf, &mut rng);
        let annotated = rng.unit() < 0.7;
        let vterms = self.vterms(&tokens, &mut rng);
        let annotation = annotated.then(|| annotation(&tokens));
        LibraryRow {
            url: url(i, rng.below(HOSTS), rng.below(DIRS)),
            annotation,
            vterms,
            theme: (i % 8) as usize,
        }
    }

    /// Row `i` forced annotated and carrying a token no other row has —
    /// the read-your-writes probe of `write_burst`.
    pub fn tagged_row(&self, seed: u64, i: u64) -> LibraryRow {
        let mut row = self.row(seed, i);
        let tag = unique_token(i);
        row.annotation = Some(match row.annotation {
            Some(a) => format!("{a} {tag}"),
            None => tag,
        });
        row
    }

    /// Rows `start..start + n`.
    pub fn rows(&self, seed: u64, start: u64, n: usize) -> Vec<LibraryRow> {
        (start..start + n as u64).map(|i| self.row(seed, i)).collect()
    }
}

/// Annotation tokens (term indexes) of one row; also drawn for rows that
/// end up without an annotation, because they still steer the row's visual
/// terms.
fn draw_tokens(zipf: &Zipf, rng: &mut Rng) -> Vec<usize> {
    let n = rng.between(8, 20);
    (0..n).map(|_| zipf.draw(rng)).collect()
}

fn annotation(tokens: &[usize]) -> String {
    tokens.iter().map(|&t| term(t)).collect::<Vec<_>>().join(" ")
}

/// Overwrite a crawl's annotations and URLs with the generator's (the
/// cluster workload: real pixels, Zipf words).
pub fn reannotate(zipf: &Zipf, seed: u64, corpus: &mut [CrawledImage]) {
    for (i, c) in corpus.iter_mut().enumerate() {
        let mut rng = Rng::for_item(seed, i as u64);
        let tokens = draw_tokens(zipf, &mut rng);
        c.annotation = (rng.unit() < 0.7).then(|| annotation(&tokens));
        c.url = url(i as u64, rng.below(HOSTS), rng.below(DIRS));
    }
}

fn url(i: u64, host: u64, dir: u64) -> String {
    format!("http://h{host}.example/d{dir}/{i}.png")
}

/// The token only row `i` carries (see [`Shared::tagged_row`]).
pub fn unique_token(i: u64) -> String {
    format!("u{i}")
}

/// Mine the association thesaurus over the first [`THESAURUS_ROWS`]
/// annotated rows with the `thesaurus` crate's public builder.
pub fn build_thesaurus(rows: &[LibraryRow]) -> AssociationThesaurus {
    let mut b = ThesaurusBuilder::new();
    for r in rows.iter().filter(|r| r.annotation.is_some()).take(THESAURUS_ROWS) {
        let text = ir::tokenize_stemmed(r.annotation.as_deref().unwrap_or(""));
        let vis: Vec<&str> = r.vterms.split(' ').collect();
        b.add_document(&text, &vis);
    }
    b.build(AssocMeasure::Emim)
}

/// Bytes a user handed over for these rows (URL + annotation + visual
/// terms) — the base of `monet.storage.space_amp`.
pub fn user_bytes(rows: &[LibraryRow]) -> u64 {
    rows.iter()
        .map(|r| {
            (r.url.len() + r.annotation.as_ref().map_or(0, String::len) + r.vterms.len()) as u64
        })
        .sum()
}
