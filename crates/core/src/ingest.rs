//! The ingest pipeline of Section 5.
//!
//! ```text
//! crawl → segment → extract (rgb, hsv, gabor, glcm, tamura, edge)
//!       → cluster each space (AutoClass substitute) → visual terms
//!       → ImageLibraryInternal(source, CONTREP<Text>, CONTREP<Image>)
//!       → association thesaurus
//! ```
//!
//! [`MirrorDbms::ingest`] is the one ingest route: it runs every stage
//! in-process and deterministically, calling the same grid segmenter and
//! feature extractors the daemons of Figure 1 wrap
//! (`examples/distributed_library.rs` runs those daemons on the bus).

use crate::{Clustering, LibraryRow, MirrorDbms, INTERNAL};
use cluster::{AutoClass, AutoClassConfig, VisualVocabulary, VocabularyBuilder};
use ir::text::tokenize_stemmed;
use ir::InvertedIndex;
use media::{grid_segments, standard_extractors, CrawledImage};
use moa::parse_define;
use monet::column::StrCol;
use monet::{Bat, Column};
use std::sync::Arc;
use thesaurus::ThesaurusBuilder;

/// One extracted feature: (document index, segment index, space, vector).
pub(crate) type Extraction = (usize, usize, String, Vec<f64>);

/// Everything the shared ingest pipeline produces besides the collection
/// itself — reused by [`crate::shard::MirrorCluster`], which runs these
/// stages once globally and then loads each shard's rows.
pub(crate) struct IngestArtifacts {
    pub(crate) vocab: VisualVocabulary,
    pub(crate) thesaurus: thesaurus::AssociationThesaurus,
    /// Per-document visual terms (one visual term per segment × space).
    pub(crate) visual_docs: Vec<Vec<String>>,
}

/// Inline segmentation + extraction (no daemons): every segment of a
/// `grid`×`grid` cut of each image through every standard extractor, in
/// document, segment, extractor order.
pub(crate) fn extract_inline(corpus: &[CrawledImage], grid: usize) -> Vec<Extraction> {
    let extractors = standard_extractors();
    let mut out = Vec::new();
    for (doc, c) in corpus.iter().enumerate() {
        for (seg_idx, seg) in grid_segments(&c.image, grid).iter().enumerate() {
            for ex in &extractors {
                let v = ex.extract(&seg.image);
                out.push((doc, seg_idx, ex.space().to_string(), v.into_values()));
            }
        }
    }
    out
}

/// The visual document of each of `n_docs` images: the vocabulary's term
/// for each of its extractions, in extraction order.
pub(crate) fn visual_docs(
    vocab: &VisualVocabulary,
    n_docs: usize,
    extractions: &[Extraction],
) -> Vec<Vec<String>> {
    let mut docs: Vec<Vec<String>> = vec![Vec::new(); n_docs];
    for (doc, _, space, vector) in extractions {
        if let Some(term) = vocab.term_of(space, vector) {
            docs[*doc].push(term);
        }
    }
    docs
}

/// The annotation and image indexes of `rows`, built as `CONTREP<Text>`
/// and `CONTREP<Image>` build them.
pub(crate) fn channel_indexes(rows: &[LibraryRow]) -> [InvertedIndex; 2] {
    let text = rows.iter().map(|r| r.annotation.as_deref());
    let image = rows.iter().map(|r| Some(r.vterms.as_str()));
    [InvertedIndex::from_payloads(text, true), InvertedIndex::from_payloads(image, false)]
}

/// The library rows of a corpus and its visual documents, in corpus order —
/// what `ImageLibraryInternal` (the internal schema of Section 5.2) is
/// loaded from.
pub(crate) fn library_rows(
    corpus: &[CrawledImage],
    visual_docs: &[Vec<String>],
) -> Vec<LibraryRow> {
    debug_assert_eq!(corpus.len(), visual_docs.len());
    corpus
        .iter()
        .zip(visual_docs)
        .map(|(c, vterms)| LibraryRow {
            url: c.url.clone(),
            annotation: c.annotation.clone(),
            vterms: vterms.join(" "),
            theme: c.theme,
        })
        .collect()
}

impl MirrorDbms {
    /// Ingest a crawled corpus in-process: extract, cluster, build visual
    /// documents, flatten the internal schema, and mine the thesaurus.
    pub fn ingest(&mut self, corpus: &[CrawledImage]) -> moa::Result<()> {
        let extractions = extract_inline(corpus, self.config().grid);
        let artifacts = self.cluster_and_tokenize(corpus, &extractions);
        self.load_library_rows(library_rows(corpus, &artifacts.visual_docs))?;
        self.set_ingest_outputs(artifacts.vocab, artifacts.thesaurus);
        Ok(())
    }

    /// The corpus-global pipeline stages: cluster each feature space into
    /// a visual vocabulary, emit one visual document per image, and mine
    /// the association thesaurus over the annotated subset. No state is
    /// written — the caller decides which node(s) load the results.
    pub(crate) fn cluster_and_tokenize(
        &self,
        corpus: &[CrawledImage],
        extractions: &[Extraction],
    ) -> IngestArtifacts {
        // 1. cluster each feature space into a visual vocabulary
        let mut builder = VocabularyBuilder::new();
        for (_, _, space, vector) in extractions {
            builder.add(space, vector.clone());
        }
        let vocab: VisualVocabulary = match self.config().clustering {
            Clustering::AutoClass => builder.build_autoclass(&AutoClass::new(AutoClassConfig {
                seed: self.config().seed,
                ..Default::default()
            })),
            Clustering::KMeans(k) => builder.build_kmeans(k, self.config().seed),
        };

        // 2. visual document per image: the terms of all its segments
        let visual_docs = visual_docs(&vocab, corpus.len(), extractions);

        // 3. the association thesaurus over the *annotated* subset
        let mut th = ThesaurusBuilder::new();
        for (c, vterms) in corpus.iter().zip(&visual_docs) {
            if let Some(ann) = &c.annotation {
                let text_terms = tokenize_stemmed(ann);
                th.add_document(&text_terms, vterms);
            }
        }
        let thesaurus = th.build(self.config().assoc);
        IngestArtifacts { vocab, thesaurus, visual_docs }
    }

    /// Load (or reload) `ImageLibraryInternal` from library rows, building
    /// both channel indexes the way `CONTREP` builds an attribute; a cold
    /// [`crate::durable`] open loads here, state-identical to the saver.
    pub(crate) fn load_library_rows(&mut self, rows: Vec<LibraryRow>) -> moa::Result<()> {
        let indexes = channel_indexes(&rows);
        self.load(rows, indexes)
    }

    /// Load (or reload) `ImageLibraryInternal` from typed rows and their
    /// two channel indexes (annotation, image), with no value trees: the
    /// URL column, the `CONTREP` indexes, the statistics, and the rows as
    /// per-document metadata. A live merge loads folded indexes here.
    pub(crate) fn load(
        &mut self,
        rows: Vec<LibraryRow>,
        indexes: [InvertedIndex; 2],
    ) -> moa::Result<()> {
        let (name, ty) = parse_define(
            "define ImageLibraryInternal as
               SET< TUPLE<
                 Atomic<URL>: source,
                 CONTREP<Text>: annotation,
                 CONTREP<Image>: image >>;",
        )?;
        debug_assert_eq!(name, INTERNAL);
        debug_assert!(indexes.iter().all(|i| i.n_docs() == rows.len()));
        // per-term dfs feed the optimizer's belief cardinality estimates
        let mut index_stats = Vec::with_capacity(2);
        self.env().register_collection(&name, ty, rows.len(), |catalog| {
            let urls = StrCol::from_strs(rows.iter().map(|r| r.url.as_str()));
            catalog.register(format!("{INTERNAL}__source"), Bat::dense(Column::Str(urls)));
            for (field, index) in ["annotation", "image"].into_iter().zip(indexes) {
                let prefix = format!("{INTERNAL}__{field}");
                let dfs: Vec<(String, u32)> =
                    index.term_dfs().map(|(t, d)| (t.to_string(), d)).collect();
                index_stats.push((prefix.clone(), index.n_docs() as u64, dfs));
                self.store.insert(prefix, index);
            }
            Ok(())
        })?;
        self.env().update_stats(move |stats| {
            for (prefix, n_docs, dfs) in index_stats {
                stats.set_index(prefix, n_docs, dfs);
            }
        });
        self.lib_rows = rows;
        Ok(())
    }

    pub(crate) fn set_ingest_outputs(
        &mut self,
        vocab: VisualVocabulary,
        thesaurus: thesaurus::AssociationThesaurus,
    ) {
        self.vocab = Some(Arc::new(vocab));
        self.thesaurus = Some(Arc::new(thesaurus));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MirrorConfig;
    use media::{RobotConfig, WebRobot};

    fn small_corpus() -> Vec<CrawledImage> {
        WebRobot::new(RobotConfig {
            n_images: 24,
            image_size: 24,
            unannotated_fraction: 0.25,
            seed: 7,
        })
        .crawl()
    }

    #[test]
    fn ingest_builds_internal_collection() {
        let mut db = MirrorDbms::with_defaults();
        let corpus = small_corpus();
        db.ingest(&corpus).unwrap();
        assert_eq!(db.n_docs(), 24);
        let meta = db.env().collection(INTERNAL).unwrap();
        assert_eq!(meta.count, 24);
        // both content representations were built
        assert!(db.store().get("ImageLibraryInternal__annotation").is_some());
        assert!(db.store().get("ImageLibraryInternal__image").is_some());
        // every image has visual terms (6 extractors × 9 segments)
        let vis = db.store().get("ImageLibraryInternal__image").unwrap();
        assert!(vis.doc_len(0) > 0);
        assert!(db.vocabulary().unwrap().total_terms() > 0);
        assert!(db.thesaurus().unwrap().n_terms() > 0);
    }

    #[test]
    fn unannotated_docs_have_empty_text_channel() {
        let mut db = MirrorDbms::with_defaults();
        let corpus = small_corpus();
        db.ingest(&corpus).unwrap();
        let ann = db.store().get("ImageLibraryInternal__annotation").unwrap();
        for (i, c) in corpus.iter().enumerate() {
            if c.annotation.is_none() {
                assert_eq!(ann.doc_len(i as u32), 0, "doc {i} should be empty");
            } else {
                assert!(ann.doc_len(i as u32) > 0, "doc {i} should have terms");
            }
        }
    }

    #[test]
    fn daemon_ingest_matches_inline_ingest() {
        // the Figure 1 daemons (a segmenter, one feature daemon per
        // extractor) produce exactly the extractions ingest runs inline
        use daemon::{
            DaemonRuntime, FeatureDaemon, Message, SegmenterDaemon, SegmenterKind, TOPIC_CRAWLED,
            TOPIC_FEATURES,
        };
        let corpus = small_corpus();
        let grid = MirrorConfig::default().grid;
        let rt = DaemonRuntime::new();
        let features = rt.bus().subscribe(TOPIC_FEATURES);
        rt.spawn(Box::new(SegmenterDaemon::new(SegmenterKind::Grid(grid))));
        for ex in standard_extractors() {
            rt.spawn(Box::new(FeatureDaemon::new(ex)));
        }
        for c in &corpus {
            let msg = Message::ImageCrawled {
                url: c.url.clone(),
                blob: c.image.to_blob(),
                annotation: c.annotation.clone(),
            };
            rt.bus().publish(TOPIC_CRAWLED, "web-robot", msg);
        }
        rt.shutdown();
        let doc_of = |url: &str| corpus.iter().position(|c| c.url == url).unwrap();
        let mut via_daemons: Vec<Extraction> = std::iter::from_fn(|| features.try_recv().ok())
            .filter_map(|env| match env.msg {
                Message::FeaturesExtracted { url, segment, space, vector } => {
                    Some((doc_of(&url), segment, space, vector))
                }
                _ => None,
            })
            .collect();
        let mut inline = extract_inline(&corpus, grid);
        let order = |a: &Extraction, b: &Extraction| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2));
        via_daemons.sort_by(order);
        inline.sort_by(order);
        assert_eq!(via_daemons.len(), corpus.len() * grid * grid * standard_extractors().len());
        assert_eq!(via_daemons, inline);
    }

    #[test]
    fn kmeans_clustering_also_works() {
        let mut db = MirrorDbms::new(MirrorConfig {
            clustering: crate::Clustering::KMeans(4),
            ..Default::default()
        });
        db.ingest(&small_corpus()).unwrap();
        let vocab = db.vocabulary().unwrap();
        for space in vocab.spaces() {
            assert_eq!(vocab.model(&space).unwrap().n_clusters(), 4);
        }
    }

    #[test]
    fn reingest_replaces_state() {
        let mut db = MirrorDbms::with_defaults();
        db.ingest(&small_corpus()).unwrap();
        let corpus2 = WebRobot::new(RobotConfig { n_images: 10, ..Default::default() }).crawl();
        db.ingest(&corpus2).unwrap();
        assert_eq!(db.n_docs(), 10);
        assert_eq!(db.env().collection(INTERNAL).unwrap().count, 10);
    }
}
