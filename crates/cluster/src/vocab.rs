//! Visual vocabularies: clusters as words.
//!
//! "We further use the identified clusters as if they are words in text
//! retrieval; they become the basic blocks of 'meaning' for multimedia
//! information retrieval." A [`VisualVocabulary`] holds one fitted model
//! per feature space and maps feature vectors to visual-term strings like
//! `gabor_21`.

use crate::autoclass::{AutoClass, MixtureModel};
use crate::kmeans::{kmeans, KMeansResult};
use std::collections::HashMap;

/// A fitted per-space quantiser.
#[derive(Debug, Clone)]
pub enum SpaceModel {
    /// AutoClass-style mixture (soft, BIC-selected class count).
    Mixture(MixtureModel),
    /// k-means baseline (hard, fixed k).
    KMeans(KMeansResult),
}

impl SpaceModel {
    /// Number of clusters (distinct visual terms) in this space.
    pub fn n_clusters(&self) -> usize {
        match self {
            SpaceModel::Mixture(m) => m.n_classes(),
            SpaceModel::KMeans(k) => k.centroids.len(),
        }
    }

    /// Quantise a vector to its cluster id.
    pub fn classify(&self, x: &[f64]) -> usize {
        match self {
            SpaceModel::Mixture(m) => m.classify(x),
            SpaceModel::KMeans(k) => k.predict(x),
        }
    }
}

/// A set of per-feature-space quantisers producing visual terms.
#[derive(Debug, Clone, Default)]
pub struct VisualVocabulary {
    spaces: HashMap<String, SpaceModel>,
}

impl VisualVocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a model for a feature space.
    pub fn insert(&mut self, space: impl Into<String>, model: SpaceModel) {
        self.spaces.insert(space.into(), model);
    }

    /// The model for a space.
    pub fn model(&self, space: &str) -> Option<&SpaceModel> {
        self.spaces.get(space)
    }

    /// Feature-space names, sorted.
    pub fn spaces(&self) -> Vec<String> {
        let mut v: Vec<String> = self.spaces.keys().cloned().collect();
        v.sort();
        v
    }

    /// Total number of visual terms across all spaces.
    pub fn total_terms(&self) -> usize {
        self.spaces.values().map(SpaceModel::n_clusters).sum()
    }

    /// The visual term of a vector in a space (`gabor_21`), or `None` for
    /// an unknown space.
    pub fn term_of(&self, space: &str, x: &[f64]) -> Option<String> {
        let model = self.spaces.get(space)?;
        Some(format!("{space}_{}", model.classify(x)))
    }

    /// All possible terms of a space (`space_0 … space_{k−1}`).
    pub fn terms_of_space(&self, space: &str) -> Vec<String> {
        match self.spaces.get(space) {
            Some(m) => (0..m.n_clusters()).map(|c| format!("{space}_{c}")).collect(),
            None => Vec::new(),
        }
    }
}

/// Builds a vocabulary by clustering per-space training vectors.
#[derive(Debug, Default)]
pub struct VocabularyBuilder {
    samples: HashMap<String, Vec<Vec<f64>>>,
}

impl VocabularyBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a training vector for a feature space.
    pub fn add(&mut self, space: &str, vector: Vec<f64>) {
        self.samples.entry(space.to_string()).or_default().push(vector);
    }

    /// Cluster every space with AutoClass (BIC-selected class counts).
    pub fn build_autoclass(&self, ac: &AutoClass) -> VisualVocabulary {
        let mut vocab = VisualVocabulary::new();
        for (space, pts) in &self.samples {
            if let Some(model) = ac.fit(pts) {
                vocab.insert(space.clone(), SpaceModel::Mixture(model));
            }
        }
        vocab
    }

    /// Cluster every space with k-means at a fixed `k` (baseline).
    pub fn build_kmeans(&self, k: usize, seed: u64) -> VisualVocabulary {
        let mut vocab = VisualVocabulary::new();
        for (space, pts) in &self.samples {
            if let Some(model) = kmeans(pts, k, seed, 50) {
                vocab.insert(space.clone(), SpaceModel::KMeans(model));
            }
        }
        vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::three_blobs;

    fn builder() -> VocabularyBuilder {
        let (pts, _) = three_blobs(25, 31);
        let mut b = VocabularyBuilder::new();
        for p in pts {
            b.add("rgb", p);
        }
        let (pts2, _) = three_blobs(25, 32);
        for p in pts2 {
            b.add("gabor", p);
        }
        b
    }

    #[test]
    fn autoclass_vocabulary_has_data_chosen_sizes() {
        let vocab = builder().build_autoclass(&AutoClass::default());
        assert_eq!(vocab.spaces(), vec!["gabor".to_string(), "rgb".to_string()]);
        assert_eq!(vocab.model("rgb").unwrap().n_clusters(), 3);
        assert_eq!(vocab.total_terms(), 6);
    }

    #[test]
    fn terms_are_space_prefixed() {
        let vocab = builder().build_kmeans(3, 0);
        let t = vocab.term_of("gabor", &[8.0, 8.0]).unwrap();
        assert!(t.starts_with("gabor_"), "{t}");
        assert!(vocab.term_of("unknown", &[0.0, 0.0]).is_none());
        let all = vocab.terms_of_space("rgb");
        assert_eq!(all.len(), 3);
        assert!(all.contains(&"rgb_0".to_string()));
    }

    #[test]
    fn same_blob_maps_to_same_term() {
        let vocab = builder().build_autoclass(&AutoClass::default());
        let a = vocab.term_of("rgb", &[0.1, 0.1]).unwrap();
        let b = vocab.term_of("rgb", &[-0.1, 0.2]).unwrap();
        let c = vocab.term_of("rgb", &[8.0, 8.1]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_builder_produces_empty_vocab() {
        let vocab = VocabularyBuilder::new().build_kmeans(4, 0);
        assert!(vocab.spaces().is_empty());
        assert_eq!(vocab.total_terms(), 0);
    }
}
