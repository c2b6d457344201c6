//! # thesaurus — the association thesaurus (dual coding)
//!
//! The Mirror demo automatically constructs a thesaurus "associating words
//! in the textual annotations to the clusters in the image content
//! representation" — an implementation of Paivio's dual-coding theory, and
//! (following PhraseFinder \[JC94\]) a device that can be read as *measuring
//! the belief in a concept (instead of a document) given the query*.
//!
//! [`AssociationThesaurus`] mines co-occurrence statistics between
//! annotation terms and visual terms over the annotated subset of the
//! library, scores associations with EMIM (expected mutual information
//! measure, with a chi-square alternative for the ablation), and expands a
//! text query into a weighted visual-term query.

#![warn(missing_docs)]

use std::collections::HashMap;

/// Association scoring measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssocMeasure {
    /// Expected mutual information over the presence/absence contingency
    /// table (PhraseFinder's choice).
    #[default]
    Emim,
    /// Pearson chi-square statistic of the same table.
    ChiSquare,
    /// Raw joint frequency (a deliberately weak baseline).
    JointCount,
}

/// One channel of the builder: term ↔ dense `u32` id in first-seen order,
/// and the document frequency of each id.
#[derive(Debug, Default)]
struct Channel {
    ids: HashMap<String, u32>,
    terms: Vec<String>,
    df: Vec<u32>,
}

impl Channel {
    /// Intern one document's terms into its sorted, de-duplicated id set,
    /// counting each id's document frequency once.
    fn add<S: AsRef<str>>(&mut self, terms: &[S]) -> Vec<u32> {
        let mut set = Vec::with_capacity(terms.len());
        for t in terms.iter().map(AsRef::as_ref) {
            let id = self.ids.get(t).copied().unwrap_or_else(|| {
                self.ids.insert(t.to_string(), self.terms.len() as u32);
                self.terms.push(t.to_string());
                self.df.push(0);
                self.terms.len() as u32 - 1
            });
            set.push(id);
        }
        set.sort_unstable();
        set.dedup();
        set.iter().for_each(|&id| self.df[id as usize] += 1);
        set
    }
}

/// Builder state: per-document term-id sets of both channels.
#[derive(Debug, Default)]
pub struct ThesaurusBuilder {
    text: Channel,
    visual: Channel,
    docs: Vec<(Vec<u32>, Vec<u32>)>,
}

impl ThesaurusBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one *annotated* document: its annotation terms (already
    /// stemmed) and its visual terms.
    pub fn add_document<S: AsRef<str>, T: AsRef<str>>(
        &mut self,
        text_terms: &[S],
        visual_terms: &[T],
    ) {
        let doc = (self.text.add(text_terms), self.visual.add(visual_terms));
        self.docs.push(doc);
    }

    /// Number of documents added.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Mine associations and freeze the thesaurus. One text term at a
    /// time, the visual ids of its documents are sorted and run-length
    /// counted into joint counts; strings are copied only for the
    /// associations kept.
    pub fn build(&self, measure: AssocMeasure) -> AssociationThesaurus {
        let n = self.docs.len() as f64;
        let mut docs_of: Vec<Vec<u32>> = vec![Vec::new(); self.text.terms.len()];
        for (d, (text, _)) in self.docs.iter().enumerate() {
            text.iter().for_each(|&t| docs_of[t as usize].push(d as u32));
        }
        let vis_terms = &self.visual.terms;
        let mut assoc: HashMap<String, Vec<(String, f64)>> = HashMap::new();
        let mut vis_ids: Vec<u32> = Vec::new();
        for (t, docs) in docs_of.iter().enumerate() {
            vis_ids.clear();
            docs.iter().for_each(|&d| vis_ids.extend(&self.docs[d as usize].1));
            vis_ids.sort_unstable();
            let nt = self.text.df[t] as f64;
            let mut list: Vec<(usize, f64)> = vis_ids
                .chunk_by(|a, b| a == b)
                .filter_map(|run| {
                    let v = run[0] as usize;
                    let (jc, nv) = (run.len() as f64, self.visual.df[v] as f64);
                    let score = match measure {
                        AssocMeasure::Emim => emim(jc, nt, nv, n),
                        AssocMeasure::ChiSquare => chi_square(jc, nt, nv, n),
                        AssocMeasure::JointCount => jc,
                    };
                    (score > 0.0).then_some((v, score))
                })
                .collect();
            if list.is_empty() {
                continue;
            }
            list.sort_by(|a, b| b.1.total_cmp(&a.1).then(vis_terms[a.0].cmp(&vis_terms[b.0])));
            let list = list.into_iter().map(|(v, s)| (vis_terms[v].clone(), s)).collect();
            assoc.insert(self.text.terms[t].clone(), list);
        }
        AssociationThesaurus { assoc, measure }
    }
}

/// Positive pointwise/expected mutual information over the 2×2 presence
/// table (only the co-presence cell contributes positively; negative
/// associations are clipped to zero, as PhraseFinder effectively does by
/// ranking).
fn emim(joint: f64, nt: f64, nv: f64, n: f64) -> f64 {
    if joint == 0.0 || n == 0.0 {
        return 0.0;
    }
    let p_tv = joint / n;
    let p_t = nt / n;
    let p_v = nv / n;
    let ratio = p_tv / (p_t * p_v);
    if ratio <= 1.0 {
        0.0
    } else {
        p_tv * ratio.ln()
    }
}

/// Pearson chi-square of the presence/absence table, clipped to positive
/// association only.
fn chi_square(joint: f64, nt: f64, nv: f64, n: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    let expected = nt * nv / n;
    if expected == 0.0 || joint <= expected {
        return 0.0;
    }
    let cells = [
        (joint, expected),
        (nt - joint, nt - expected),
        (nv - joint, nv - expected),
        (n - nt - nv + joint, n - nt - nv + expected),
    ];
    cells.iter().filter(|(_, e)| *e > 0.0).map(|(o, e)| (o - e) * (o - e) / e).sum()
}

/// The frozen thesaurus: text term → ranked `(visual term, strength)`.
#[derive(Debug, Clone)]
pub struct AssociationThesaurus {
    assoc: HashMap<String, Vec<(String, f64)>>,
    measure: AssocMeasure,
}

impl AssociationThesaurus {
    /// The measure the thesaurus was built with.
    pub fn measure(&self) -> AssocMeasure {
        self.measure
    }

    /// Ranked associations of one text term.
    pub fn associations(&self, term: &str) -> &[(String, f64)] {
        self.assoc.get(term).map_or(&[], Vec::as_slice)
    }

    /// Number of text terms with at least one association.
    pub fn n_terms(&self) -> usize {
        self.assoc.len()
    }

    /// Every association as `(text term, visual term, strength)`, sorted
    /// by text term and then by the per-term ranking. Deterministic, so
    /// it can be serialised and compared across processes; the inverse of
    /// [`from_entries`](Self::from_entries).
    pub fn entries(&self) -> Vec<(String, String, f64)> {
        let mut terms: Vec<&String> = self.assoc.keys().collect();
        terms.sort();
        terms
            .into_iter()
            .flat_map(|t| self.assoc[t].iter().map(move |(v, s)| (t.clone(), v.clone(), *s)))
            .collect()
    }

    /// Rebuild a thesaurus from [`entries`](Self::entries) output.
    /// Within-term order of `entries` is preserved, so a roundtrip
    /// reproduces the original ranking bit-for-bit.
    pub fn from_entries(
        measure: AssocMeasure,
        entries: impl IntoIterator<Item = (String, String, f64)>,
    ) -> Self {
        let mut assoc: HashMap<String, Vec<(String, f64)>> = HashMap::new();
        for (t, v, s) in entries {
            assoc.entry(t).or_default().push((v, s));
        }
        AssociationThesaurus { assoc, measure }
    }

    /// Expand a weighted text query into a weighted visual-term query:
    /// per text term take the top `per_term` associations, accumulate
    /// `query weight × association strength`, renormalise so the expansion
    /// weights sum to 1, and keep the overall top `max_terms`.
    ///
    /// This is the PhraseFinder view: the strengths act as beliefs in the
    /// visual *concepts* given the query.
    pub fn expand(
        &self,
        query: &[(String, f64)],
        per_term: usize,
        max_terms: usize,
    ) -> Vec<(String, f64)> {
        let mut acc: HashMap<&str, f64> = HashMap::new();
        for (t, w) in query {
            for (v, s) in self.associations(t).iter().take(per_term) {
                *acc.entry(v.as_str()).or_insert(0.0) += w * s;
            }
        }
        let mut out: Vec<(String, f64)> =
            acc.into_iter().map(|(v, s)| (v.to_string(), s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(max_terms);
        let total: f64 = out.iter().map(|(_, s)| s).sum();
        if total > 0.0 {
            for (_, s) in &mut out {
                *s /= total;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A corpus where "sunset" co-occurs with rgb_0, "forest" with rgb_1,
    /// and "photo" with everything (a stop-like word).
    fn builder() -> ThesaurusBuilder {
        let mut b = ThesaurusBuilder::new();
        for _ in 0..10 {
            b.add_document(&["sunset", "photo"], &["rgb_0", "gabor_2"]);
        }
        for _ in 0..10 {
            b.add_document(&["forest", "photo"], &["rgb_1", "gabor_5"]);
        }
        for _ in 0..2 {
            b.add_document(&["sunset"], &["rgb_1"]); // a little noise
        }
        b
    }

    #[test]
    fn emim_ranks_characteristic_clusters_first() {
        let th = builder().build(AssocMeasure::Emim);
        let a = th.associations("sunset");
        assert!(!a.is_empty());
        assert!(a[0].0 == "rgb_0" || a[0].0 == "gabor_2", "top was {:?}", a[0]);
        let f = th.associations("forest");
        assert!(f[0].0 == "rgb_1" || f[0].0 == "gabor_5");
    }

    #[test]
    fn uninformative_words_get_weak_associations() {
        let th = builder().build(AssocMeasure::Emim);
        // "photo" occurs everywhere → ratio ≈ 1 → clipped to no/weak assoc
        let p = th.associations("photo");
        let s = th.associations("sunset");
        let p_best = p.first().map_or(0.0, |x| x.1);
        let s_best = s.first().map_or(0.0, |x| x.1);
        assert!(s_best > p_best, "{s_best} vs {p_best}");
    }

    #[test]
    fn chi_square_agrees_on_the_top_association() {
        let emim_th = builder().build(AssocMeasure::Emim);
        let chi_th = builder().build(AssocMeasure::ChiSquare);
        let e = &emim_th.associations("forest")[0].0;
        let c = &chi_th.associations("forest")[0].0;
        assert_eq!(e, c);
    }

    #[test]
    fn joint_count_is_fooled_by_frequency() {
        // joint count cannot discount ubiquitous visual terms
        let mut b = ThesaurusBuilder::new();
        for _ in 0..20 {
            b.add_document(&["sunset"], &["common_0"]);
        }
        for i in 0..20 {
            let other = if i < 10 { "sunset" } else { "forest" };
            b.add_document(&[other], &["common_0", "rare_1"]);
        }
        let jc = b.build(AssocMeasure::JointCount);
        assert_eq!(jc.associations("sunset")[0].0, "common_0");
    }

    #[test]
    fn expansion_produces_normalised_weights() {
        let th = builder().build(AssocMeasure::Emim);
        let q = vec![("sunset".to_string(), 1.0)];
        let exp = th.expand(&q, 3, 5);
        assert!(!exp.is_empty());
        let total: f64 = exp.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // best expansion should be a sunset cluster
        assert!(exp[0].0 == "rgb_0" || exp[0].0 == "gabor_2");
    }

    #[test]
    fn expansion_of_unknown_term_is_empty() {
        let th = builder().build(AssocMeasure::Emim);
        let exp = th.expand(&[("xyzzy".to_string(), 1.0)], 3, 5);
        assert!(exp.is_empty());
    }

    #[test]
    fn expansion_respects_limits() {
        let th = builder().build(AssocMeasure::Emim);
        let q = vec![("sunset".to_string(), 1.0), ("forest".to_string(), 1.0)];
        let exp = th.expand(&q, 2, 3);
        assert!(exp.len() <= 3);
    }

    #[test]
    fn multi_term_queries_merge_evidence() {
        let th = builder().build(AssocMeasure::Emim);
        let q = vec![("sunset".to_string(), 2.0), ("forest".to_string(), 0.5)];
        let exp = th.expand(&q, 4, 10);
        // sunset clusters should outrank forest clusters due to weight
        let sunset_pos = exp.iter().position(|(v, _)| v == "rgb_0" || v == "gabor_2");
        let forest_pos = exp.iter().position(|(v, _)| v == "rgb_1" || v == "gabor_5");
        assert!(sunset_pos.unwrap() < forest_pos.unwrap());
    }

    #[test]
    fn empty_builder_yields_empty_thesaurus() {
        let th = ThesaurusBuilder::new().build(AssocMeasure::Emim);
        assert_eq!(th.n_terms(), 0);
        assert!(th.associations("anything").is_empty());
    }

    #[test]
    fn entries_roundtrip_is_bit_identical() {
        let th = builder().build(AssocMeasure::Emim);
        let back = AssociationThesaurus::from_entries(th.measure(), th.entries());
        assert_eq!(back.measure(), th.measure());
        assert_eq!(back.n_terms(), th.n_terms());
        for term in ["sunset", "forest", "photo"] {
            assert_eq!(back.associations(term), th.associations(term), "{term}");
        }
        // and expansions (the behaviour that matters) agree exactly
        let q = vec![("sunset".to_string(), 1.0), ("forest".to_string(), 0.25)];
        assert_eq!(back.expand(&q, 3, 5), th.expand(&q, 3, 5));
    }

    #[test]
    fn entries_are_deterministically_ordered() {
        let th = builder().build(AssocMeasure::Emim);
        let a = th.entries();
        let b = builder().build(AssocMeasure::Emim).entries();
        assert_eq!(a, b);
        // sorted by text term, each term's block keeps ranked order
        let mut terms: Vec<&String> = a.iter().map(|(t, _, _)| t).collect();
        terms.dedup();
        let mut sorted = terms.clone();
        sorted.sort();
        assert_eq!(terms, sorted);
    }

    /// The builder over per-document `HashSet<String>`s, with string-keyed
    /// document frequencies and joint counts.
    fn reference_entries(
        docs: &[(Vec<String>, Vec<String>)],
        measure: AssocMeasure,
    ) -> Vec<(String, String, f64)> {
        let sets: Vec<(HashSet<&String>, HashSet<&String>)> =
            docs.iter().map(|(t, v)| (t.iter().collect(), v.iter().collect())).collect();
        let n = sets.len() as f64;
        let mut text_df: HashMap<&String, u32> = HashMap::new();
        let mut vis_df: HashMap<&String, u32> = HashMap::new();
        let mut joint: HashMap<(&String, &String), u32> = HashMap::new();
        for (text, vis) in &sets {
            for &t in text {
                *text_df.entry(t).or_insert(0) += 1;
                for &v in vis {
                    *joint.entry((t, v)).or_insert(0) += 1;
                }
            }
            for &v in vis {
                *vis_df.entry(v).or_insert(0) += 1;
            }
        }
        let mut assoc: HashMap<String, Vec<(String, f64)>> = HashMap::new();
        for (&(t, v), &jc) in &joint {
            let (jc, nt, nv) = (jc as f64, text_df[t] as f64, vis_df[v] as f64);
            let score = match measure {
                AssocMeasure::Emim => emim(jc, nt, nv, n),
                AssocMeasure::ChiSquare => chi_square(jc, nt, nv, n),
                AssocMeasure::JointCount => jc,
            };
            if score > 0.0 {
                assoc.entry(t.clone()).or_default().push((v.clone(), score));
            }
        }
        for list in assoc.values_mut() {
            list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        AssociationThesaurus { assoc, measure }.entries()
    }

    #[test]
    fn id_keyed_builder_equals_the_string_keyed_reference() {
        let state = std::cell::Cell::new(11u64);
        let next = |m: u64| {
            let s = state.get().wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695);
            state.set(s);
            (s >> 33) % m
        };
        let docs: Vec<(Vec<String>, Vec<String>)> = (0..300)
            .map(|_| {
                // skewed draws, so terms repeat within and across documents
                let text = (0..1 + next(10)).map(|_| format!("t{}", next(1 + next(40)))).collect();
                let vis = (0..next(8)).map(|_| format!("v_{}", next(1 + next(25)))).collect();
                (text, vis)
            })
            .collect();
        let mut b = ThesaurusBuilder::new();
        for (text, vis) in &docs {
            b.add_document(text, vis);
        }
        for measure in [AssocMeasure::Emim, AssocMeasure::ChiSquare, AssocMeasure::JointCount] {
            let (got, want) = (b.build(measure).entries(), reference_entries(&docs, measure));
            assert!(want.len() > 100, "{measure:?}: {} associations", want.len());
            let bits = |e: &[(String, String, f64)]| -> Vec<(String, String, u64)> {
                e.iter().map(|(t, v, s)| (t.clone(), v.clone(), s.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{measure:?}");
        }
    }
}
