//! The text pipeline: tokenisation, stopword removal, Porter stemming.
//!
//! All three stages are implemented from scratch. The stemmer follows
//! M.F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980 —
//! the same algorithm InQuery used.

/// Standard English stopword list (a compact subset of the SMART list; the
/// terms that actually occur in annotation-style text).
const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "all", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from",
    "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how",
    "i", "if", "in", "into", "is", "it", "its", "itself", "just", "me", "more", "most", "my", "no",
    "nor", "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours", "out",
    "over", "own", "same", "she", "should", "so", "some", "such", "than", "that", "the", "their",
    "theirs", "them", "then", "there", "these", "they", "this", "those", "through", "to", "too",
    "under", "until", "up", "very", "was", "we", "were", "what", "when", "where", "which", "while",
    "who", "whom", "why", "will", "with", "you", "your", "yours",
];

/// True if `word` (lowercase) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// Stream the lowercase alphanumeric tokens of `text` to `f`, lowercasing
/// into one reused buffer (no allocation per token). ASCII characters take
/// a fast path; any other character follows `char::is_alphanumeric` and
/// `char::to_lowercase`, which may emit several characters (`İ` → `i̇`).
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut buf = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase());
        } else if !buf.is_empty() {
            f(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(&buf);
    }
}

/// Split text into lowercase alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |t| out.push(t.to_string()));
    out
}

/// Tokenise, drop stopwords, and Porter-stem — the full indexing pipeline.
pub fn tokenize_stemmed(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |t| {
        if !is_stopword(t) {
            out.push(porter_stem(t));
        }
    });
    out
}

// ---------------------------------------------------------------------
// Porter stemmer
// ---------------------------------------------------------------------

fn is_consonant(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                !is_consonant(b, i - 1)
            }
        }
        _ => true,
    }
}

/// The *measure* m of the stem `b[..len]`: the number of VC sequences.
fn measure(b: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // skip initial consonants
    while i < len && is_consonant(b, i) {
        i += 1;
    }
    loop {
        // skip vowels
        while i < len && !is_consonant(b, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // skip consonants
        while i < len && is_consonant(b, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

fn has_vowel(b: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(b, i))
}

fn ends_double_consonant(b: &[u8], len: usize) -> bool {
    len >= 2 && b[len - 1] == b[len - 2] && is_consonant(b, len - 1)
}

/// cvc test: stem ends consonant-vowel-consonant where the final consonant
/// is not w, x or y (controls e-restoration).
fn ends_cvc(b: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    if !is_consonant(b, len - 3) || is_consonant(b, len - 2) || !is_consonant(b, len - 1) {
        return false;
    }
    !matches!(b[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(b: &[u8], len: usize, suffix: &str) -> bool {
    let s = suffix.as_bytes();
    len >= s.len() && &b[len - s.len()..len] == s
}

/// Stem an English word with Porter's algorithm. Input should already be
/// lowercase; words of length ≤ 2 and non-ASCII words are returned
/// untouched.
pub fn porter_stem(word: &str) -> String {
    let mut out = String::new();
    porter_stem_into(word, &mut out);
    out
}

/// [`porter_stem`] into a caller's buffer, replacing its contents and
/// reusing its allocation.
pub fn porter_stem_into(word: &str, out: &mut String) {
    out.clear();
    out.push_str(word);
    if word.len() <= 2 || !word.is_ascii() {
        return;
    }
    let mut b = std::mem::take(out).into_bytes();
    let mut len = b.len();

    // ---- step 1a ----
    if ends_with(&b, len, "sses") || ends_with(&b, len, "ies") {
        len -= 2;
    } else if ends_with(&b, len, "ss") {
        // unchanged
    } else if ends_with(&b, len, "s") {
        len -= 1;
    }

    // ---- step 1b ----
    let mut extra = false;
    if ends_with(&b, len, "eed") {
        if measure(&b, len - 3) > 0 {
            len -= 1;
        }
    } else if ends_with(&b, len, "ed") && has_vowel(&b, len - 2) {
        len -= 2;
        extra = true;
    } else if ends_with(&b, len, "ing") && has_vowel(&b, len - 3) {
        len -= 3;
        extra = true;
    }
    if extra {
        if ends_with(&b, len, "at") || ends_with(&b, len, "bl") || ends_with(&b, len, "iz") {
            b.truncate(len);
            b.push(b'e');
            len += 1;
        } else if ends_double_consonant(&b, len) && !matches!(b[len - 1], b'l' | b's' | b'z') {
            len -= 1;
        } else if measure(&b, len) == 1 && ends_cvc(&b, len) {
            b.truncate(len);
            b.push(b'e');
            len += 1;
        }
    }

    // ---- step 1c ----
    if ends_with(&b, len, "y") && has_vowel(&b, len - 1) {
        b[len - 1] = b'i';
    }

    // ---- step 2 ----
    const STEP2: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    len = apply_rules(&mut b, len, STEP2, 0);

    // ---- step 3 ----
    const STEP3: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    len = apply_rules(&mut b, len, STEP3, 0);

    // ---- step 4 ----
    const STEP4: &[(&str, &str)] = &[
        ("al", ""),
        ("ance", ""),
        ("ence", ""),
        ("er", ""),
        ("ic", ""),
        ("able", ""),
        ("ible", ""),
        ("ant", ""),
        ("ement", ""),
        ("ment", ""),
        ("ent", ""),
        ("ou", ""),
        ("ism", ""),
        ("ate", ""),
        ("iti", ""),
        ("ous", ""),
        ("ive", ""),
        ("ize", ""),
    ];
    for (suf, rep) in STEP4 {
        if ends_with(&b, len, suf) {
            let stem_len = len - suf.len();
            // special case: -ion only after s or t
            let ok = if *suf == "ent" && ends_with(&b, len, "ion") {
                false
            } else {
                measure(&b, stem_len) > 1
            };
            if ok {
                len = stem_len + rep.len();
            }
            break;
        }
    }
    // -ion after s/t
    if ends_with(&b, len, "ion") {
        let stem_len = len - 3;
        if stem_len > 0 && matches!(b[stem_len - 1], b's' | b't') && measure(&b, stem_len) > 1 {
            len = stem_len;
        }
    }

    // ---- step 5a ----
    if ends_with(&b, len, "e") {
        let stem_len = len - 1;
        let m = measure(&b, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(&b, stem_len)) {
            len = stem_len;
        }
    }
    // ---- step 5b ----
    if ends_with(&b, len, "ll") && measure(&b, len) > 1 {
        len -= 1;
    }

    b.truncate(len);
    *out = String::from_utf8(b).expect("ascii input stays ascii");
}

/// Apply the first matching (suffix, replacement) rule whose stem has
/// measure > `min_m`.
fn apply_rules(b: &mut Vec<u8>, len: usize, rules: &[(&str, &str)], min_m: usize) -> usize {
    for (suf, rep) in rules {
        if ends_with(b, len, suf) {
            let stem_len = len - suf.len();
            if measure(b, stem_len) > min_m {
                b.truncate(stem_len);
                b.extend_from_slice(rep.as_bytes());
                return stem_len + rep.len();
            }
            return len;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("A Sunset, over THE sea!"), vec!["a", "sunset", "over", "the", "sea"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("x1 y2"), vec!["x1", "y2"]);
    }

    #[test]
    fn stopwords_are_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "stopword list must stay sorted");
        assert!(is_stopword("the"));
        assert!(!is_stopword("sunset"));
    }

    #[test]
    fn porter_classic_examples() {
        // examples from Porter's paper and the canonical test vocabulary
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, expected) in cases {
            assert_eq!(porter_stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn porter_leaves_short_words() {
        assert_eq!(porter_stem("is"), "is");
        assert_eq!(porter_stem("be"), "be");
    }

    #[test]
    fn full_pipeline() {
        let toks = tokenize_stemmed("The sunset was glowing over the quiet beaches");
        assert_eq!(toks, vec!["sunset", "glow", "quiet", "beach"]);
    }

    #[test]
    fn pipeline_maps_variants_to_same_stem() {
        let a = tokenize_stemmed("running runner runs");
        assert_eq!(a[0], "run");
        // "runner" stems to "runner" (er needs m>1), "runs" to "run"
        assert_eq!(a[2], "run");
    }
}
