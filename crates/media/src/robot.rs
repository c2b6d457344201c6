//! The web-robot corpus simulator.
//!
//! The demo paper crawled real images; offline we *simulate* the crawl.
//! The simulator's one job is to produce a corpus in which text and visual
//! content are statistically correlated, because that correlation is what
//! the association thesaurus mines and what dual-coding retrieval exploits.
//! Each image is drawn from a **theme** that fixes
//!
//! * a colour palette (drives the colour-histogram features),
//! * a texture orientation and frequency (drives the Gabor/GLCM/Tamura
//!   features), and
//! * an annotation vocabulary (drives the text channel).
//!
//! A configurable fraction of images is crawled without annotation — those
//! can only be found through the visual channel, which is the paper's
//! motivating scenario.

use crate::image::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A content theme coupling visual appearance and vocabulary.
#[derive(Debug, Clone)]
pub struct Theme {
    /// Theme name (also the ground-truth relevance label).
    pub name: &'static str,
    /// Dominant palette (three RGB anchors).
    pub palette: [[u8; 3]; 3],
    /// Texture orientation in radians.
    pub orientation: f64,
    /// Texture spatial frequency (cycles per pixel).
    pub frequency: f64,
    /// Annotation vocabulary, most characteristic first.
    pub vocab: &'static [&'static str],
}

/// The built-in themes of the simulated library.
pub fn default_themes() -> Vec<Theme> {
    vec![
        Theme {
            name: "sunset",
            palette: [[235, 110, 40], [250, 180, 60], [120, 40, 80]],
            orientation: 0.0,
            frequency: 0.08,
            vocab: &["sunset", "orange", "horizon", "glow", "evening", "sky", "dusk", "warm"],
        },
        Theme {
            name: "forest",
            palette: [[30, 90, 40], [60, 130, 50], [20, 50, 25]],
            orientation: 1.57,
            frequency: 0.25,
            vocab: &["forest", "tree", "green", "leaf", "moss", "trail", "wood", "fern"],
        },
        Theme {
            name: "ocean",
            palette: [[25, 70, 160], [60, 130, 200], [230, 240, 250]],
            orientation: 0.0,
            frequency: 0.18,
            vocab: &["ocean", "wave", "blue", "water", "sea", "surf", "tide", "foam"],
        },
        Theme {
            name: "desert",
            palette: [[210, 170, 110], [235, 200, 140], [180, 130, 80]],
            orientation: 0.4,
            frequency: 0.05,
            vocab: &["desert", "sand", "dune", "arid", "camel", "dry", "heat", "oasis"],
        },
        Theme {
            name: "city",
            palette: [[90, 90, 100], [160, 160, 170], [40, 40, 55]],
            orientation: 1.57,
            frequency: 0.45,
            vocab: &["city", "building", "street", "skyline", "urban", "light", "tower", "night"],
        },
        Theme {
            name: "snow",
            palette: [[235, 240, 250], [200, 215, 235], [150, 170, 200]],
            orientation: 0.8,
            frequency: 0.12,
            vocab: &["snow", "white", "winter", "ice", "mountain", "cold", "frost", "peak"],
        },
    ]
}

/// One crawled item: a URL, the image, an optional annotation, and the
/// ground-truth theme (used only for evaluation, never by the system).
#[derive(Debug, Clone)]
pub struct CrawledImage {
    /// Source URL on the (simulated) web.
    pub url: String,
    /// The image itself.
    pub image: Image,
    /// Manual annotation; `None` for the un-annotated fraction.
    pub annotation: Option<String>,
    /// Ground-truth theme index (into the robot's theme list).
    pub theme: usize,
}

/// Configuration of the simulated crawl.
#[derive(Debug, Clone)]
pub struct RobotConfig {
    /// Number of images to crawl.
    pub n_images: usize,
    /// Image side length in pixels.
    pub image_size: usize,
    /// Fraction of images crawled *without* annotation.
    pub unannotated_fraction: f64,
    /// RNG seed — the whole corpus is deterministic given this.
    pub seed: u64,
}

impl Default for RobotConfig {
    fn default() -> Self {
        RobotConfig { n_images: 60, image_size: 32, unannotated_fraction: 0.3, seed: 42 }
    }
}

/// The corpus simulator.
pub struct WebRobot {
    themes: Vec<Theme>,
    config: RobotConfig,
}

impl WebRobot {
    /// A robot over the default themes.
    pub fn new(config: RobotConfig) -> WebRobot {
        WebRobot { themes: default_themes(), config }
    }

    /// The theme list (for evaluation).
    pub fn themes(&self) -> &[Theme] {
        &self.themes
    }

    /// Run the crawl.
    ///
    /// Theme assignment is *stratified*: every theme appears ⌊n/t⌋ or
    /// ⌈n/t⌉ times in a seed-determined order. Independent per-image theme
    /// draws can starve a theme entirely on small corpora, which would
    /// leave its vocabulary unreachable and its ground-truth relevance set
    /// empty — stratification keeps every theme represented while the
    /// per-image content stays random.
    pub fn crawl(&self) -> Vec<CrawledImage> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut schedule: Vec<usize> =
            (0..self.config.n_images).map(|i| i % self.themes.len()).collect();
        // Fisher–Yates shuffle, driven by the corpus seed
        for i in (1..schedule.len()).rev() {
            let j = rng.gen_range(0..=i);
            schedule.swap(i, j);
        }
        schedule
            .into_iter()
            .enumerate()
            .map(|(i, theme_idx)| {
                let theme = &self.themes[theme_idx];
                let image = render_theme_image(theme, self.config.image_size, &mut rng);
                let annotation = if rng.gen::<f64>() < self.config.unannotated_fraction {
                    None
                } else {
                    Some(generate_annotation(theme, &mut rng))
                };
                CrawledImage {
                    url: format!("http://library.example/{}/{i}.png", theme.name),
                    image,
                    annotation,
                    theme: theme_idx,
                }
            })
            .collect()
    }
}

/// Paint a themed image: palette gradient + oriented grating + blobs +
/// pixel noise.
fn render_theme_image(theme: &Theme, size: usize, rng: &mut StdRng) -> Image {
    let mut img = Image::new(size, size);
    let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
    let (sin_o, cos_o) = theme.orientation.sin_cos();
    for y in 0..size {
        for x in 0..size {
            // vertical palette gradient between anchors 0 and 1
            let t = y as f64 / size.max(1) as f64;
            let base = lerp_rgb(theme.palette[0], theme.palette[1], t);
            // oriented sinusoidal grating modulates brightness
            let u = x as f64 * cos_o + y as f64 * sin_o;
            let grating = (std::f64::consts::TAU * theme.frequency * u + phase).sin() * 28.0;
            let noise = rng.gen_range(-10.0..10.0);
            let px = [
                clamp_u8(base[0] as f64 + grating + noise),
                clamp_u8(base[1] as f64 + grating + noise),
                clamp_u8(base[2] as f64 + grating + noise),
            ];
            img.set(x, y, px);
        }
    }
    // a few blobs of the accent colour
    for _ in 0..rng.gen_range(2..5) {
        let cx = rng.gen_range(0..size);
        let cy = rng.gen_range(0..size);
        let r = rng.gen_range(2..size.max(4) / 3);
        for y in cy.saturating_sub(r)..(cy + r).min(size) {
            for x in cx.saturating_sub(r)..(cx + r).min(size) {
                let dx = x as f64 - cx as f64;
                let dy = y as f64 - cy as f64;
                if dx * dx + dy * dy <= (r * r) as f64 {
                    img.set(x, y, theme.palette[2]);
                }
            }
        }
    }
    img
}

/// Sample an annotation: characteristic theme words plus global noise.
fn generate_annotation(theme: &Theme, rng: &mut StdRng) -> String {
    const FILLER: &[&str] =
        &["photo", "picture", "view", "beautiful", "image", "scene", "taken", "shot"];
    let n_theme_words = rng.gen_range(3..=5);
    let n_filler = rng.gen_range(1..=3);
    let mut words = Vec::with_capacity(n_theme_words + n_filler);
    for _ in 0..n_theme_words {
        // geometric-ish bias towards the most characteristic words
        let idx = (rng.gen::<f64>() * rng.gen::<f64>() * theme.vocab.len() as f64) as usize;
        words.push(theme.vocab[idx.min(theme.vocab.len() - 1)]);
    }
    for _ in 0..n_filler {
        words.push(FILLER[rng.gen_range(0..FILLER.len())]);
    }
    words.join(" ")
}

fn lerp_rgb(a: [u8; 3], b: [u8; 3], t: f64) -> [u8; 3] {
    [
        clamp_u8(a[0] as f64 + (b[0] as f64 - a[0] as f64) * t),
        clamp_u8(a[1] as f64 + (b[1] as f64 - a[1] as f64) * t),
        clamp_u8(a[2] as f64 + (b[2] as f64 - a[2] as f64) * t),
    ]
}

fn clamp_u8(v: f64) -> u8 {
    v.clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_is_deterministic() {
        let cfg = RobotConfig { n_images: 10, ..Default::default() };
        let a = WebRobot::new(cfg.clone()).crawl();
        let b = WebRobot::new(cfg).crawl();
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.annotation, y.annotation);
            assert_eq!(x.image, y.image);
            assert_eq!(x.theme, y.theme);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WebRobot::new(RobotConfig { seed: 1, ..Default::default() }).crawl();
        let b = WebRobot::new(RobotConfig { seed: 2, ..Default::default() }).crawl();
        assert!(a.iter().zip(&b).any(|(x, y)| x.image != y.image));
    }

    #[test]
    fn unannotated_fraction_is_respected() {
        let cfg = RobotConfig { n_images: 200, unannotated_fraction: 0.3, ..Default::default() };
        let corpus = WebRobot::new(cfg).crawl();
        let missing = corpus.iter().filter(|c| c.annotation.is_none()).count();
        let frac = missing as f64 / 200.0;
        assert!((0.15..=0.45).contains(&frac), "fraction {frac}");
        // all-annotated and none-annotated configurations
        let all = WebRobot::new(RobotConfig {
            n_images: 20,
            unannotated_fraction: 0.0,
            ..Default::default()
        })
        .crawl();
        assert!(all.iter().all(|c| c.annotation.is_some()));
    }

    #[test]
    fn annotations_use_theme_vocabulary() {
        let robot = WebRobot::new(RobotConfig { n_images: 50, ..Default::default() });
        let corpus = robot.crawl();
        let themes = robot.themes();
        for c in corpus.iter().filter(|c| c.annotation.is_some()) {
            let ann = c.annotation.as_ref().unwrap();
            let vocab = themes[c.theme].vocab;
            let hits = ann.split(' ').filter(|w| vocab.contains(w)).count();
            assert!(hits >= 3, "annotation '{ann}' lacks theme words");
        }
    }

    #[test]
    fn themed_images_have_distinct_palettes() {
        let themes = default_themes();
        let mut rng = StdRng::seed_from_u64(7);
        let sunset = render_theme_image(&themes[0], 32, &mut rng);
        let forest = render_theme_image(&themes[1], 32, &mut rng);
        let s = sunset.mean_rgb();
        let f = forest.mean_rgb();
        // sunset is red-dominant, forest green-dominant
        assert!(s[0] > s[2], "sunset {s:?}");
        assert!(f[1] > f[0], "forest {f:?}");
    }

    #[test]
    fn urls_are_unique() {
        let corpus = WebRobot::new(RobotConfig::default()).crawl();
        let mut urls: Vec<_> = corpus.iter().map(|c| c.url.clone()).collect();
        urls.sort();
        urls.dedup();
        assert_eq!(urls.len(), corpus.len());
    }
}
