//! The demo application of Section 5: content-based image retrieval with
//! dual coding.
//!
//! A simulated web robot crawls a themed image library (some images
//! annotated, some not); the full ingest pipeline segments the images,
//! extracts two colour and four texture feature spaces, clusters each
//! space AutoClass-style into visual terms, builds
//! `ImageLibraryInternal(source, CONTREP<Text>, CONTREP<Image>)`, and
//! mines the association thesaurus. The user then issues a *textual*
//! query that retrieves *un-annotated* images through the visual channel.
//!
//! ```sh
//! cargo run --release --example image_retrieval
//! ```

use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::media::{RobotConfig, WebRobot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let robot = WebRobot::new(RobotConfig {
        n_images: 80,
        image_size: 32,
        unannotated_fraction: 0.35,
        seed: 2024,
    });
    let corpus = robot.crawl();
    let themes = robot.themes();
    println!(
        "crawled {} images ({} un-annotated)",
        corpus.len(),
        corpus.iter().filter(|c| c.annotation.is_none()).count()
    );

    let mut db = MirrorDbms::new(MirrorConfig::default());
    db.ingest(&corpus)?;

    let vocab = db.vocabulary().unwrap();
    println!("\nvisual vocabularies (AutoClass-selected sizes):");
    for space in vocab.spaces() {
        println!("  {space:<8} {} clusters", vocab.model(&space).unwrap().n_clusters());
    }

    let th = db.thesaurus().unwrap();
    println!("\nthesaurus: {} text terms associated with visual terms", th.n_terms());
    for term in ["sunset", "forest", "ocean"] {
        let assoc = th.associations(term);
        let head: Vec<String> =
            assoc.iter().take(3).map(|(v, s)| format!("{v} ({s:.3})")).collect();
        println!("  {term:<8} → {}", head.join(", "));
    }

    // ---- querying, Section 5.2 ----
    let query = "sunset glow over the horizon";
    println!("\nuser query: {query:?}\n");

    let text_only = db.query_text(query, 8)?;
    println!("text-only retrieval (annotation channel):");
    for r in &text_only {
        let d = &db.docs()[r.oid as usize];
        println!(
            "  {:.4}  {:<42} theme={} annotated={}",
            r.score,
            r.url,
            themes[d.theme].name,
            d.annotation.is_some()
        );
    }

    let dual = db.query_dual(query, 0.5, 8)?;
    println!("\ndual-coded retrieval (text + thesaurus-expanded visual):");
    for r in &dual {
        let d = &db.docs()[r.oid as usize];
        println!(
            "  {:.4}  {:<42} theme={} annotated={}",
            r.score,
            r.url,
            themes[d.theme].name,
            d.annotation.is_some()
        );
    }

    let found_unannotated =
        dual.iter().filter(|r| db.docs()[r.oid as usize].annotation.is_none()).count();
    println!(
        "\nun-annotated images surfaced by dual coding: {found_unannotated} \
         (text-only can never reach them: {})",
        text_only.iter().filter(|r| db.docs()[r.oid as usize].annotation.is_none()).count()
    );

    // precision against the simulator's ground truth
    let p_text = mirror::core::eval::precision_at_k(
        &text_only.iter().map(|r| r.oid).collect::<Vec<_>>(),
        |o| db.docs()[o as usize].theme == 0,
        8,
    );
    let p_dual = mirror::core::eval::precision_at_k(
        &dual.iter().map(|r| r.oid).collect::<Vec<_>>(),
        |o| db.docs()[o as usize].theme == 0,
        8,
    );
    println!("\nprecision@8 (sunset theme): text-only {p_text:.3}, dual {p_dual:.3}");
    Ok(())
}
