//! Durable library: ingest once, then serve forever from disk.
//!
//! Ingest is the expensive half of the Mirror pipeline — segmentation,
//! feature extraction, clustering, thesaurus mining. The durable storage
//! tier saves its *output* (library rows, vocabulary, thesaurus) into
//! WAL-protected, checksummed 4 KiB pages so a later process cold-opens
//! the instance — deriving the inverted indexes from the rows — in
//! milliseconds and ranks bit-identically, no pixels needed.
//!
//! ```sh
//! cargo run --release --example durable_library
//! ```

use mirror::core::{MirrorDbms, Retriever};
use mirror::media::{RobotConfig, WebRobot};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("mirror-durable-demo-{}", std::process::id()));

    // --- process 1: crawl, ingest, save -------------------------------
    let corpus = WebRobot::new(RobotConfig { n_images: 64, ..Default::default() }).crawl();
    let t = Instant::now();
    let mut db = MirrorDbms::with_defaults();
    db.ingest(&corpus)?;
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    let live = db.query_text("sunset over the beach", 5)?;
    db.save(&dir)?;
    println!("ingested {} images in {ingest_ms:.0} ms and saved to {}", db.n_docs(), dir.display());

    // --- process 2 (simulated): cold open, no corpus in sight ---------
    drop(db);
    let t = Instant::now();
    let db = MirrorDbms::open(&dir)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold-opened {} docs in {open_ms:.2} ms ({:.0}× faster than ingest)\n",
        db.n_docs(),
        ingest_ms / open_ms.max(1e-6)
    );

    let reopened = db.query_text("sunset over the beach", 5)?;
    assert_eq!(live, reopened, "a reopened instance must rank bit-identically");
    println!("top-5 for \"sunset over the beach\" (bit-identical to the saved instance):");
    for hit in &reopened {
        println!("  {:.4}  {}", hit.score, hit.url);
    }

    // dual-coded retrieval works too: the association thesaurus came back
    // from disk with the instance
    let dual = db.query_dual("forest", 0.5, 3)?;
    println!("\ntop-3 dual-coded for \"forest\":");
    for hit in &dual {
        println!("  {:.4}  {}", hit.score, hit.url);
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
