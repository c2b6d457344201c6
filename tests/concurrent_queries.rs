//! Concurrency stress: one shared `MirrorDbms` snapshot under ≥ 8 threads
//! of mixed facade queries must produce exactly the single-threaded
//! results — possible because the typed serving path carries its bindings
//! as request-scoped `QueryParams` and never writes to the shared `Env`.

use mirror::core::query::RankedResult;
use mirror::core::serve::{MirrorServer, RetrievalRequest};
use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::media::{RobotConfig, WebRobot};
use std::sync::{Arc, OnceLock};

/// Compile-time proof that the snapshot and the server cross threads.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn facade_types_are_send_and_sync() {
    assert_send_sync::<MirrorDbms>();
    assert_send_sync::<MirrorServer>();
    assert_send_sync::<RetrievalRequest>();
}

/// The shared ingested node. Read-only: tests run on parallel threads and
/// only query it.
fn db() -> Arc<MirrorDbms> {
    static DB: OnceLock<Arc<MirrorDbms>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        let mut db = MirrorDbms::new(MirrorConfig::default());
        let corpus = WebRobot::new(RobotConfig {
            n_images: 48,
            image_size: 24,
            unannotated_fraction: 0.25,
            seed: 23,
        })
        .crawl();
        db.ingest(&corpus).unwrap();
        Arc::new(db)
    }))
}

/// The mixed workload: text, dual and filtered queries with varying k.
fn run_workload(db: &MirrorDbms, salt: usize) -> Vec<Vec<RankedResult>> {
    let queries = ["sunset glow evening", "forest tree moss", "ocean wave surf"];
    let q = queries[salt % queries.len()];
    vec![
        db.query_text(q, 5 + salt % 3).unwrap(),
        db.query_dual(q, 0.5, 10).unwrap(),
        db.query_text_filtered("sunset", "/sunset/", 10).unwrap(),
    ]
}

#[test]
fn eight_threads_of_mixed_queries_match_single_threaded_runs() {
    let db = db();
    // single-threaded ground truth per salt
    let expected: Vec<Vec<Vec<RankedResult>>> = (0..3).map(|s| run_workload(&db, s)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..6 {
                        let salt = (t + round) % 3;
                        let got = run_workload(&db, salt);
                        assert_eq!(got, expected[salt], "thread {t} round {round} salt {salt}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
    });
    // no request left a binding behind in the shared environment
    for name in ["q_text", "q_vis"] {
        assert!(db.env().query_binding(name).is_none(), "{name} leaked");
    }
}

#[test]
fn server_under_concurrent_clients_matches_direct_calls() {
    let db = db();
    let server = Arc::new(MirrorServer::start(Arc::clone(&db), 4));
    let expected: Vec<Vec<Vec<RankedResult>>> = (0..3).map(|s| run_workload(&db, s)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let server = Arc::clone(&server);
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..4 {
                        let salt = (c + round) % 3;
                        let q = ["sunset glow evening", "forest tree moss", "ocean wave surf"]
                            [salt % 3];
                        let got = server.query(&RetrievalRequest::text(q, 5 + salt % 3)).unwrap();
                        assert_eq!(got, expected[salt][0], "client {c} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    let stats = server.stats();
    assert_eq!(stats.served, 8 * 4);
    assert_eq!(stats.errors, 0);
    assert!(stats.throughput_per_sec > 0.0);
}
