//! Daemon lifecycle: spawn, run, count, shut down.

use crate::bus::{Bus, Envelope, Message};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A party on the bus. Daemons receive every envelope published to any of
/// their subscribed topics, in arrival order, on their own thread.
pub trait Daemon: Send {
    /// Unique daemon name (appears as the `from` of its publications).
    fn name(&self) -> String;
    /// Topics this daemon subscribes to.
    fn subscriptions(&self) -> Vec<String>;
    /// Handle one envelope; publish results through `bus`.
    fn handle(&mut self, envelope: Envelope, bus: &Bus);
}

/// A running daemon: its name, direct inbox, and thread handle.
type DaemonHandle = (String, Sender<Envelope>, JoinHandle<()>);

/// Owns the bus and the daemon threads.
pub struct DaemonRuntime {
    bus: Arc<Bus>,
    daemons: Mutex<Vec<DaemonHandle>>,
    processed: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

impl DaemonRuntime {
    /// Create a runtime with a fresh bus.
    pub fn new() -> Self {
        DaemonRuntime {
            bus: Arc::new(Bus::new()),
            daemons: Mutex::new(Vec::new()),
            processed: Mutex::new(HashMap::new()),
        }
    }

    /// The shared bus.
    pub fn bus(&self) -> &Arc<Bus> {
        &self.bus
    }

    /// Attach a daemon: create its inbox, subscribe it to its topics, and
    /// start its thread. Daemons can be attached at any time — this is the
    /// paper's run-time extensibility.
    pub fn spawn(&self, mut daemon: Box<dyn Daemon>) -> String {
        let name = daemon.name();
        let (tx, rx) = unbounded::<Envelope>();
        for topic in daemon.subscriptions() {
            self.bus.attach(&topic, tx.clone());
        }
        let counter = Arc::new(AtomicU64::new(0));
        self.processed.lock().insert(name.clone(), Arc::clone(&counter));
        let bus = Arc::clone(&self.bus);
        let handle = std::thread::spawn(move || {
            while let Ok(env) = rx.recv() {
                if matches!(env.msg, Message::Shutdown) {
                    break;
                }
                daemon.handle(env, &bus);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        self.daemons.lock().push((name.clone(), tx, handle));
        name
    }

    /// Names of running daemons.
    pub fn daemon_names(&self) -> Vec<String> {
        self.daemons.lock().iter().map(|(n, _, _)| n.clone()).collect()
    }

    /// Messages processed per daemon.
    pub fn processed_counts(&self) -> HashMap<String, u64> {
        self.processed.lock().iter().map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed))).collect()
    }

    /// Drain the pipeline and stop it: in spawn order, send `Shutdown` to
    /// a daemon's inbox and join its thread before the next one is told.
    /// A daemon handles every envelope queued ahead of its `Shutdown`, so
    /// everything an earlier stage published reaches the later stages
    /// before they stop, when stages are spawned upstream first. The
    /// runtime can keep being used afterwards (daemons list is emptied).
    pub fn shutdown(&self) {
        let mut daemons = self.daemons.lock();
        for (_, tx, handle) in daemons.drain(..) {
            let _ = tx.send(Envelope { from: "runtime".into(), msg: Message::Shutdown });
            let _ = handle.join();
        }
    }
}

impl Default for DaemonRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for DaemonRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Echoes every crawled image back as a segmented message.
    struct Echo {
        id: usize,
    }

    impl Daemon for Echo {
        fn name(&self) -> String {
            format!("echo-{}", self.id)
        }

        fn subscriptions(&self) -> Vec<String> {
            vec!["in".to_string()]
        }

        fn handle(&mut self, envelope: Envelope, bus: &Bus) {
            if let Message::ImageCrawled { url, .. } = envelope.msg {
                bus.publish("out", &self.name(), Message::ImageSegmented { url, segments: vec![] });
            }
        }
    }

    #[test]
    fn daemon_processes_and_publishes() {
        let rt = DaemonRuntime::new();
        let out = rt.bus().subscribe("out");
        rt.spawn(Box::new(Echo { id: 0 }));
        rt.bus().publish(
            "in",
            "test",
            Message::ImageCrawled { url: "u1".into(), blob: vec![], annotation: None },
        );
        let env = out.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(matches!(env.msg, Message::ImageSegmented { .. }));
        assert_eq!(env.from, "echo-0");
        rt.shutdown();
        assert_eq!(rt.processed_counts()["echo-0"], 1);
    }

    #[test]
    fn daemons_can_be_added_at_runtime() {
        let rt = DaemonRuntime::new();
        let out = rt.bus().subscribe("out");
        rt.spawn(Box::new(Echo { id: 0 }));
        rt.bus().publish(
            "in",
            "t",
            Message::ImageCrawled { url: "a".into(), blob: vec![], annotation: None },
        );
        let _ = out.recv_timeout(Duration::from_secs(2)).unwrap();
        // attach a second daemon while the system is live
        rt.spawn(Box::new(Echo { id: 1 }));
        assert_eq!(rt.daemon_names().len(), 2);
        rt.bus().publish(
            "in",
            "t",
            Message::ImageCrawled { url: "b".into(), blob: vec![], annotation: None },
        );
        // both daemons now answer → two publications for the second image
        let mut got = 0;
        while out.recv_timeout(Duration::from_millis(500)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 2);
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_threads() {
        let rt = DaemonRuntime::new();
        rt.spawn(Box::new(Echo { id: 7 }));
        rt.shutdown();
        assert!(rt.daemon_names().is_empty());
        // idempotent
        rt.shutdown();
    }

    /// A slow first stage: forwards each crawled image to a second topic
    /// after a pause, so its inbox is still full when shutdown begins.
    struct Slow;

    impl Daemon for Slow {
        fn name(&self) -> String {
            "slow".to_string()
        }

        fn subscriptions(&self) -> Vec<String> {
            vec!["in".to_string()]
        }

        fn handle(&mut self, envelope: Envelope, bus: &Bus) {
            std::thread::sleep(Duration::from_millis(5));
            bus.publish("mid", &self.name(), envelope.msg);
        }
    }

    /// The second stage: echoes what the slow stage forwarded.
    struct Relay;

    impl Daemon for Relay {
        fn name(&self) -> String {
            "relay".to_string()
        }

        fn subscriptions(&self) -> Vec<String> {
            vec!["mid".to_string()]
        }

        fn handle(&mut self, envelope: Envelope, bus: &Bus) {
            if let Message::ImageCrawled { url, .. } = envelope.msg {
                bus.publish("out", &self.name(), Message::ImageSegmented { url, segments: vec![] });
            }
        }
    }

    #[test]
    fn shutdown_drains_the_pipeline_in_spawn_order() {
        let rt = DaemonRuntime::new();
        let out = rt.bus().subscribe("out");
        rt.spawn(Box::new(Slow));
        rt.spawn(Box::new(Relay));
        for i in 0..20 {
            rt.bus().publish(
                "in",
                "t",
                Message::ImageCrawled { url: format!("u{i}"), blob: vec![], annotation: None },
            );
        }
        // no barrier: shutdown alone must let every forwarded image through
        rt.shutdown();
        let urls: Vec<String> = std::iter::from_fn(|| out.try_recv().ok())
            .filter_map(|env| match env.msg {
                Message::ImageSegmented { url, .. } => Some(url),
                _ => None,
            })
            .collect();
        let expected: Vec<String> = (0..20).map(|i| format!("u{i}")).collect();
        assert_eq!(urls, expected);
        assert_eq!(rt.processed_counts()["relay"], 20);
    }
}
