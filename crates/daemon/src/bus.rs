//! The typed message bus — the CORBA substitution.
//!
//! Topic-based publish/subscribe over crossbeam channels. Publishing
//! clones the envelope to every subscriber inbox; request/reply (used by
//! the media server) carries a reply sender inside the message, mirroring
//! CORBA's callback objects.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;

/// One image segment shipped over the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentBlob {
    /// Segment index within its image.
    pub index: usize,
    /// Rectangle in source coordinates.
    pub rect: (usize, usize, usize, usize),
    /// Encoded pixels ([`media::Image::to_blob`] format).
    pub blob: Vec<u8>,
}

/// Messages that flow between the parties of Figure 1.
#[derive(Debug, Clone)]
pub enum Message {
    /// A crawled image enters the system.
    ImageCrawled {
        /// Source URL.
        url: String,
        /// Encoded pixels.
        blob: Vec<u8>,
        /// Optional manual annotation.
        annotation: Option<String>,
    },
    /// An image was segmented.
    ImageSegmented {
        /// Source URL.
        url: String,
        /// The segments.
        segments: Vec<SegmentBlob>,
    },
    /// A feature vector was extracted from one segment.
    FeaturesExtracted {
        /// Source URL.
        url: String,
        /// Segment index.
        segment: usize,
        /// Feature-space name.
        space: String,
        /// The vector.
        vector: Vec<f64>,
    },
    /// Store a blob on the media server.
    StoreMedia {
        /// Key (URL).
        url: String,
        /// Payload.
        blob: Vec<u8>,
    },
    /// Fetch a blob from the media server; the reply sender receives
    /// `None` when the key is unknown.
    FetchMedia {
        /// Key (URL).
        url: String,
        /// Where to deliver the payload.
        reply: Sender<Option<Vec<u8>>>,
    },
    /// Ask the thesaurus daemon to expand a text query into visual terms
    /// (see [`crate::formulation`]).
    FormulateQuery(crate::formulation::FormulationRequest),
    /// Orderly shutdown of a daemon's thread.
    Shutdown,
}

/// A message plus its sender's name.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Name of the publishing party.
    pub from: String,
    /// The payload.
    pub msg: Message,
}

/// The topic-based bus.
#[derive(Default)]
pub struct Bus {
    topics: RwLock<HashMap<String, Vec<Sender<Envelope>>>>,
}

impl Bus {
    /// Create an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an existing inbox sender on a topic.
    pub fn attach(&self, topic: &str, inbox: Sender<Envelope>) {
        self.topics.write().entry(topic.to_string()).or_default().push(inbox);
    }

    /// Create a fresh subscription: returns the receiving end of a new
    /// inbox attached to `topic`.
    pub fn subscribe(&self, topic: &str) -> Receiver<Envelope> {
        let (tx, rx) = unbounded();
        self.attach(topic, tx);
        rx
    }

    /// Publish a message to all subscribers of a topic; returns the number
    /// of inboxes reached. Dead inboxes are pruned.
    pub fn publish(&self, topic: &str, from: &str, msg: Message) -> usize {
        let mut delivered = 0;
        let mut topics = self.topics.write();
        if let Some(subs) = topics.get_mut(topic) {
            subs.retain(|tx| {
                let ok = tx.send(Envelope { from: from.to_string(), msg: msg.clone() }).is_ok();
                if ok {
                    delivered += 1;
                }
                ok
            });
        }
        delivered
    }

    /// All topics with at least one subscriber, sorted.
    pub fn topics(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .topics
            .read()
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(t, _)| t.clone())
            .collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus").field("topics", &self.topics()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_all_subscribers() {
        let bus = Bus::new();
        let a = bus.subscribe("t");
        let b = bus.subscribe("t");
        let n = bus.publish("t", "test", Message::Shutdown);
        assert_eq!(n, 2);
        assert!(matches!(a.recv().unwrap().msg, Message::Shutdown));
        assert!(matches!(b.recv().unwrap().msg, Message::Shutdown));
    }

    #[test]
    fn publish_to_empty_topic_is_zero() {
        let bus = Bus::new();
        assert_eq!(bus.publish("nobody", "x", Message::Shutdown), 0);
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let bus = Bus::new();
        {
            let _dropped = bus.subscribe("t");
        }
        {
            let _dropped = bus.subscribe("gone");
        }
        let live = bus.subscribe("t");
        // a dead inbox stays listed until a publish to its topic prunes it
        assert_eq!(bus.topics(), vec!["gone".to_string(), "t".to_string()]);
        assert_eq!(bus.publish("t", "x", Message::Shutdown), 1);
        assert_eq!(bus.publish("gone", "x", Message::Shutdown), 0);
        assert_eq!(bus.topics(), vec!["t".to_string()]);
        assert!(live.try_recv().is_ok());
    }

    #[test]
    fn envelopes_carry_sender_names() {
        let bus = Bus::new();
        let rx = bus.subscribe("t");
        bus.publish(
            "t",
            "robot",
            Message::ImageCrawled { url: "u".into(), blob: vec![], annotation: None },
        );
        assert_eq!(rx.recv().unwrap().from, "robot");
    }

    #[test]
    fn request_reply_roundtrip() {
        let bus = Bus::new();
        let server_rx = bus.subscribe("media");
        let (reply_tx, reply_rx) = unbounded();
        bus.publish("media", "client", Message::FetchMedia { url: "k".into(), reply: reply_tx });
        // pretend to be the server
        if let Message::FetchMedia { reply, .. } = server_rx.recv().unwrap().msg {
            reply.send(Some(vec![1, 2, 3])).unwrap();
        }
        assert_eq!(reply_rx.recv().unwrap(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn topics_listing() {
        let bus = Bus::new();
        let _a = bus.subscribe("b-topic");
        let _b = bus.subscribe("a-topic");
        assert_eq!(bus.topics(), vec!["a-topic".to_string(), "b-topic".to_string()]);
    }
}
