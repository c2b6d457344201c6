//! Load generation against a [`MirrorServer`] — a closed loop of blocking
//! clients and an open loop on a seeded arrival schedule — and the
//! statistics every timing is reported through.
//!
//! * **Closed**: `clients` threads each send their next request only when
//!   the previous one has answered — callers that wait for a reply. A slow
//!   system receives less load; the figure of merit is ops per second.
//! * **Open**: the generator submits on the schedule whether or not earlier
//!   requests have answered — independent users. Every latency is timed
//!   from when the request was *due*, so a stall is charged to every
//!   request it delays, and the generator's own lateness is reported.
//!   [`COLLECTORS`] collector threads take the pending answers round-robin
//!   and each waits for its own *in submission order* (the server's handle
//!   can only be waited on, not polled): a fast request that finishes while
//!   its collector still waits on an earlier, slower one is observed late.
//!   The bias inflates the latency of a fast request whose eighth
//!   predecessor is still running; it never hides a slow one.
//!
//! **Windows.** The closed phase is cut into windows of consecutive ops (24,
//! or fewer of at least 300 ops; one merge period for `write_burst`), and
//! every reported timing is the *best window's*: throughput the highest of the windows' rates,
//! latency the lowest of the windows' percentiles. The host this runs on is
//! shared, its interference only ever slows a run down, and it comes in
//! spells of seconds; a statistic over the whole phase inherits every
//! spell, the best window is the one the host left alone.

use mirror_core::query::RankedResult;
use mirror_core::serve::{MirrorServer, RetrievalRequest};
use mirror_core::{RetrievalError, RetrievalResult, Retriever};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Threads that wait on the open loop's pending answers.
pub const COLLECTORS: usize = 8;

/// How one op ended.
#[derive(Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered, and the answer passed the check.
    Ok,
    /// Errored, or answered wrongly.
    Bad,
    /// Refused at admission.
    Shed,
}

/// What one timed phase saw.
#[derive(Default)]
pub struct Phase {
    /// Latency in ms of every op that completed with a plausible answer,
    /// paired with the offset in seconds at which it started (closed) or
    /// was due (open).
    pub ok: Vec<(f64, f64)>,
    /// Ops offered.
    pub offered: u64,
    /// Ops shed at admission.
    pub shed: u64,
    /// Ops that errored or answered implausibly.
    pub bad: u64,
    /// Wall time of the phase in seconds.
    pub elapsed_s: f64,
    /// How late the generator submitted each op, in ms (open loop only).
    pub late_ms: Vec<f64>,
}

/// One window of consecutive ops of a phase.
struct Window {
    /// Ops completed per second of the window's wall time.
    rate: f64,
    /// The window's latencies in ms, ascending.
    lat_ms: Vec<f64>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.shed + self.bad
    }

    pub fn record(&mut self, at_s: f64, lat_ms: f64, outcome: Outcome) {
        self.offered += 1;
        match outcome {
            Outcome::Ok => self.ok.push((at_s, lat_ms)),
            Outcome::Bad => self.bad += 1,
            Outcome::Shed => self.shed += 1,
        }
    }

    /// All latencies in ms, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.ok.iter().map(|&(_, l)| l).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn absorb(&mut self, part: Phase) {
        self.ok.extend(part.ok);
        self.offered += part.offered;
        self.shed += part.shed;
        self.bad += part.bad;
    }

    /// Cut the phase into windows of `per` consecutive ops, in the order
    /// they completed; a trailing partial window is dropped, and a phase
    /// shorter than one window is one window.
    fn windows(&self, per: usize) -> Vec<Window> {
        let mut done: Vec<(f64, f64)> =
            self.ok.iter().map(|&(at, lat)| (at + lat / 1e3, lat)).collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let per = per.clamp(1, done.len().max(1));
        let mut prev_end = 0.0;
        done.chunks_exact(per)
            .map(|chunk| {
                let end = chunk[chunk.len() - 1].0;
                let mut lat_ms: Vec<f64> = chunk.iter().map(|&(_, l)| l).collect();
                lat_ms.sort_by(f64::total_cmp);
                let rate = chunk.len() as f64 / (end - prev_end).max(1e-9);
                prev_end = end;
                Window { rate, lat_ms }
            })
            .collect()
    }
}

/// A phase read through windows of `per` ops each.
pub struct Windowed<'a> {
    phase: &'a Phase,
    pub per: usize,
}

impl<'a> Windowed<'a> {
    pub fn new(phase: &'a Phase, per: usize) -> Self {
        Windowed { phase, per: per.max(1) }
    }

    /// Throughput: the best window's rate — what the system sustains when
    /// the host leaves it alone.
    pub fn best_rate(&self) -> f64 {
        self.phase.windows(self.per).iter().map(|w| w.rate).fold(0.0, f64::max)
    }

    /// Latency at percentile `p`: the lowest, across windows, of each
    /// window's `p`-th percentile.
    pub fn quiet_latency(&self, p: f64) -> f64 {
        let windows = self.phase.windows(self.per);
        let best = windows.iter().map(|w| percentile(&w.lat_ms, p)).fold(f64::MAX, f64::min);
        if windows.is_empty() {
            0.0
        } else {
            best
        }
    }

    /// Ops per second and latency percentile `p` over the whole phase,
    /// spells of interference included — printed beside the windowed
    /// figures.
    pub fn whole(&self, p: f64) -> (f64, f64) {
        let lat = self.phase.latencies();
        (lat.len() as f64 / self.phase.elapsed_s.max(1e-9), percentile(&lat, p))
    }
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 0.5)
}

/// The cheap per-answer check of the timed phases: at most k hits, positive
/// scores in rank order, the filter respected. (Full answers are checked
/// against a reference engine on a sample, outside the timed phases.)
pub fn plausible(req: &RetrievalRequest, hits: &[RankedResult]) -> bool {
    hits.len() <= req.k
        && hits.iter().all(|h| h.score > 0.0)
        && hits.windows(2).all(|w| w[0].score >= w[1].score)
        && req.filter.as_ref().is_none_or(|f| hits.iter().all(|h| h.url.contains(f.as_str())))
}

fn classify(req: &RetrievalRequest, res: &RetrievalResult<Vec<RankedResult>>) -> Outcome {
    match res {
        Ok(hits) if plausible(req, hits) => Outcome::Ok,
        Err(RetrievalError::Overloaded { .. }) => Outcome::Shed,
        _ => Outcome::Bad,
    }
}

/// Closed loop: `clients` blocking clients for `seconds`. Requests are
/// taken from `reqs` in stream order through the shared `cursor`.
pub fn closed_loop<R: Retriever + 'static>(
    server: &MirrorServer<R>,
    reqs: &[RetrievalRequest],
    cursor: &AtomicUsize,
    clients: usize,
    seconds: f64,
) -> Phase {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut part = Phase::default();
                    loop {
                        let start = Instant::now();
                        if start >= deadline {
                            return part;
                        }
                        let req = &reqs[cursor.fetch_add(1, Ordering::Relaxed) % reqs.len()];
                        let res = server.query(req);
                        let lat_ms = start.elapsed().as_secs_f64() * 1e3;
                        part.record((start - t0).as_secs_f64(), lat_ms, classify(req, &res));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase { elapsed_s: t0.elapsed().as_secs_f64(), ..Phase::default() };
    parts.into_iter().for_each(|p| phase.absorb(p));
    phase
}

/// Sleep until `target`; returns how late (in ms) the caller woke.
pub fn sleep_until(target: Instant) -> f64 {
    let now = Instant::now();
    if now < target {
        std::thread::sleep(target - now);
    }
    Instant::now().saturating_duration_since(target).as_secs_f64() * 1e3
}

/// Open loop: submit request `first + i` at `arrivals[i]` seconds after
/// the phase starts; latency runs from the due time to the moment a
/// collector sees the answer.
pub fn open_loop<R: Retriever + 'static>(
    server: &MirrorServer<R>,
    reqs: &[RetrievalRequest],
    first: usize,
    arrivals: &[f64],
) -> Phase {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (senders, collectors): (Vec<_>, Vec<_>) = (0..COLLECTORS)
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                let collector = s.spawn(move || {
                    let mut part = Phase::default();
                    for (pending, req, due, target) in rx {
                        let pending: mirror_core::serve::PendingRetrieval = pending;
                        let target: Instant = target;
                        let res = pending.wait();
                        let lat_ms = target.elapsed().as_secs_f64() * 1e3;
                        part.record(due, lat_ms, classify(req, &res));
                    }
                    part
                });
                (tx, collector)
            })
            .unzip();
        let mut phase = Phase::default();
        for (i, &due) in arrivals.iter().enumerate() {
            let target = t0 + Duration::from_secs_f64(due);
            phase.late_ms.push(sleep_until(target));
            let req = &reqs[(first + i) % reqs.len()];
            let pending = server.submit(req.clone());
            senders[i % COLLECTORS].send((pending, req, due, target)).expect("collector is alive");
        }
        drop(senders);
        for c in collectors {
            phase.absorb(c.join().expect("collector thread panicked"));
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        phase
    })
}
