//! The closed-loop socket load: one thread and one TCP connection per
//! client, each waiting for a reply before it sends the next statement,
//! checking every reply against the oracle.

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toposem_storage::Engine;

use crate::client::Client;
use crate::hist::Histogram;
use crate::workload::{Class, ConnGen, Digest, Op, Plan};

/// One connection's operations that completed in one slice of the
/// window. The window is cut into slices so that a run can report an
/// undisturbed one: the sandbox's processor drops to about two thirds
/// of its speed for seconds at a time, and a whole-window figure moves
/// with how many such spells the window happened to catch.
#[derive(Default, Clone)]
pub struct Slice {
    pub latency: Histogram,
    /// Completion times of the first and last operation, from the
    /// window's start.
    pub first: Duration,
    pub last: Duration,
}

impl Slice {
    /// Operations per second between the first and the last completion:
    /// unlike a count per slice length it is not a multiple of anything.
    pub fn rate(&self) -> f64 {
        let n = self.latency.count();
        if n < 2 || self.last <= self.first {
            return 0.0;
        }
        (n - 1) as f64 / (self.last - self.first).as_secs_f64()
    }
}

/// What one connection measured inside the window.
#[derive(Default)]
pub struct ConnStats {
    pub read: Histogram,
    pub write: Histogram,
    pub attempted: u64,
    pub failed: u64,
    pub reply_bytes: u64,
    /// Field-value bytes of acknowledged writes.
    pub user_bytes: u64,
    pub slices: Vec<Slice>,
}

/// A write acknowledged at `at`, when the primary's log stood at `lsn`:
/// what the replication-lag monitor waits for the follower to reach.
pub struct WriteAck {
    pub at: Instant,
    pub lsn: u64,
}

/// Where to report acknowledged writes (traced `replicated_rw` only):
/// the primary, for its log position, and the monitor's channel.
pub type AckSink = (Arc<Engine>, Sender<WriteAck>);

/// Slices a window of this length is cut into: one per second.
pub fn slice_count(window: Duration) -> usize {
    (window.as_secs_f64().round() as usize).max(1)
}

/// Sends `op` and checks each reply. Returns `(all replies correct,
/// reply bytes)`; an I/O error means the connection is unusable.
fn perform(client: &mut Client, op: &Op) -> io::Result<(bool, u64)> {
    let mut correct = true;
    let mut bytes = 0;
    for stmt in &op.stmts {
        let mut got = Digest::default();
        let (head, n) = client.request(&stmt.text, |line| got.push(line))?;
        bytes += n as u64;
        correct &= stmt.expect.matches(head.ok, &head.info, &got);
    }
    Ok((correct, bytes))
}

fn client_loop(
    mut client: Client,
    mut gen: ConnGen,
    window: (Instant, Instant),
    acks: Option<AckSink>,
) -> io::Result<(ConnStats, ConnGen)> {
    let (window_start, window_end) = window;
    let slices = slice_count(window_end - window_start);
    let slice_len = (window_end - window_start) / slices as u32;
    let mut stats = ConnStats {
        slices: vec![Slice::default(); slices],
        ..ConnStats::default()
    };
    loop {
        let t0 = Instant::now();
        if t0 >= window_end {
            break;
        }
        let op = gen.next_op();
        let (correct, bytes) = perform(&mut client, &op)?;
        let t1 = Instant::now();
        if op.class == Class::Write {
            if let Some((primary, tx)) = &acks {
                if let Some(lsn) = primary.wal_next_lsn() {
                    // The monitor outlives the clients; a closed channel
                    // only means it gave up on a stuck follower, which
                    // verification reports.
                    let _ = tx.send(WriteAck { at: t1, lsn });
                }
            }
        }
        if t0 < window_start {
            // Warm-up: replies are still checked, but a miss before the
            // window is reported as a miss inside it.
            if !correct {
                stats.attempted += 1;
                stats.failed += 1;
            }
            continue;
        }
        stats.attempted += 1;
        stats.reply_bytes += bytes;
        if !correct {
            stats.failed += 1;
            continue;
        }
        let ns = (t1 - t0).as_nanos() as u64;
        let done = t1 - window_start;
        let i = ((done.as_secs_f64() / slice_len.as_secs_f64()) as usize).min(slices - 1);
        let slice = &mut stats.slices[i];
        if slice.latency.count() == 0 {
            slice.first = done;
        }
        slice.last = done;
        slice.latency.record(ns);
        match op.class {
            Class::Read => stats.read.record(ns),
            Class::Write => {
                stats.write.record(ns);
                stats.user_bytes += op.user_bytes;
            }
        }
    }
    Ok((stats, gen))
}

/// Runs the workload over real sockets: `warmup` unmeasured, then
/// `window` measured. `at_window_edge` runs on the calling thread at
/// the start and the end of the window (counter samples). Returns each
/// connection's measurements and its generator (whose state says what
/// the database must now contain).
pub fn run_load(
    addr: SocketAddr,
    plan: &Arc<Plan>,
    warmup: Duration,
    window: Duration,
    acks: Option<AckSink>,
    mut at_window_edge: impl FnMut(),
) -> io::Result<Vec<(ConnStats, ConnGen)>> {
    let conns = plan.kind.connections();
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<_>>()?;
    let window_start = Instant::now() + warmup;
    let window_end = window_start + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let gen = ConnGen::new(Arc::clone(plan), i);
                let sink = acks.clone();
                s.spawn(move || client_loop(client, gen, (window_start, window_end), sink))
            })
            .collect();
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        at_window_edge();
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        let results: io::Result<Vec<_>> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        at_window_edge();
        results
    })
}
