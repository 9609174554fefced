//! The GRM daemon: a `GrmServer` behind a real socket.
//!
//! [`GrmListener`] accepts Unix-domain or TCP connections, decodes
//! [`crate::wire::RequestFrame`]s, drives the in-process [`GrmServer`],
//! and writes every decision to the [`crate::journal::DurableJournal`]
//! **before** the response frame leaves the process (write-ahead-of-
//! reply). Combined with [`crate::journal::FsyncPolicy::EveryOp`] this
//! gives at-most-once settlement across a kill -9: a decision a client
//! observed is durable, so a retry straddling the crash replays the
//! original decision out of the recovered dedup window instead of
//! re-executing.
//!
//! # Pipelined connections
//!
//! Each connection runs two threads. The *reader* decodes frames and
//! executes them serially in arrival order; the *writer* releases the
//! encoded replies. Splitting them means a connection can have many
//! RPCs in flight: the reader keeps executing (and appending journal
//! records) while earlier replies are still parked waiting for their
//! covering fsync. Clients multiplex by correlation id, so reply order
//! within a connection carries no meaning — the writer simply drains
//! its queue in FIFO order.
//!
//! # Group commit
//!
//! Under [`crate::journal::FsyncPolicy::Batched`] the execute path never
//! fsyncs. Every state-mutating record is appended (write-ahead) and its
//! reply is tagged with the record's LSN; a dedicated *syncer* thread
//! issues **one** fsync as soon as anything is unsynced — on a duplicate
//! fd, outside the journal lock, so execution never stalls behind the
//! disk — and advances the durable watermark. The group commit is
//! self-clocked: whatever is appended while one fsync runs forms the
//! next group, so groups grow with load and an idle daemon pays one
//! fsync's latency, with no timer and no fill threshold to tune.
//! Writers release a reply only once the watermark covers its LSN, so
//! the write-ahead-of-reply invariant (and with it at-most-once
//! settlement across kill -9) holds under group commit exactly as it
//! does under `EveryOp`; the fsync cost is simply amortized over the
//! whole group. If an fsync fails the watermark is frozen, gated replies
//! are dropped, and their connections are torn down: the client retries
//! and observes `JOURNAL_DOWN` instead of an undurable decision.
//!
//! # Duplicate suppression in the journal
//!
//! The listener keeps a live [`RecoveredState`] mirror — the exact fold
//! recovery would compute — alongside the journal. A decision whose
//! `RequestId` is already in the mirror's dedup window was answered from
//! the server's cache; journaling it again would double-apply its pool
//! effect on replay, so it is skipped. The reply to a suppressed
//! duplicate still gates on the current append cursor: the *original*
//! decision's covering fsync may be outstanding, and the duplicate must
//! not leak it early. The mirror also supplies compaction snapshots:
//! when the live segment exceeds [`ListenerConfig::compact_every`]
//! records, the journal rolls to a fresh segment seeded with the mirror
//! state and deletes the old ones.
//!
//! # Sequenced replay mode
//!
//! With [`ListenerConfig::sequenced`], request frames carry a global
//! event sequence and a [`Sequencer`] admits them strictly in order:
//! event *k* executes and journals before *k*+1 starts. This is what
//! makes a multi-process replay bit-compatible with the in-process run —
//! the GRM observes the identical event order, so every draw and every
//! admit/deny decision matches. The cursor advances as soon as the
//! record is *appended*; the reply still waits for its covering fsync,
//! so sequencing composes with group commit (execution stays totally
//! ordered while fsyncs amortize across the pipeline). Events below the
//! cursor (retries of already-applied events, including retries
//! straddling a restart) are acked without re-applying. A connection
//! must not pipeline sequenced events out of order *with each other*;
//! pipelined federation workers keep per-connection sends in ascending
//! sequence order, which is all the serial reader needs.
//!
//! Without a sequencer, connections race like the in-process
//! federation's threads do and the journal records execution order (the
//! execute+append pair is atomic under the journal lock, so the
//! recovery fold replays exactly the interleaving that happened).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use agreements_grm::{GrmError, GrmHandle, GrmServer};
use agreements_telemetry::{HistKind, Telemetry};
use parking_lot::Mutex;

use crate::frame::{encode_frame, FrameDecoder, FRAME_OVERHEAD};
use crate::journal::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, Snapshot,
};
use crate::wire::{RequestFrame, ResponseFrame, WireRequest, WireResponse};

/// How long blocked reads and sequencer waits go between checks of the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Listener tuning knobs.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Enforce global event ordering via `replay_seq` (deterministic
    /// federation replay). Off by default: normal operation lets
    /// connections race like the in-process federation's threads do.
    pub sequenced: bool,
    /// Compact the journal when the live segment exceeds this many
    /// records; `0` disables auto-compaction.
    pub compact_every: u64,
    /// Ignored: the group-commit syncer fsyncs as soon as anything is
    /// unsynced, with no hold timer (see the module docs). Kept only so
    /// callers that set it still compile.
    pub max_hold: Duration,
    /// Telemetry plane for fsync latency and frame-size histograms.
    pub telemetry: Telemetry,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            sequenced: false,
            compact_every: 8192,
            max_hold: Duration::from_millis(2),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Admits sequenced events strictly in order (see module docs).
struct SeqState {
    next: u64,
    /// The cursor event is currently executing on some connection: a
    /// second copy of the same seq (a retry racing on another socket
    /// after a reconnect) must wait for the execution to finish and then
    /// take the stale path, not execute Fresh a second time.
    claimed: bool,
}

struct Sequencer {
    state: std::sync::Mutex<SeqState>,
    cv: std::sync::Condvar,
}

enum Admission {
    /// This event is the cursor: execute and journal it.
    Fresh,
    /// Already applied before (a retry): ack idempotently.
    Stale,
    /// The listener is shutting down: drop the frame.
    Aborted,
}

impl Sequencer {
    fn new(next: u64) -> Sequencer {
        Sequencer {
            state: std::sync::Mutex::new(SeqState { next, claimed: false }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn enter(&self, seq: u64, shutdown: &AtomicBool) -> Admission {
        let mut st = self.state.lock().expect("sequencer poisoned");
        loop {
            if st.next > seq {
                return Admission::Stale;
            }
            if st.next == seq && !st.claimed {
                st.claimed = true;
                return Admission::Fresh;
            }
            if shutdown.load(Ordering::Relaxed) {
                return Admission::Aborted;
            }
            st = self.cv.wait_timeout(st, POLL).expect("sequencer poisoned").0;
        }
    }

    fn exit(&self, seq: u64) {
        let mut st = self.state.lock().expect("sequencer poisoned");
        if st.next == seq {
            st.next = seq + 1;
            st.claimed = false;
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// The group-commit watermarks: how far the journal has appended, how
/// far fsyncs cover. Replies gate on `synced`; the syncer thread waits
/// on `work` for the gap to reopen.
#[derive(Default)]
struct DurState {
    appended: u64,
    synced: u64,
    /// An fsync failed: nothing past `synced` will ever be durable.
    failed: bool,
}

struct Durability {
    state: std::sync::Mutex<DurState>,
    /// Wakes the syncer when appends arrive.
    work: std::sync::Condvar,
    /// Wakes reply gates when the durable watermark advances.
    done: std::sync::Condvar,
}

impl Durability {
    fn new() -> Durability {
        Durability {
            state: std::sync::Mutex::new(DurState::default()),
            work: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
        }
    }

    /// Fold fresh journal counters in (both watermarks only ever move
    /// forward). Returns how many records the `synced` watermark
    /// advanced over.
    fn advance(&self, appended: u64, synced: u64) -> u64 {
        self.advance_counted(appended, synced, |_| {})
    }

    /// [`Durability::advance`], handing the number of records covered to
    /// `count` before any waiter can see the new `synced` watermark.
    fn advance_counted(&self, appended: u64, synced: u64, count: impl FnOnce(u64)) -> u64 {
        let mut st = self.state.lock().expect("durability poisoned");
        if appended > st.appended {
            st.appended = appended;
            self.work.notify_one();
        }
        let covered = synced.saturating_sub(st.synced);
        count(covered);
        if covered > 0 {
            st.synced = synced;
            self.done.notify_all();
        }
        covered
    }

    fn fail(&self) {
        let mut st = self.state.lock().expect("durability poisoned");
        st.failed = true;
        drop(st);
        self.work.notify_all();
        self.done.notify_all();
    }
}

struct Shared {
    handle: GrmHandle,
    /// The journal plus its live recovery mirror; one lock so execute,
    /// append, and mirror-fold are atomic with respect to each other and
    /// to compaction — the journal records the exact execution order.
    journal: Mutex<(DurableJournal, RecoveredState)>,
    sequencer: Option<Sequencer>,
    durability: Durability,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    compact_every: u64,
    /// Frames that passed CRC but did not decode as a request.
    undecodable: AtomicU64,
    /// Completed group-commit fsyncs (syncer thread only).
    group_syncs: AtomicU64,
    /// Records covered by those fsyncs.
    group_records: AtomicU64,
}

impl Shared {
    /// Append + fold + maybe compact, under the already-held journal
    /// lock. Returns the reply's durability gate: the record's LSN —
    /// or, for a decision whose id is already in the mirror window (a
    /// duplicate answered from cache, not re-journaled), the current
    /// append cursor, which conservatively covers the original record.
    fn journal_locked(
        &self,
        guard: &mut (DurableJournal, RecoveredState),
        rec: &JournalRecord,
    ) -> io::Result<u64> {
        let (journal, mirror) = guard;
        if let JournalRecord::Decision { id: Some(id), .. } = rec {
            if mirror.dedup.iter().any(|(j, _)| j == id) {
                return Ok(journal.appended_lsn());
            }
        }
        let lsn = match journal.policy() {
            FsyncPolicy::EveryOp => {
                journal.append(rec)?;
                journal.appended_lsn()
            }
            // Group commit: append only; the syncer thread owns fsync.
            FsyncPolicy::Batched { .. } => journal.append_wal(rec)?,
        };
        mirror.apply(rec);
        if self.compact_every > 0 && journal.records_in_segment() >= self.compact_every {
            let snap = mirror.snapshot();
            journal.compact(&snap)?;
        }
        Ok(lsn)
    }

    /// Propagate the journal's LSN counters into the durability plane
    /// (call right before or after dropping the journal lock).
    fn publish_durability(&self, guard: &(DurableJournal, RecoveredState)) {
        self.durability.advance(guard.0.appended_lsn(), guard.0.synced_lsn());
    }

    /// Block until everything up to `lsn` is durable. Returns `false`
    /// when it never will be (fsync failure): the caller must drop the
    /// reply rather than leak an undurable decision. On shutdown the
    /// waiter forces a final inline sync so queued replies flush.
    fn wait_durable(&self, lsn: u64) -> bool {
        loop {
            {
                let mut st = self.durability.state.lock().expect("durability poisoned");
                loop {
                    if st.synced >= lsn {
                        return true;
                    }
                    if st.failed {
                        return false;
                    }
                    if self.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    st =
                        self.durability.done.wait_timeout(st, POLL).expect("durability poisoned").0;
                }
            }
            // Shutting down: sync inline instead of waiting for a syncer
            // that may already have exited.
            let mut guard = self.journal.lock();
            let ok = guard.0.sync().is_ok();
            let counters = (guard.0.appended_lsn(), guard.0.synced_lsn());
            drop(guard);
            self.durability.advance(counters.0, counters.1);
            if !ok {
                self.durability.fail();
                return false;
            }
        }
    }
}

/// A daemon serving one [`GrmServer`] over a socket, journaling every
/// decision before it is acknowledged. See the module docs.
pub struct GrmListener {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    syncer: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    server: Option<GrmServer>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl GrmListener {
    /// Serve `server` on a Unix-domain socket at `path`. A stale socket
    /// file from a previous (possibly killed) daemon is removed first.
    /// `journal` and `recovered` come from [`DurableJournal::open_or_create`].
    pub fn bind_uds(
        path: &Path,
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> io::Result<GrmListener> {
        crate::uds_path_check(path)?;
        if path.exists() {
            fs_remove(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let mut l = Self::assemble(server, journal, recovered, config);
        l.uds_path = Some(path.to_path_buf());
        let shared = Arc::clone(&l.shared);
        let conns = Arc::clone(&l.conns);
        l.accept = Some(thread::spawn(move || {
            accept_loop(shared, conns, move || match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_read_timeout(Some(POLL))?;
                    Ok(Some(Box::new(s) as Box<dyn Stream>))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            });
        }));
        Ok(l)
    }

    /// Serve `server` on a TCP socket; `addr` may be `"127.0.0.1:0"` to
    /// let the OS pick a port (see [`GrmListener::tcp_addr`]).
    pub fn bind_tcp(
        addr: &str,
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> io::Result<GrmListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut l = Self::assemble(server, journal, recovered, config);
        l.tcp_addr = Some(listener.local_addr()?);
        let shared = Arc::clone(&l.shared);
        let conns = Arc::clone(&l.conns);
        l.accept = Some(thread::spawn(move || {
            accept_loop(shared, conns, move || match listener.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(POLL))?;
                    Ok(Some(Box::new(s) as Box<dyn Stream>))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            });
        }));
        Ok(l)
    }

    fn assemble(
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> GrmListener {
        let sequencer = config.sequenced.then(|| Sequencer::new(recovered.next_seq));
        let policy = journal.policy();
        let shared = Arc::new(Shared {
            handle: server.handle(),
            journal: Mutex::new((journal, recovered)),
            sequencer,
            durability: Durability::new(),
            telemetry: config.telemetry,
            shutdown: AtomicBool::new(false),
            compact_every: config.compact_every,
            undecodable: AtomicU64::new(0),
            group_syncs: AtomicU64::new(0),
            group_records: AtomicU64::new(0),
        });
        let syncer = match policy {
            FsyncPolicy::EveryOp => None,
            FsyncPolicy::Batched { .. } => {
                let shared = Arc::clone(&shared);
                Some(thread::spawn(move || syncer_loop(&shared)))
            }
        };
        GrmListener {
            shared,
            accept: None,
            syncer,
            conns: Arc::new(Mutex::new(Vec::new())),
            server: Some(server),
            tcp_addr: None,
            uds_path: None,
        }
    }

    /// The bound TCP address (None for a UDS listener).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// In-process handle to the served GRM (for harness assertions).
    pub fn handle(&self) -> GrmHandle {
        self.shared.handle.clone()
    }

    /// A clone of the live recovery mirror — the state a crash right now
    /// would recover to.
    pub fn mirror(&self) -> RecoveredState {
        self.shared.journal.lock().1.clone()
    }

    /// Snapshot of the live mirror (compaction/inspection helper).
    pub fn mirror_snapshot(&self) -> Snapshot {
        self.shared.journal.lock().1.snapshot()
    }

    /// Frames that passed CRC but failed request decoding.
    pub fn undecodable_frames(&self) -> u64 {
        self.shared.undecodable.load(Ordering::Relaxed)
    }

    /// Journal watermarks `(appended, synced)`: the LSN of the newest
    /// appended record and the highest LSN an fsync covers.
    pub fn journal_lsns(&self) -> (u64, u64) {
        let guard = self.shared.journal.lock();
        (guard.0.appended_lsn(), guard.0.synced_lsn())
    }

    /// Group-commit amortization counters: `(fsyncs, records covered)`.
    /// Both zero under `FsyncPolicy::EveryOp`.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        (
            self.shared.group_syncs.load(Ordering::Relaxed),
            self.shared.group_records.load(Ordering::Relaxed),
        )
    }

    /// Stop accepting, drain connection threads, sync the journal, and
    /// shut the served GRM down.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        let joins: Vec<_> = self.conns.lock().drain(..).collect();
        for j in joins {
            let _ = j.join();
        }
        if let Some(j) = self.syncer.take() {
            let _ = j.join();
        }
        let mut guard = self.shared.journal.lock();
        let _ = guard.0.sync();
        self.shared.publish_durability(&guard);
        drop(guard);
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for GrmListener {
    fn drop(&mut self) {
        self.stop();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn fs_remove(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// The two stream types, unified for the connection handler. Reader and
/// writer threads work independent clones; `shutdown_both` kills the
/// underlying socket so the peer (and the sibling thread) unblocks.
trait Stream: Read + Write + Send {
    fn try_clone_box(&self) -> io::Result<Box<dyn Stream>>;
    fn shutdown_both(&self);
}

impl Stream for UnixStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Stream for TcpStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

fn accept_loop(
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    mut accept: impl FnMut() -> io::Result<Option<Box<dyn Stream>>>,
) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match accept() {
            Ok(Some(stream)) => {
                let shared = Arc::clone(&shared);
                conns.lock().push(thread::spawn(move || serve_conn(stream, &shared)));
            }
            Ok(None) => thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
}

/// The group-commit syncer: waits for the append watermark to pass the
/// durable one, then fsyncs once for everything appended so far — on a
/// duplicate fd, outside the journal lock, so execution continues
/// appending the next group while the disk works on this one. No hold
/// timer: the fsync's own latency is what gathers the next group.
fn syncer_loop(shared: &Shared) {
    loop {
        {
            let mut st = shared.durability.state.lock().expect("durability poisoned");
            while st.appended == st.synced && !st.failed {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                st = shared.durability.work.wait_timeout(st, POLL).expect("durability poisoned").0;
            }
            if st.failed {
                return;
            }
        }
        // Capture the sync target and a duplicate fd together, then
        // fsync without any lock held. Compaction syncs before rolling
        // segments, so everything up to `target` that is not in this fd
        // is durable already (see `DurableJournal::sync_handle`).
        let (target, handle) = {
            let guard = shared.journal.lock();
            (guard.0.appended_lsn(), guard.0.sync_handle())
        };
        let file = match handle {
            Ok(f) => f,
            Err(_) => {
                shared.durability.fail();
                return;
            }
        };
        let span = shared.telemetry.start();
        if file.sync_data().is_err() {
            shared.durability.fail();
            return;
        }
        shared.telemetry.stop(HistKind::JournalFsyncSeconds, span);
        {
            let mut guard = shared.journal.lock();
            guard.0.note_synced(target);
        }
        // Counted before the watermark moves, so a client acked by this
        // fsync already finds it in `group_commit_stats`.
        let covered = shared.durability.advance_counted(0, target, |covered| {
            shared.group_syncs.fetch_add(1, Ordering::Relaxed);
            shared.group_records.fetch_add(covered, Ordering::Relaxed);
        });
        // `covered` is the unsynced tail this fsync retired — exactly
        // what a power cut an instant earlier would have lost. The
        // histogram is the loss-window curve's raw material.
        shared.telemetry.observe(HistKind::GroupCommitRecords, covered as f64);
    }
}

/// One queued reply: the durability gate (0 = none) and the already
/// encoded response frame.
type QueuedReply = (u64, Vec<u8>);

fn serve_conn(mut stream: Box<dyn Stream>, shared: &Arc<Shared>) {
    let writer_stream = match stream.try_clone_box() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<QueuedReply>();
    let writer_shared = Arc::clone(shared);
    let writer = thread::spawn(move || reply_writer(writer_stream, rx, &writer_shared));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => {
                            shared.telemetry.observe(
                                HistKind::FrameBytes,
                                (payload.len() + FRAME_OVERHEAD) as f64,
                            );
                            if handle_frame(&payload, &tx, shared).is_err() {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        // Corrupt frame: the decoder resynced; the lost
                        // request is the sender's retry problem.
                        Err(_) => continue,
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// The reply side of a connection: waits each queued reply's durability
/// gate, then puts it on the wire. A reply whose gate can never be
/// satisfied (fsync failure) is dropped and the connection killed — the
/// client must retry rather than observe an undurable decision.
fn reply_writer(mut out: Box<dyn Stream>, rx: mpsc::Receiver<QueuedReply>, shared: &Shared) {
    loop {
        let (gate, bytes) = match rx.recv_timeout(POLL) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if gate > 0 && !shared.wait_durable(gate) {
            out.shutdown_both();
            return;
        }
        if out.write_all(&bytes).and_then(|()| out.flush()).is_err() {
            out.shutdown_both();
            return;
        }
    }
}

/// Decode, execute, journal (write-ahead), queue the reply. Returns
/// `Err` only when the reply cannot be queued (writer thread died).
fn handle_frame(payload: &[u8], tx: &mpsc::Sender<QueuedReply>, shared: &Shared) -> io::Result<()> {
    let rf = match RequestFrame::decode(payload) {
        Ok(rf) => rf,
        Err(_) => {
            shared.undecodable.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    let (resp, gate) = match (&shared.sequencer, rf.replay_seq) {
        (Some(seq), Some(no)) => match seq.enter(no, &shared.shutdown) {
            Admission::Aborted => return Ok(()),
            Admission::Stale => execute_stale(&rf.req, shared),
            Admission::Fresh => {
                let out = execute(&rf.req, Some(no), shared);
                // The cursor advances on append, not on fsync: the next
                // event executes while this reply waits for its group.
                seq.exit(no);
                out
            }
        },
        _ => execute(&rf.req, None, shared),
    };
    queue_response(tx, shared, ResponseFrame { corr: rf.corr, resp }, gate)
}

fn queue_response(
    tx: &mpsc::Sender<QueuedReply>,
    shared: &Shared,
    frame: ResponseFrame,
    gate: u64,
) -> io::Result<()> {
    let payload = frame.encode();
    let mut framed = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    encode_frame(&payload, &mut framed)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    shared.telemetry.observe(HistKind::FrameBytes, framed.len() as f64);
    tx.send((gate, framed)).map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
}

const JOURNAL_DOWN: GrmError = GrmError::Unsupported("agreement journal unavailable");

/// Is this decision outcome worth journaling? Transport-layer errors
/// (the in-process server died under us) are not decisions.
fn journalable(err: &GrmError) -> bool {
    !matches!(
        err,
        GrmError::Disconnected
            | GrmError::DeadlineExceeded { .. }
            | GrmError::RetriesExhausted { .. }
            | GrmError::ConnectionRefused
            | GrmError::ConnectionReset
    )
}

/// Run one call against the served GRM and journal its record,
/// atomically under the journal lock — the journal records the exact
/// execution interleaving, so the recovery fold replays what actually
/// happened even when non-sequenced connections race. Transport-level
/// failures are not decisions and journal nothing (gate 0); a failed
/// append answers [`JOURNAL_DOWN`] instead of the unjournaled result.
fn journaled<T>(
    shared: &Shared,
    call: impl FnOnce(&GrmHandle) -> Result<T, GrmError>,
    record: impl FnOnce(&Result<T, GrmError>) -> JournalRecord,
) -> (Result<T, GrmError>, u64) {
    let mut guard = shared.journal.lock();
    let result = call(&shared.handle);
    let gate = if result.as_ref().err().is_none_or(journalable) {
        match shared.journal_locked(&mut guard, &record(&result)) {
            Ok(g) => g,
            Err(_) => return (Err(JOURNAL_DOWN), 0),
        }
    } else {
        0
    };
    shared.publish_durability(&guard);
    drop(guard);
    (result, gate)
}

/// Execute one request, journaling it through [`journaled`]. Returns
/// the response and its durability gate (0 for reads and for ops that
/// journaled nothing).
fn execute(req: &WireRequest, seq: Option<u64>, shared: &Shared) -> (WireResponse, u64) {
    let h = &shared.handle;
    match req {
        WireRequest::Report { lrm, available } => {
            let (res, gate) = journaled(
                shared,
                |h| h.report(*lrm as usize, *available),
                |_| JournalRecord::Report { seq, lrm: *lrm, available: *available },
            );
            (WireResponse::Unit(res), gate)
        }
        WireRequest::Tick { now, lease } => {
            // Lease expiry is soft state, corrected by the next round of
            // re-reports — never journaled.
            (WireResponse::Unit(h.tick(*now, *lease)), 0)
        }
        WireRequest::Request { lrm, amount, req_id } => {
            let (res, gate) = journaled(
                shared,
                |h| match req_id {
                    Some(id) => h.request_idempotent(*lrm as usize, *amount, *id),
                    None => h.request(*lrm as usize, *amount),
                },
                |res| JournalRecord::Decision {
                    seq,
                    id: *req_id,
                    body: DecisionBody::Grant(res.clone()),
                },
            );
            (WireResponse::Grant(res), gate)
        }
        WireRequest::Release { alloc, req_id } => {
            let (res, gate) = journaled(
                shared,
                |h| match req_id {
                    Some(id) => h.release_idempotent(alloc.clone(), *id),
                    None => h.release(alloc.clone()),
                },
                |res| JournalRecord::Decision {
                    seq,
                    id: *req_id,
                    body: DecisionBody::Release { draws: alloc.draws.clone(), result: res.clone() },
                },
            );
            (WireResponse::Unit(res), gate)
        }
        WireRequest::ReplayGrant { req_id, lrm, amount } => {
            let (res, gate) = journaled(
                shared,
                |h| h.replay_grant(*req_id, *lrm as usize, *amount),
                |res| JournalRecord::Decision {
                    seq,
                    id: Some(*req_id),
                    body: DecisionBody::Replay { lrm: *lrm, amount: *amount, result: res.clone() },
                },
            );
            (WireResponse::Unit(res), gate)
        }
        WireRequest::Availability => match h.availability() {
            Ok(v) => (WireResponse::Availability(v), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
        WireRequest::Stats => match h.stats() {
            Ok(s) => (WireResponse::Stats(Box::new(s)), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
        WireRequest::RequestMulti { lrm, amounts, req_id } => {
            let (res, gate) = journaled(
                shared,
                |h| match req_id {
                    Some(id) => h.request_multi_idempotent(*lrm as usize, amounts, *id),
                    None => h.request_multi(*lrm as usize, amounts),
                },
                |res| JournalRecord::Decision {
                    seq,
                    id: *req_id,
                    body: DecisionBody::GrantMulti(res.clone()),
                },
            );
            (WireResponse::GrantMulti(res), gate)
        }
        // Multi-lane pools are soft state (re-reported each round) and
        // the recovery mirror's availability is single-lane, so multi
        // reports are not journaled — like `Tick`, not like `Report`.
        WireRequest::ReportMulti { lrm, available } => {
            (WireResponse::Unit(h.report_multi(*lrm as usize, available.clone())), 0)
        }
        WireRequest::AvailabilityMulti => match h.availability_multi() {
            Ok(lanes) => (WireResponse::AvailabilityMulti(lanes), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
    }
}

/// An event below the replay cursor: it was applied (and journaled)
/// before a crash or retransmission. Reports are acked without
/// re-applying — re-running them would rewind the pools. Idempotent RPCs
/// are forwarded so the dedup window serves the original decision (the
/// duplicate-id check keeps the journal clean). Replayed decisions gate
/// on the current append cursor: the original record's covering fsync
/// may still be outstanding.
fn execute_stale(req: &WireRequest, shared: &Shared) -> (WireResponse, u64) {
    let h = &shared.handle;
    let cursor_gate = |shared: &Shared| shared.journal.lock().0.appended_lsn();
    match req {
        WireRequest::Report { .. } | WireRequest::Tick { .. } => (WireResponse::Unit(Ok(())), 0),
        WireRequest::Request { lrm, amount, req_id } => match req_id {
            Some(id) => {
                let res = h.request_idempotent(*lrm as usize, *amount, *id);
                (WireResponse::Grant(res), cursor_gate(shared))
            }
            // A sequenced request without an id cannot be deduplicated;
            // refuse rather than silently double-grant.
            None => (
                WireResponse::Grant(Err(GrmError::Unsupported(
                    "stale sequenced request without an idempotency id",
                ))),
                0,
            ),
        },
        WireRequest::Release { alloc, req_id } => match req_id {
            Some(id) => {
                let res = h.release_idempotent(alloc.clone(), *id);
                (WireResponse::Unit(res), cursor_gate(shared))
            }
            None => (
                WireResponse::Unit(Err(GrmError::Unsupported(
                    "stale sequenced release without an idempotency id",
                ))),
                0,
            ),
        },
        WireRequest::ReplayGrant { req_id, lrm, amount } => {
            let res = h.replay_grant(*req_id, *lrm as usize, *amount);
            (WireResponse::Unit(res), cursor_gate(shared))
        }
        WireRequest::Availability => match h.availability() {
            Ok(v) => (WireResponse::Availability(v), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
        WireRequest::Stats => match h.stats() {
            Ok(s) => (WireResponse::Stats(Box::new(s)), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
        WireRequest::RequestMulti { lrm, amounts, req_id } => match req_id {
            Some(id) => {
                let res = h.request_multi_idempotent(*lrm as usize, amounts, *id);
                (WireResponse::GrantMulti(res), cursor_gate(shared))
            }
            None => (
                WireResponse::GrantMulti(Err(GrmError::Unsupported(
                    "stale sequenced request without an idempotency id",
                ))),
                0,
            ),
        },
        // Stale multi reports ack without re-applying, like `Report`.
        WireRequest::ReportMulti { .. } => (WireResponse::Unit(Ok(())), 0),
        WireRequest::AvailabilityMulti => match h.availability_multi() {
            Ok(lanes) => (WireResponse::AvailabilityMulti(lanes), 0),
            Err(e) => (WireResponse::Unit(Err(e)), 0),
        },
    }
}
