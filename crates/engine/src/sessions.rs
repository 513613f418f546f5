//! [`SessionTable`]: the one owner of decode-session residency, LRU
//! eviction and evict-and-retry under page-pool pressure, used by
//! [`crate::DecodeLoop`] and by the HTTP server's `POST /v1/decode`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sprint_reram::ThresholdSpec;
use sprint_workloads::HeadTrace;

use crate::decode::{
    DecodeSession, DecodeStep, EvictedSession, SessionPerf, SessionRequest, StepResponse,
};
use crate::{Engine, ExecutionMode, SprintError};

/// What [`SessionTable::open`] starts a session from.
#[derive(Debug, Clone)]
pub struct SessionOpen {
    /// The session's whole token stream: rows `..prefill` are the
    /// prefill history, every later row is served by one step. The
    /// table retains it — rehydration replays its prefix.
    pub trace: HeadTrace,
    /// History rows the session opens with.
    pub prefill: usize,
    /// The head id the session seed derives from (see
    /// [`Engine::open_session`]).
    pub head_id: u64,
    /// Execution-mode override (engine default when `None`).
    pub mode: Option<ExecutionMode>,
    /// Threshold-programming override (engine default when `None`).
    pub threshold_spec: Option<ThresholdSpec>,
}

/// Why a [`SessionTable`] call failed.
#[derive(Debug)]
pub enum SessionError {
    /// No open session has this id (never opened, or closed).
    Unknown(u64),
    /// The session already served every row of its token stream.
    Exhausted(u64),
    /// The KV page pool refused the call even after every other
    /// evictable session was evicted. Retryable once pages free up;
    /// the session is unchanged.
    PoolExhausted(SprintError),
    /// Any other engine failure; the session is unchanged.
    Engine(SprintError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "no session {id}"),
            SessionError::Exhausted(_) => {
                f.write_str("session exhausted its token stream; close it")
            }
            SessionError::PoolExhausted(e) | SessionError::Engine(e) => e.fmt(f),
        }
    }
}

impl Error for SessionError {}

impl From<SprintError> for SessionError {
    fn from(e: SprintError) -> Self {
        if e.is_pool_exhausted() {
            SessionError::PoolExhausted(e)
        } else {
            SessionError::Engine(e)
        }
    }
}

impl From<SessionError> for SprintError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::PoolExhausted(e) | SessionError::Engine(e) => e,
            other => SprintError::Request(other.to_string()),
        }
    }
}

/// Where an entry's session currently lives.
#[derive(Debug)]
enum Slot {
    Resident(Box<DecodeSession>),
    Evicted(Box<EvictedSession>),
    /// Closed, or mid-transition inside a held entry lock. An evictor
    /// that cloned the entry before [`SessionTable::close`] removed it
    /// finds this and leaves it alone.
    Closed,
}

#[derive(Debug)]
struct Entry {
    trace: HeadTrace,
    /// Next row of `trace` to serve (== the session's history length).
    cursor: usize,
    /// Tick of the last open or step; the smallest is the coldest.
    last_used: u64,
    slot: Slot,
}

type SharedEntry = Arc<Mutex<Entry>>;

/// The table of open decode sessions: `open` / `step` / `close` over
/// sessions that are each **resident** (a [`DecodeSession`] holding KV
/// pages) or **evicted** (an [`EvictedSession`] stub holding none),
/// with the residency hidden from the caller — a step on an evicted
/// session rebuilds it from its replayed history first
/// ([`Engine::resume_session`]).
///
/// Victims are least-recently-used by a monotone tick stamped at every
/// open and step. The table evicts when the optional residency cap is
/// exceeded after an open or a rehydration, and when the page pool
/// refuses pages to an open, a rehydration or a step's history append
/// — then the coldest *other* session is evicted and the identical
/// call retried, until it fits or nothing is left to evict
/// ([`SessionError::PoolExhausted`]). Driven from one thread, eviction
/// order is a pure function of the call sequence.
///
/// Locking: a table-wide mutex guards only the id → entry map; each
/// entry has its own mutex, held for the whole of a step. No engine
/// call runs under the map lock and victims are only ever `try_lock`ed
/// (a locked entry is mid-step and therefore hot), so callers stepping
/// different sessions run concurrently and two callers evicting at
/// once cannot deadlock on each other's entries.
#[derive(Debug)]
pub struct SessionTable {
    cap: Option<usize>,
    entries: Mutex<HashMap<u64, SharedEntry>>,
    next_id: AtomicU64,
    tick: AtomicU64,
    // Counters only: they order nothing and publish no data, so
    // `Relaxed` suffices. `resident` changes only where a slot enters
    // or leaves `Slot::Resident`, under that entry's lock.
    resident: AtomicUsize,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
}

impl SessionTable {
    /// An empty table. With `resident_cap = Some(n)`, the
    /// least-recently-used sessions are evicted so that at most `n`
    /// hold KV pages once an open or rehydration returns (never the
    /// session just opened or stepped, so the floor is one); `None`
    /// leaves residency to pool pressure alone.
    pub fn new(resident_cap: Option<usize>) -> Self {
        SessionTable {
            cap: resident_cap,
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
        }
    }

    /// Sessions currently holding KV pages.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Evictions performed over the table's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Rehydrations performed over the table's lifetime.
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations.load(Ordering::Relaxed)
    }

    /// Opens a resident session over `open.trace`'s prefill rows and
    /// returns its id.
    ///
    /// # Errors
    ///
    /// [`SessionError::PoolExhausted`] when the prefill does not fit
    /// the pool even with every other session evicted;
    /// [`SessionError::Engine`] for a prefill outside the trace or any
    /// other [`Engine::open_session`] failure.
    pub fn open(&self, engine: &Engine, open: SessionOpen) -> Result<u64, SessionError> {
        let (k, v) = (open.trace.k(), open.trace.v());
        let k = k.prefix_rows(open.prefill).map_err(SprintError::from)?;
        let v = v.prefix_rows(open.prefill).map_err(SprintError::from)?;
        let mut request = SessionRequest::new(&k, &v, open.trace.config(), open.trace.threshold())
            .with_head_id(open.head_id);
        if let Some(mode) = open.mode {
            request = request.with_mode(mode);
        }
        if let Some(spec) = open.threshold_spec {
            request = request.with_threshold_spec(spec);
        }
        let session = self.with_room(None, || engine.open_session(&request))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Entry {
            trace: open.trace,
            cursor: open.prefill,
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            slot: Slot::Resident(Box::new(session)),
        };
        // Counted before the entry is published: an evictor may take
        // it the moment it is in the map.
        self.resident.fetch_add(1, Ordering::Relaxed);
        self.lock_entries().insert(id, Arc::new(Mutex::new(entry)));
        self.enforce_cap(id);
        Ok(id)
    }

    /// Serves the session's next token — rehydrating the session first
    /// if it was evicted — and advances its cursor.
    ///
    /// # Errors
    ///
    /// [`SessionError::Unknown`] / [`SessionError::Exhausted`] for a
    /// bad id or a finished stream; [`SessionError::PoolExhausted`]
    /// when the rehydration or the history append does not fit even
    /// with every other session evicted. On any error the cursor
    /// stays where it was, so the same call can be retried.
    pub fn step(&self, engine: &Engine, id: u64) -> Result<StepResponse, SessionError> {
        let entry = self
            .lock_entries()
            .get(&id)
            .cloned()
            .ok_or(SessionError::Unknown(id))?;
        let mut entry = entry.lock().expect("session entry poisoned");
        let Entry {
            trace,
            cursor,
            last_used,
            slot,
        } = &mut *entry;
        if matches!(slot, Slot::Closed) {
            return Err(SessionError::Unknown(id)); // closed since the lookup
        }
        let t = *cursor;
        if t >= trace.seq_len() {
            return Err(SessionError::Exhausted(id));
        }
        *last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Slot::Evicted(stub) = &*slot {
            let k = trace.k().prefix_rows(t).map_err(SprintError::from)?;
            let v = trace.v().prefix_rows(t).map_err(SprintError::from)?;
            let session = self.with_room(Some(id), || engine.resume_session(stub, &k, &v))?;
            *slot = Slot::Resident(Box::new(session));
            self.resident.fetch_add(1, Ordering::Relaxed);
            self.rehydrations.fetch_add(1, Ordering::Relaxed);
            self.enforce_cap(id);
        }
        let Slot::Resident(session) = slot else {
            unreachable!("rehydrated above");
        };
        // A history append the pool refuses leaves the session
        // untouched, so the identical step is safe to reissue.
        let response = self.with_room(Some(id), || {
            session.step(&DecodeStep {
                q: trace.q().row(t),
                k: trace.k().row(t),
                v: trace.v().row(t),
            })
        })?;
        *cursor += 1;
        Ok(response)
    }

    /// Closes the session, freeing its pages, and returns its
    /// cumulative accounting.
    ///
    /// # Errors
    ///
    /// [`SessionError::Unknown`] for an id that is not open.
    pub fn close(&self, id: u64) -> Result<SessionPerf, SessionError> {
        let entry = self
            .lock_entries()
            .remove(&id)
            .ok_or(SessionError::Unknown(id))?;
        let mut entry = entry.lock().expect("session entry poisoned");
        match std::mem::replace(&mut entry.slot, Slot::Closed) {
            Slot::Resident(session) => {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                Ok(*session.perf())
            }
            Slot::Evicted(stub) => Ok(*stub.perf()),
            Slot::Closed => Err(SessionError::Unknown(id)),
        }
    }

    fn lock_entries(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SharedEntry>> {
        self.entries.lock().expect("session table poisoned")
    }

    /// Runs `attempt`, and for as long as it fails on pool pressure
    /// evicts the coldest session other than `keep` and runs it again.
    fn with_room<T>(
        &self,
        keep: Option<u64>,
        mut attempt: impl FnMut() -> Result<T, SprintError>,
    ) -> Result<T, SessionError> {
        loop {
            match attempt() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_pool_exhausted() && self.evict_coldest(keep) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Evicts cold sessions until at most the cap are resident.
    fn enforce_cap(&self, keep: u64) {
        let Some(cap) = self.cap else {
            return;
        };
        while self.resident() > cap {
            if !self.evict_coldest(Some(keep)) {
                return; // everything else is mid-step or already evicted
            }
        }
    }

    /// The resident sessions other than `keep` that are not mid-step,
    /// coldest first, each with its tick.
    fn eviction_candidates(&self, keep: Option<u64>) -> Vec<(u64, SharedEntry)> {
        let mut candidates: Vec<(u64, SharedEntry)> = self
            .lock_entries()
            .iter()
            .filter(|(&id, _)| Some(id) != keep)
            .filter_map(|(_, entry)| {
                let probe = entry.try_lock().ok()?;
                matches!(probe.slot, Slot::Resident(_))
                    .then(|| (probe.last_used, Arc::clone(entry)))
            })
            .collect();
        candidates.sort_by_key(|&(tick, _)| tick);
        candidates
    }

    /// Evicts `entry` if it is still resident and not mid-step.
    fn try_evict(&self, entry: &SharedEntry) -> bool {
        let Ok(mut entry) = entry.try_lock() else {
            return false; // grabbed by a step since the probe: hot again
        };
        match std::mem::replace(&mut entry.slot, Slot::Closed) {
            Slot::Resident(session) => {
                entry.slot = Slot::Evicted(Box::new(session.evict()));
                self.resident.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            other => {
                entry.slot = other; // evicted or closed since the probe
                false
            }
        }
    }

    /// Evicts the least-recently-used resident session other than
    /// `keep`; `false` when there is none to evict.
    fn evict_coldest(&self, keep: Option<u64>) -> bool {
        let candidates = self.eviction_candidates(keep);
        candidates.iter().any(|(_, entry)| self.try_evict(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SprintConfig;
    use sprint_attention::PagePool;
    use sprint_reram::NoiseModel;
    use sprint_workloads::{ModelConfig, TraceGenerator};

    const SEQ: usize = 8;
    const PREFILL: usize = 4;
    /// One token per page at BERT-base geometry (5 bytes × (64 + 64)),
    /// so a session holds as many pages as it has history rows.
    const PAGE_BYTES: usize = 640;

    /// Ideal noise: a rehydrated session reproduces a never-evicted
    /// one bit for bit, so every output below is checkable.
    fn engine(pool: PagePool) -> Engine {
        let builder = Engine::builder(SprintConfig::small()).noise(NoiseModel::ideal());
        builder.seed(7).kv_pool(pool).build().unwrap()
    }

    fn stream(seed: u64, seq_len: usize, prefill: usize) -> SessionOpen {
        let spec = ModelConfig::bert_base().trace_spec().with_padding(0.0);
        SessionOpen {
            trace: TraceGenerator::new(seed)
                .generate(&spec.with_seq_len(seq_len))
                .unwrap(),
            prefill,
            head_id: seed,
            mode: None,
            threshold_spec: None,
        }
    }

    fn open(table: &SessionTable, engine: &Engine, seed: u64) -> u64 {
        table.open(engine, stream(seed, SEQ, PREFILL)).unwrap()
    }

    /// Every step's output from a session that is never evicted.
    fn twin_outputs(seed: u64) -> Vec<Vec<f32>> {
        let engine = engine(PagePool::unbounded(PAGE_BYTES));
        let table = SessionTable::new(None);
        let id = open(&table, &engine, seed);
        let steps = (PREFILL..SEQ).map(|_| table.step(&engine, id).unwrap().output);
        steps.collect()
    }

    fn resident_ids(table: &SessionTable) -> Vec<u64> {
        let entries = table.lock_entries();
        let resident = |e: &SharedEntry| matches!(e.lock().unwrap().slot, Slot::Resident(_));
        let mut ids: Vec<u64> = entries
            .iter()
            .filter(|(_, e)| resident(e))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn scripted_turns_pin_lru_order_and_the_cap() {
        let engine = engine(PagePool::unbounded(PAGE_BYTES));
        let table = SessionTable::new(Some(2));
        let a = open(&table, &engine, 1);
        assert_eq!(resident_ids(&table), [a]);
        let b = open(&table, &engine, 2);
        assert_eq!(resident_ids(&table), [a, b]);
        let c = open(&table, &engine, 3);
        assert_eq!(resident_ids(&table), [b, c], "a was the coldest");
        // Each turn: (session stepped, who is resident afterwards).
        let turns = [
            (a, [a, c]), // rehydrates a; b is now the coldest
            (c, [a, c]), // resident already: nothing moves
            (b, [b, c]), // a is colder than the c just stepped
            (b, [b, c]),
            (a, [a, b]), // c is colder than the b stepped twice
        ];
        for (turn, (id, resident)) in turns.into_iter().enumerate() {
            table.step(&engine, id).unwrap();
            assert_eq!(resident_ids(&table), resident, "turn {turn}");
            assert_eq!(table.resident(), 2);
        }
        assert_eq!((table.evictions(), table.rehydrations()), (4, 3));

        // A cap below one cannot evict the caller's own session.
        let table = SessionTable::new(Some(0));
        let x = open(&table, &engine, 4);
        let y = open(&table, &engine, 5);
        assert_eq!(resident_ids(&table), [y]);
        table.step(&engine, x).unwrap();
        assert_eq!(resident_ids(&table), [x]);
    }

    #[test]
    fn pool_pressure_evicts_and_retries_at_open_resume_and_step() {
        // Ten pages: less than two full sessions (8 pages each).
        let engine = engine(PagePool::bounded(PAGE_BYTES, 10));
        let pages = || engine.kv_pool().pages_in_use();
        let table = SessionTable::new(None);
        let mut outputs: HashMap<u64, Vec<Vec<f32>>> = HashMap::new();
        let mut step = |id: u64| match table.step(&engine, id) {
            Ok(step) => outputs.entry(id).or_default().push(step.output),
            Err(SessionError::Exhausted(_)) => {}
            Err(e) => panic!("step failed: {e}"),
        };
        let a = open(&table, &engine, 1);
        let b = open(&table, &engine, 2);
        step(a);
        step(b);
        assert_eq!((pages(), table.evictions()), (10, 0), "pool exactly full");

        // Step: a's history append needs an eleventh page.
        step(a);
        assert_eq!(resident_ids(&table), [a]);
        assert_eq!((pages(), table.evictions()), (6, 1));

        // Resume: b's five rows do not fit beside a's six.
        step(b);
        assert_eq!(resident_ids(&table), [b]);
        assert_eq!(
            (pages(), table.evictions(), table.rehydrations()),
            (6, 2, 1)
        );

        // Open: c fills the pool, so d must evict the coldest (b).
        let c = open(&table, &engine, 3);
        assert_eq!((pages(), table.evictions()), (10, 2));
        let d = open(&table, &engine, 4);
        assert_eq!(resident_ids(&table), [c, d]);
        assert_eq!((pages(), table.evictions()), (8, 3));

        // A prefill the empty pool could not hold is refused — after
        // everything evictable was evicted — and nothing is lost.
        let refused = table.open(&engine, stream(9, 16, 12));
        assert!(matches!(refused, Err(SessionError::PoolExhausted(_))));
        assert_eq!((table.resident(), pages(), table.evictions()), (0, 0, 5));

        // Every stream still runs to its end, bit-identical to a twin
        // that was never evicted.
        let ids = [(a, 1), (b, 2), (c, 3), (d, 4)];
        for _ in PREFILL..SEQ {
            ids.iter().for_each(|&(id, _)| step(id));
        }
        for (id, seed) in ids {
            assert_eq!(outputs[&id], twin_outputs(seed), "stream {seed}");
            table.close(id).unwrap();
        }
        assert_eq!((table.resident(), pages()), (0, 0));
    }

    #[test]
    fn a_failed_step_leaves_the_cursor_and_a_retry_succeeds() {
        let engine = engine(PagePool::bounded(PAGE_BYTES, 8));
        // Half the pool is held through another table: nothing this
        // one can evict.
        let other = SessionTable::new(None);
        let hog = open(&other, &engine, 5);
        let table = SessionTable::new(None);
        let a = open(&table, &engine, 1);
        assert_eq!(engine.kv_pool().pages_in_use(), 8);
        for _ in 0..2 {
            let refused = table.step(&engine, a);
            assert!(matches!(refused, Err(SessionError::PoolExhausted(_))));
        }
        other.close(hog).unwrap();
        let served = table.step(&engine, a).unwrap();
        assert_eq!(served.position, PREFILL, "a refused step consumes no token");
        assert_eq!(served.output, twin_outputs(1)[0]);
        assert_eq!(table.evictions(), 0);
    }

    #[test]
    fn unknown_ids_and_exhausted_streams_are_distinct_errors() {
        let engine = engine(PagePool::unbounded(PAGE_BYTES));
        let table = SessionTable::new(None);
        let unknown = |r: Result<_, SessionError>| matches!(r, Err(SessionError::Unknown(_)));
        assert!(unknown(table.step(&engine, 99).map(drop)));
        assert!(unknown(table.close(99).map(drop)));
        let a = open(&table, &engine, 1);
        for _ in PREFILL..SEQ {
            table.step(&engine, a).unwrap();
        }
        let finished = table.step(&engine, a);
        assert!(matches!(finished, Err(SessionError::Exhausted(id)) if id == a));
        assert_eq!(table.close(a).unwrap().tokens, (SEQ - PREFILL) as u64);
        assert!(unknown(table.step(&engine, a).map(drop)));
        assert!(unknown(table.close(a).map(drop)));
    }

    #[test]
    fn an_evictor_that_lost_the_race_to_close_finds_nothing() {
        let engine = engine(PagePool::unbounded(PAGE_BYTES));
        let table = SessionTable::new(Some(1));
        let a = open(&table, &engine, 1);
        // An evictor probes and picks a; a closes before the evictor
        // gets to it; the evictor must not count a session that is gone.
        let late = table.eviction_candidates(None);
        assert_eq!(late.len(), 1);
        table.close(a).unwrap();
        assert!(!table.try_evict(&late[0].1));
        assert_eq!((table.resident(), table.evictions()), (0, 0));
        assert_eq!(engine.kv_pool().pages_in_use(), 0);
        // The resident count did not go below zero: the cap still
        // admits one session and evicts exactly the other.
        let _b = open(&table, &engine, 2);
        let c = open(&table, &engine, 3);
        assert_eq!(resident_ids(&table), [c]);
        assert_eq!((table.resident(), table.evictions()), (1, 1));
    }

    #[test]
    fn four_threads_hammering_one_table_leak_nothing_and_stay_bit_identical() {
        const STREAMS: usize = 6;
        let twins: Vec<_> = (0..STREAMS as u64).map(twin_outputs).collect();
        // Room for every thread's in-flight session plus one, under a
        // cap of three: both eviction triggers fire.
        let engine = engine(PagePool::bounded(PAGE_BYTES, 5 * SEQ));
        let table = SessionTable::new(Some(3));
        // (id, stream) of every session opened and not yet closed.
        let opened: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
        // (evictions, rehydrations) summed over closed sessions' perf:
        // the stubs actually created and rebuilt.
        let closed = Mutex::new((0u64, 0u64));
        let close = |id: u64| {
            let perf = table.close(id).unwrap();
            let mut closed = closed.lock().unwrap();
            *closed = (closed.0 + perf.evictions, closed.1 + perf.rehydrations);
        };
        let start = std::sync::Barrier::new(4);
        let hammer = |thread: u64| {
            let mut state = thread.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut random = |n: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            start.wait();
            for _ in 0..400 {
                let action = random(8);
                let mut opened_now = opened.lock().unwrap();
                if action < 2 || opened_now.is_empty() {
                    drop(opened_now);
                    let seed = random(STREAMS);
                    match table.open(&engine, stream(seed as u64, SEQ, PREFILL)) {
                        Ok(id) => opened.lock().unwrap().push((id, seed)),
                        Err(SessionError::PoolExhausted(_)) => {}
                        Err(e) => panic!("open failed: {e}"),
                    }
                } else if action == 2 {
                    let at = random(opened_now.len());
                    let (id, _) = opened_now.swap_remove(at);
                    drop(opened_now);
                    close(id);
                } else {
                    let (id, seed) = opened_now[random(opened_now.len())];
                    drop(opened_now);
                    match table.step(&engine, id) {
                        Ok(step) => assert_eq!(
                            step.output,
                            twins[seed][step.position - PREFILL],
                            "stream {seed} diverged at {}",
                            step.position
                        ),
                        // Closed or finished by another thread, or
                        // every other session was mid-step.
                        Err(SessionError::Engine(e)) => panic!("step failed: {e}"),
                        Err(_) => {}
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for thread in 1..=4 {
                let hammer = &hammer;
                scope.spawn(move || hammer(thread));
            }
        });
        for (id, _) in opened.into_inner().unwrap() {
            close(id);
        }
        let (stubs_created, stubs_rebuilt) = *closed.lock().unwrap();
        assert!(stubs_created > 0, "the hammer never evicted");
        assert_eq!(table.evictions(), stubs_created);
        assert_eq!(table.rehydrations(), stubs_rebuilt);
        assert_eq!(table.resident(), 0);
        assert_eq!(engine.kv_pool().pages_in_use(), 0);
    }
}
