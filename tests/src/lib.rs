//! Integration-test host crate. All tests live under `tests/tests/`;
//! this library holds only what several of them share.

use sprint_engine::{Engine, SessionOpen, SessionPerf, SessionTable, StepResponse};

/// Runs every stream to its end through one shared `table`, from
/// `threads` threads at once, the way the HTTP server's handlers share
/// its table.
///
/// The streams are opened in order first; then thread `w` takes the
/// `w`-th contiguous chunk ([`sprint_parallel::chunk_ranges`]) and
/// steps its streams one token per turn, round-robin, closing each
/// after its last token. Returns every stream's step responses and
/// closing [`SessionPerf`], in stream order.
///
/// # Panics
///
/// On any [`SessionTable`] error.
pub fn run_streams(
    engine: &Engine,
    table: &SessionTable,
    streams: &[SessionOpen],
    threads: usize,
) -> Vec<(Vec<StepResponse>, SessionPerf)> {
    let ids: Vec<u64> = streams
        .iter()
        .map(|open| table.open(engine, open.clone()).unwrap())
        .collect();
    let run_chunk = |range: std::ops::Range<usize>| {
        let mut steps: Vec<Vec<StepResponse>> = vec![Vec::new(); range.len()];
        let mut closed: Vec<Option<SessionPerf>> = vec![None; range.len()];
        while closed.iter().any(Option::is_none) {
            for (s, i) in range.clone().enumerate() {
                if closed[s].is_some() {
                    continue;
                }
                steps[s].push(table.step(engine, ids[i]).unwrap());
                if steps[s].len() == streams[i].trace.seq_len() - streams[i].prefill {
                    closed[s] = Some(table.close(ids[i]).unwrap());
                }
            }
        }
        steps
            .into_iter()
            .zip(closed.into_iter().flatten())
            .collect::<Vec<_>>()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = sprint_parallel::chunk_ranges(streams.len(), threads)
            .into_iter()
            .map(|range| {
                let run_chunk = &run_chunk;
                scope.spawn(move || run_chunk(range))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap())
            .collect()
    })
}
