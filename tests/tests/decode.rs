//! Decode-session equivalence suite: every incremental decode step
//! must be bit-identical to a fresh full-prefix `run_head` oracle.
//!
//! The [`sprint_engine::DecodeSession`] reuses programmed crossbars,
//! cached 8-bit K/V images and a long-lived memory controller across
//! steps; the oracle rebuilds all of it per step from the grown
//! history. Under the ideal (noise-free) analog model the two must
//! agree bit for bit — output row, pruning decision, per-step hardware
//! counters and memory statistics — at every step, in all four
//! [`ExecutionMode`]s, across ragged session lengths, and through a
//! [`SessionTable`] shared by 1/2/4/8 threads with and without churn.

use sprint_attention::{Matrix, PagePool};
use sprint_energy::Category;
use sprint_engine::{
    DecodeSession, DecodeStep, Engine, EvictedSession, ExecutionMode, HeadRequest, PerfRollup,
    SessionOpen, SessionPerf, SessionRequest, SessionTable, SprintConfig, StepResponse,
};
use sprint_reram::{NoiseModel, ThresholdSpec};
use sprint_tests::run_streams;
use sprint_workloads::{ChurnEvent, ChurnSpec, HeadTrace, ModelConfig, TraceGenerator};

fn trace(seq: usize, seed: u64) -> HeadTrace {
    let spec = ModelConfig::bert_base()
        .trace_spec()
        .with_seq_len(seq)
        .with_padding(0.0);
    TraceGenerator::new(seed).generate(&spec).unwrap()
}

fn prefix(m: &Matrix, n: usize) -> Matrix {
    m.prefix_rows(n).unwrap()
}

fn one_row(m: &Matrix, r: usize) -> Matrix {
    Matrix::from_vec(1, m.cols(), m.row(r).to_vec()).unwrap()
}

fn engine(mode: ExecutionMode) -> Engine {
    Engine::builder(SprintConfig::small())
        .noise(NoiseModel::ideal())
        .mode(mode)
        .seed(17)
        .build()
        .unwrap()
}

/// Steps a session from `prefill` to the trace's end, comparing every
/// step against a fresh full-prefix `run_head` with the same head id.
fn assert_session_matches_oracle(
    engine: &Engine,
    trace: &HeadTrace,
    prefill: usize,
    head_id: u64,
    spec: Option<ThresholdSpec>,
) {
    let (pk, pv) = (prefix(trace.k(), prefill), prefix(trace.v(), prefill));
    let mut request =
        SessionRequest::new(&pk, &pv, trace.config(), trace.threshold()).with_head_id(head_id);
    if let Some(s) = spec {
        request = request.with_threshold_spec(s);
    }
    let mut session = engine.open_session(&request).unwrap();
    for step in prefill..trace.seq_len() {
        let response = session
            .step(&DecodeStep {
                q: trace.q().row(step),
                k: trace.k().row(step),
                v: trace.v().row(step),
            })
            .unwrap();
        let q1 = one_row(trace.q(), step);
        let hist_k = prefix(trace.k(), step + 1);
        let hist_v = prefix(trace.v(), step + 1);
        let mut head = HeadRequest::new(&q1, &hist_k, &hist_v, trace.config(), trace.threshold())
            .with_head_id(head_id);
        if let Some(s) = spec {
            head = head.with_threshold_spec(s);
        }
        let oracle = engine.run_head(&head).unwrap();
        assert_eq!(
            response.output.as_slice(),
            oracle.output.row(0),
            "step {step}: output row diverged"
        );
        assert_eq!(
            response.decision, oracle.decisions[0],
            "step {step}: pruning decision diverged"
        );
        assert_eq!(
            response.prune_stats, oracle.prune_stats,
            "step {step}: per-step hardware counters diverged"
        );
        assert_eq!(
            response.memory_stats, oracle.memory_stats,
            "step {step}: memory statistics diverged"
        );
        assert_eq!(response.position, step);
        // One served producer: the oracle head, a one-query head over
        // the whole history, is priced as that one query. Only the
        // head's Q/K/V programming differs from the step's sheet.
        let rolled = PerfRollup::from_response(
            session.mode(),
            engine.config(),
            trace.q().cols(),
            step + 1,
            step + 1,
            &oracle,
        );
        assert_eq!(rolled.cycles, response.perf.cycles, "step {step}: cycles");
        for category in Category::ALL {
            if category != Category::ReramWrite {
                assert_eq!(
                    rolled.energy.get(category),
                    response.perf.energy.get(category),
                    "step {step}: {category} priced apart"
                );
            }
        }
    }
}

#[test]
fn every_step_matches_the_fresh_oracle_in_all_four_modes() {
    let t = trace(56, 3);
    for mode in ExecutionMode::ALL {
        assert_session_matches_oracle(&engine(mode), &t, 24, 5, None);
    }
}

#[test]
fn single_token_prefills_and_short_sessions_match_too() {
    // Degenerate shapes: a 1-token prefill (the pruner tiles grow from
    // a single column) and a session that decodes a single token.
    let t = trace(20, 7);
    for mode in ExecutionMode::ALL {
        assert_session_matches_oracle(&engine(mode), &t, 1, 2, None);
        assert_session_matches_oracle(&engine(mode), &t, 19, 2, None);
    }
}

#[test]
fn quantized_comparator_sessions_match_the_oracle() {
    // score_bits engages the provisioned full-scale calibration — the
    // per-step query recalibration must reproduce the fresh pruner's
    // full scale exactly.
    let t = trace(40, 11);
    for bits in [4u32, 8] {
        assert_session_matches_oracle(
            &engine(ExecutionMode::Sprint),
            &t,
            16,
            9,
            Some(ThresholdSpec::quantized(bits)),
        );
    }
}

#[test]
fn range_widening_tokens_force_recalibration_and_still_match() {
    // Scale a mid-stream token up so its key/value magnitudes exceed
    // everything before: the KV cache and the pruner must requantize
    // and reprogram, and the session must still track the oracle.
    let base = trace(36, 13);
    let amplify = |m: &Matrix, row: usize| {
        let mut data = m.as_slice().to_vec();
        for x in &mut data[row * m.cols()..(row + 1) * m.cols()] {
            *x *= 4.0;
        }
        Matrix::from_vec(m.rows(), m.cols(), data).unwrap()
    };
    let k = amplify(base.k(), 28);
    let v = amplify(base.v(), 30);
    let e = engine(ExecutionMode::Sprint);
    let prefill = 24;
    let (pk, pv) = (prefix(&k, prefill), prefix(&v, prefill));
    let mut session = e
        .open_session(
            &SessionRequest::new(&pk, &pv, base.config(), base.threshold()).with_head_id(1),
        )
        .unwrap();
    let mut recalibrated = 0u64;
    for step in prefill..base.seq_len() {
        let response = session
            .step(&DecodeStep {
                q: base.q().row(step),
                k: k.row(step),
                v: v.row(step),
            })
            .unwrap();
        recalibrated += u64::from(response.perf.recalibrated);
        let q1 = one_row(base.q(), step);
        let (hist_k, hist_v) = (prefix(&k, step + 1), prefix(&v, step + 1));
        let oracle = e
            .run_head(
                &HeadRequest::new(&q1, &hist_k, &hist_v, base.config(), base.threshold())
                    .with_head_id(1),
            )
            .unwrap();
        assert_eq!(
            response.output.as_slice(),
            oracle.output.row(0),
            "step {step}"
        );
        assert_eq!(response.decision, oracle.decisions[0], "step {step}");
    }
    assert!(
        recalibrated >= 1,
        "the amplified tokens must have widened a quantizer range"
    );
    assert_eq!(session.perf().recalibrations, recalibrated);
}

#[test]
fn rehydration_straddling_recalibration_rebuilds_the_running_max_from_history() {
    // Amplified mid-stream tokens widen the per-column quantizer range
    // (k at row 28, v at row 30 — both force requantization). Evicting
    // and rehydrating just before, at, and just after those tokens must
    // change nothing: the rebuilt cache derives its running max from
    // the replayed history, never from a pre-eviction high-water mark.
    let base = trace(36, 13);
    let amplify = |m: &Matrix, row: usize| {
        let mut data = m.as_slice().to_vec();
        for x in &mut data[row * m.cols()..(row + 1) * m.cols()] {
            *x *= 4.0;
        }
        Matrix::from_vec(m.rows(), m.cols(), data).unwrap()
    };
    let k = amplify(base.k(), 28);
    let v = amplify(base.v(), 30);
    let e = engine(ExecutionMode::Sprint);
    let prefill = 24;
    let (pk, pv) = (prefix(&k, prefill), prefix(&v, prefill));
    let request = SessionRequest::new(&pk, &pv, base.config(), base.threshold()).with_head_id(1);
    for evict_before in [[27usize, 29], [28, 31], [29, 30]] {
        let mut twin = e.open_session(&request).unwrap();
        let mut session = Some(e.open_session(&request).unwrap());
        let mut recalibrated = 0u64;
        for step in prefill..base.seq_len() {
            if evict_before.contains(&step) {
                let mut stub = session.take().unwrap().evict();
                let (hk, hv) = (prefix(&k, step), prefix(&v, step));
                session = Some(e.resume_session(&mut stub, &hk, &hv).unwrap());
            }
            let ds = DecodeStep {
                q: base.q().row(step),
                k: k.row(step),
                v: v.row(step),
            };
            let got = session.as_mut().unwrap().step(&ds).unwrap();
            let want = twin.step(&ds).unwrap();
            assert_eq!(
                got, want,
                "evictions before steps {evict_before:?}: step {step} diverged"
            );
            recalibrated += u64::from(got.perf.recalibrated);
        }
        assert!(
            recalibrated >= 1,
            "the amplified tokens must have widened a quantizer range"
        );
        let survivor = session.unwrap();
        assert_eq!(survivor.perf().rehydrations, 2);
        assert_eq!(
            survivor.perf().recalibrations,
            twin.perf().recalibrations,
            "evictions before steps {evict_before:?}: recalibration count diverged"
        );
    }
}

/// Six ragged, mixed-mode, mixed-prefill streams; stream `i` decodes
/// under head id `i`.
fn six_streams() -> Vec<SessionOpen> {
    [
        (32usize, 16usize, None),
        (48, 8, Some(ExecutionMode::Oracle)),
        (24, 20, Some(ExecutionMode::NoRecompute)),
        (40, 1, None),
        (16, 12, Some(ExecutionMode::Dense)),
        (64, 32, None),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (seq, prefill, mode))| SessionOpen {
        trace: trace(seq, 60 + i as u64),
        prefill,
        head_id: i as u64,
        mode,
        threshold_spec: None,
    })
    .collect()
}

/// Runs [`six_streams`] through a [`SessionTable`] capped at `cap`,
/// shared by 1/2/4/8 threads, and holds every response and every
/// step-attributed counter bit-identical to one thread over an uncapped
/// table; the pool must drain completely after each run.
fn assert_shared_table_matches_the_single_thread_reference(cap: Option<usize>) {
    let streams = six_streams();
    // The reference: one thread, no cap, an unbounded pool.
    let reference = run_streams(
        &engine(ExecutionMode::Sprint),
        &SessionTable::new(None),
        &streams,
        1,
    );
    assert!(reference[0].1.kept_fraction() < 1.0, "sprint prunes");
    assert_eq!(
        reference[4].1.kept_fraction(),
        1.0,
        "dense keeps everything"
    );
    let bits = |r: &StepResponse| r.output.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Eviction and rehydration are booked apart from the steps.
    let step_attributed = |perf: &SessionPerf| SessionPerf {
        evictions: 0,
        rehydrations: 0,
        rehydrated_tokens: 0,
        rehydration_energy: Default::default(),
        ..*perf
    };
    for threads in [1usize, 2, 4, 8] {
        // 4-token pages (d = d_v = 64), so sessions span many pages.
        let e = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .mode(ExecutionMode::Sprint)
            .seed(17)
            .kv_pool(PagePool::unbounded(4 * 5 * 128))
            .build()
            .unwrap();
        let table = SessionTable::new(cap);
        let run = run_streams(&e, &table, &streams, threads);
        for (s, ((steps, perf), (want_steps, want_perf))) in run.iter().zip(&reference).enumerate()
        {
            let at = format!("stream {s}, {threads} threads, cap {cap:?}");
            assert_eq!(steps, want_steps, "{at}");
            for (got, want) in steps.iter().zip(want_steps) {
                assert_eq!(bits(got), bits(want), "{at}, step {}", got.position);
            }
            assert_eq!(step_attributed(perf), step_attributed(want_perf), "{at}");
        }
        let evictions: u64 = run.iter().map(|(_, perf)| perf.evictions).sum();
        assert_eq!(evictions, table.evictions());
        if cap.is_some() {
            assert!(
                table.evictions() > 0 && table.rehydrations() > 0,
                "cap {cap:?} at {threads} threads must churn"
            );
        } else {
            assert_eq!(table.evictions(), 0);
        }
        assert_eq!(table.resident(), 0);
        assert_eq!(e.kv_pool().pages_in_use(), 0, "pages leaked");
        assert_eq!(
            e.kv_pool().free_pages(),
            e.kv_pool().peak_pages(),
            "the pool must drain completely"
        );
    }
}

#[test]
fn decode_loop_is_bit_identical_across_1_2_4_8_workers() {
    assert_shared_table_matches_the_single_thread_reference(None);
}

#[test]
fn churn_loop_matches_the_never_evicted_loop_across_1_2_4_8_workers() {
    // A resident cap of one session forces eviction and rehydration on
    // every switch between streams.
    assert_shared_table_matches_the_single_thread_reference(Some(1));
}

#[test]
fn table_sessions_match_manually_driven_sessions() {
    // The seeding contract: a table session opened with head id h is
    // `Engine::open_session(..with_head_id(h))`, response for response.
    // Default noise, so the head id reaches the bits.
    let e = Engine::builder(SprintConfig::small())
        .noise(NoiseModel::default())
        .seed(17)
        .build()
        .unwrap();
    let t = trace(28, 31);
    let open = |head_id| SessionOpen {
        trace: t.clone(),
        prefill: 12,
        head_id,
        mode: None,
        threshold_spec: None,
    };
    let table = SessionTable::new(None);
    let (id, other) = (
        table.open(&e, open(3)).unwrap(),
        table.open(&e, open(4)).unwrap(),
    );
    let (pk, pv) = (prefix(t.k(), 12), prefix(t.v(), 12));
    let mut session = e
        .open_session(&SessionRequest::new(&pk, &pv, t.config(), t.threshold()).with_head_id(3))
        .unwrap();
    let mut seeds_differ = false;
    for step in 12..28 {
        let by_hand = session
            .step(&DecodeStep {
                q: t.q().row(step),
                k: t.k().row(step),
                v: t.v().row(step),
            })
            .unwrap();
        assert_eq!(table.step(&e, id).unwrap(), by_hand, "step {step}");
        seeds_differ |= table.step(&e, other).unwrap().output != by_hand.output;
    }
    assert!(seeds_differ, "head id 4 decoded head id 3's bits");
    assert_eq!(table.close(id).unwrap(), *session.perf());
}

#[test]
fn random_evict_rehydrate_interleavings_stay_bit_identical_in_all_modes() {
    // Drive a randomized open/step/evict/rehydrate schedule and hold
    // every churned session to two references at once: a never-evicted
    // twin stepped with the same rows, and a fresh full-prefix
    // `run_head` oracle. Bit-identity (`f32::to_bits`) must survive
    // arbitrary eviction points in all four execution modes.
    enum Slot {
        Live(Box<DecodeSession>),
        Parked(Box<EvictedSession>),
        Hole,
    }
    struct Churned {
        trace: HeadTrace,
        slot: Slot,
        twin: DecodeSession,
        cursor: usize,
    }
    let spec = ChurnSpec::new(3, 10, 0.4);
    let prefills = [6usize, 1, 12];
    for (mode_index, mode) in ExecutionMode::ALL.into_iter().enumerate() {
        let e = engine(mode);
        let schedule = TraceGenerator::new(401 + mode_index as u64)
            .churn_schedule(&spec)
            .unwrap();
        let mut sessions: Vec<Churned> = prefills
            .iter()
            .enumerate()
            .map(|(s, &prefill)| {
                let trace = trace(prefill + spec.steps_per_session, 23 + s as u64);
                let (pk, pv) = (prefix(trace.k(), prefill), prefix(trace.v(), prefill));
                let request = SessionRequest::new(&pk, &pv, trace.config(), trace.threshold())
                    .with_head_id(s as u64);
                let slot = Slot::Live(Box::new(e.open_session(&request).unwrap()));
                let twin = e.open_session(&request).unwrap();
                Churned {
                    trace,
                    slot,
                    twin,
                    cursor: prefill,
                }
            })
            .collect();
        let mut evictions = 0u64;
        for event in schedule {
            let state = &mut sessions[event.session()];
            match event {
                ChurnEvent::Evict { .. } => {
                    if matches!(state.slot, Slot::Live(_)) {
                        let Slot::Live(live) = std::mem::replace(&mut state.slot, Slot::Hole)
                        else {
                            unreachable!()
                        };
                        state.slot = Slot::Parked(Box::new(live.evict()));
                        evictions += 1;
                    }
                }
                ChurnEvent::Step { session } => {
                    if matches!(state.slot, Slot::Parked(_)) {
                        let Slot::Parked(mut stub) = std::mem::replace(&mut state.slot, Slot::Hole)
                        else {
                            unreachable!()
                        };
                        let hk = prefix(state.trace.k(), state.cursor);
                        let hv = prefix(state.trace.v(), state.cursor);
                        state.slot =
                            Slot::Live(Box::new(e.resume_session(&mut stub, &hk, &hv).unwrap()));
                    }
                    let Slot::Live(live) = &mut state.slot else {
                        unreachable!()
                    };
                    let t = state.cursor;
                    let step = DecodeStep {
                        q: state.trace.q().row(t),
                        k: state.trace.k().row(t),
                        v: state.trace.v().row(t),
                    };
                    let got = live.step(&step).unwrap();
                    let want = state.twin.step(&step).unwrap();
                    assert_eq!(
                        got, want,
                        "{mode:?} session {session} step {t}: churned response \
                         diverged from the never-evicted twin"
                    );
                    let got_bits: Vec<u32> = got.output.iter().map(|x| x.to_bits()).collect();
                    let want_bits: Vec<u32> = want.output.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got_bits, want_bits, "{mode:?} session {session} step {t}");
                    let q1 = one_row(state.trace.q(), t);
                    let hist_k = prefix(state.trace.k(), t + 1);
                    let hist_v = prefix(state.trace.v(), t + 1);
                    let oracle = e
                        .run_head(
                            &HeadRequest::new(
                                &q1,
                                &hist_k,
                                &hist_v,
                                state.trace.config(),
                                state.trace.threshold(),
                            )
                            .with_head_id(session as u64),
                        )
                        .unwrap();
                    let oracle_bits: Vec<u32> =
                        oracle.output.row(0).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        got_bits, oracle_bits,
                        "{mode:?} session {session} step {t}: churned response \
                         diverged from the fresh full-prefix oracle"
                    );
                    assert_eq!(got.decision, oracle.decisions[0]);
                    state.cursor += 1;
                }
            }
        }
        assert!(evictions > 0, "{mode:?}: the schedule never evicted");
        let mut rehydrations = 0u64;
        for (s, state) in sessions.iter().enumerate() {
            assert_eq!(
                state.cursor,
                prefills[s] + spec.steps_per_session,
                "session {s} did not finish its token budget"
            );
            let Slot::Live(live) = &state.slot else {
                panic!("session {s} ended parked despite stepping last");
            };
            rehydrations += live.perf().rehydrations;
            assert_eq!(
                live.perf().kept_fraction(),
                state.twin.perf().kept_fraction(),
                "{mode:?} session {s}: kept fraction diverged"
            );
        }
        assert!(
            rehydrations > 0,
            "{mode:?}: no eviction landed mid-stream, the schedule is toothless"
        );
        // Live sessions still hold pages; dropping them must drain the
        // pool completely — churn cannot leak page capacity.
        assert!(e.kv_pool().pages_in_use() > 0);
        drop(sessions);
        assert_eq!(e.kv_pool().pages_in_use(), 0, "{mode:?}: pages leaked");
    }
}

#[test]
fn session_energy_separates_program_once_from_step_cost() {
    // The program-once share covers the prefill write and the one
    // token per step; a reprogram-per-step oracle would instead charge
    // the whole history every step. Check the separation is visible
    // and the step energy scales with the kept set, not the writes.
    let t = trace(48, 19);
    let e = engine(ExecutionMode::Sprint);
    let (pk, pv) = (prefix(t.k(), 32), prefix(t.v(), 32));
    let mut session = e
        .open_session(&SessionRequest::new(&pk, &pv, t.config(), t.threshold()))
        .unwrap();
    let first = session
        .step(&DecodeStep {
            q: t.q().row(32),
            k: t.k().row(32),
            v: t.v().row(32),
        })
        .unwrap();
    // First step programs the whole 33-token history.
    assert_eq!(first.perf.programmed_tokens, 33);
    assert!(first.perf.program_energy.total() > first.perf.energy.total());
    let second = session
        .step(&DecodeStep {
            q: t.q().row(33),
            k: t.k().row(33),
            v: t.v().row(33),
        })
        .unwrap();
    if !second.perf.recalibrated {
        assert_eq!(second.perf.programmed_tokens, 1);
        assert!(
            second.perf.program_energy.total() < first.perf.program_energy.total(),
            "appends amortize the programming cost"
        );
    }
    let perf = session.perf();
    assert_eq!(perf.tokens, 2);
    assert_eq!(
        perf.total_energy().total(),
        (perf.energy + perf.program_energy).total()
    );
}
