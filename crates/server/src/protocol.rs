//! The wire protocol: JSON request/response shapes and their mapping
//! onto `sprint-engine` types.
//!
//! The protocol is deliberately *reference-based*: clients name a
//! model catalog entry and a seed instead of shipping query/key/value
//! matrices over the wire. The server synthesizes the same
//! deterministic traces the offline harnesses use
//! ([`sprint_workloads::TraceGenerator`]), so an HTTP response is
//! bit-identical to the equivalent in-process
//! [`sprint_engine::ModelServer::serve`] call — the integration tests
//! assert exactly that.

use crate::json::Json;
use sprint_engine::{ExecutionMode, ModelProfile, ModelRequest, ModelResponse, PerfRollup};
use sprint_workloads::ModelConfig;

/// Looks up a catalog model by its request name (the lowercase,
/// hyphen-free spelling used on the wire).
pub fn model_by_name(name: &str) -> Option<ModelConfig> {
    match name {
        "bert_base" => Some(ModelConfig::bert_base()),
        "bert_large" => Some(ModelConfig::bert_large()),
        "albert_xl" => Some(ModelConfig::albert_xl()),
        "albert_xxl" => Some(ModelConfig::albert_xxl()),
        "vit_base" => Some(ModelConfig::vit_base()),
        "gpt2_large" => Some(ModelConfig::gpt2_large()),
        "synth1" => Some(ModelConfig::synth1()),
        "synth2" => Some(ModelConfig::synth2()),
        _ => None,
    }
}

/// Wire names accepted by [`model_by_name`], for error messages.
pub const MODEL_NAMES: [&str; 8] = [
    "bert_base",
    "bert_large",
    "albert_xl",
    "albert_xxl",
    "vit_base",
    "gpt2_large",
    "synth1",
    "synth2",
];

fn mode_by_name(name: &str) -> Option<ExecutionMode> {
    match name {
        "sprint" => Some(ExecutionMode::Sprint),
        "no_recompute" => Some(ExecutionMode::NoRecompute),
        "dense" => Some(ExecutionMode::Dense),
        "oracle" => Some(ExecutionMode::Oracle),
        _ => None,
    }
}

fn mode_name(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Sprint => "sprint",
        ExecutionMode::NoRecompute => "no_recompute",
        ExecutionMode::Dense => "dense",
        ExecutionMode::Oracle => "oracle",
    }
}

/// Largest `seq_len` either endpoint accepts: the longest catalog
/// model's. A request synthesizes a trace of this many rows and scores
/// it against itself, so an unbounded value is an unbounded allocation.
pub const MAX_SEQ_LEN: usize = 4096;
/// Largest `layers` override (the deepest catalog model has 36).
pub const MAX_LAYERS: usize = 64;
/// Largest `heads` override (the widest catalog model has 64).
pub const MAX_HEADS: usize = 64;

/// The required `model` field, resolved against the catalog.
fn model_field(body: &Json) -> Result<(&str, ModelConfig), String> {
    let model = body
        .str_field("model")
        .ok_or_else(|| format!("missing 'model' (one of {})", MODEL_NAMES.join(", ")))?;
    let config = model_by_name(model).ok_or_else(|| {
        format!(
            "unknown model '{model}' (one of {})",
            MODEL_NAMES.join(", ")
        )
    })?;
    Ok((model, config))
}

/// An optional shape field: an integer in `1..=max`. Zero is refused
/// here, at the door: a zero-sized grid is the client's mistake, and
/// past this point it would fail a whole engine batch.
fn bounded_field(body: &Json, key: &str, max: usize) -> Result<Option<usize>, String> {
    let Some(value) = body.get(key) else {
        return Ok(None);
    };
    let n = value
        .as_u64()
        .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?;
    match usize::try_from(n) {
        Ok(0) => Err(format!("'{key}' must be at least 1")),
        Ok(n) if n <= max => Ok(Some(n)),
        _ => Err(format!("'{key}' {n} exceeds the limit of {max}")),
    }
}

/// The optional trace `seed` (default 0).
fn seed_field(body: &Json) -> Result<u64, String> {
    match body.get("seed") {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "'seed' must be a non-negative integer".to_string()),
    }
}

/// A parsed `POST /v1/decode` `open` body (docs/server.md). Only
/// `model` is required; `seq_len` defaults to 32 tokens, `prefill`
/// to half of `seq_len`, `seed` to 0.
#[derive(Debug, Clone)]
pub struct DecodeOpen {
    /// The catalog model the token stream is synthesized for.
    pub model: ModelConfig,
    /// Tokens in the session's stream (prefill + decoded).
    pub seq_len: usize,
    /// Tokens the session opens with, in `1..seq_len`.
    pub prefill: usize,
    /// Trace seed, also the session's head id.
    pub seed: u64,
}

impl DecodeOpen {
    /// Parses the JSON body of a decode `open` call.
    ///
    /// # Errors
    ///
    /// A client-facing message naming the offending field.
    pub fn parse(body: &Json) -> Result<DecodeOpen, String> {
        let (_, model) = model_field(body)?;
        let seq_len = bounded_field(body, "seq_len", MAX_SEQ_LEN)?.unwrap_or(32);
        let prefill = bounded_field(body, "prefill", MAX_SEQ_LEN)?.unwrap_or(seq_len / 2);
        if prefill == 0 || prefill >= seq_len {
            return Err(format!("prefill {prefill} outside 1..{seq_len}"));
        }
        Ok(DecodeOpen {
            model,
            seq_len,
            prefill,
            seed: seed_field(body)?,
        })
    }
}

/// A parsed `POST /v1/serve` body.
///
/// ```json
/// {"model": "vit_base", "layers": 1, "heads": 2, "seq_len": 32,
///  "seed": 7, "mode": "sprint"}
/// ```
///
/// Only `model` is required; `layers`/`heads`/`seq_len` override the
/// catalog shape (the knob small hosts use to keep service times
/// bounded), `seed` defaults to 0, `mode` to the engine default.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The catalog model name.
    pub model: String,
    /// Layer-count override.
    pub layers: Option<usize>,
    /// Heads-per-layer override.
    pub heads: Option<usize>,
    /// Sequence-length override.
    pub seq_len: Option<usize>,
    /// Base seed for deterministic trace synthesis.
    pub seed: u64,
    /// Execution-mode override.
    pub mode: Option<ExecutionMode>,
}

impl ServeRequest {
    /// Parses the JSON body of a serve call.
    ///
    /// # Errors
    ///
    /// A client-facing message naming the offending field.
    pub fn parse(body: &Json) -> Result<ServeRequest, String> {
        let (model, _) = model_field(body)?;
        let mode = match body.get("mode") {
            None => None,
            Some(v) => {
                let name = v.as_str().ok_or("'mode' must be a string")?;
                Some(mode_by_name(name).ok_or_else(|| {
                    format!("unknown mode '{name}' (sprint, no_recompute, dense, oracle)")
                })?)
            }
        };
        Ok(ServeRequest {
            model: model.to_string(),
            layers: bounded_field(body, "layers", MAX_LAYERS)?,
            heads: bounded_field(body, "heads", MAX_HEADS)?,
            seq_len: bounded_field(body, "seq_len", MAX_SEQ_LEN)?,
            seed: seed_field(body)?,
            mode,
        })
    }

    /// Builds the engine-side request this wire request names.
    pub fn to_model_request(&self) -> ModelRequest {
        let config = model_by_name(&self.model).expect("validated at parse time");
        let mut profile = ModelProfile::from_model(&config);
        if let Some(layers) = self.layers {
            profile = profile.with_layers(layers);
        }
        if let Some(heads) = self.heads {
            profile = profile.with_heads(heads);
        }
        if let Some(seq_len) = self.seq_len {
            profile = profile.with_seq_len(seq_len);
        }
        let mut request = ModelRequest::new(profile).with_seed(self.seed);
        if let Some(mode) = self.mode {
            request = request.with_mode(mode);
        }
        request
    }
}

/// Renders a [`PerfRollup`] as the protocol's rollup object. Counters
/// are exact integers; energy renders shortest-round-trip (equal
/// strings ⇔ bit-identical floats).
pub fn rollup_json(rollup: &PerfRollup) -> Json {
    Json::obj([
        ("heads", Json::Int(rollup.heads as i128)),
        ("cycles", Json::Int(rollup.cycles as i128)),
        ("energy_pj", Json::Num(rollup.energy.total().as_pj())),
        ("fetched_vectors", Json::Int(rollup.fetched_vectors as i128)),
        ("reused_vectors", Json::Int(rollup.reused_vectors as i128)),
        ("bytes_fetched", Json::Int(rollup.bytes_fetched as i128)),
        ("queries_pruned", Json::Int(rollup.queries_pruned as i128)),
        ("kept_scores", Json::Int(rollup.kept_scores as i128)),
        ("live_pairs", Json::Int(rollup.live_pairs as i128)),
        ("faults_detected", Json::Int(rollup.faults_detected as i128)),
        ("fault_retries", Json::Int(rollup.fault_retries as i128)),
        (
            "remapped_columns",
            Json::Int(rollup.remapped_columns as i128),
        ),
        ("heads_demoted", Json::Int(rollup.heads_demoted as i128)),
    ])
}

/// Renders a [`ModelResponse`] as the protocol's serve-response body.
pub fn response_json(response: &ModelResponse) -> Json {
    Json::obj([
        ("model", Json::Str(response.model.clone())),
        ("mode", Json::Str(mode_name(response.mode).to_string())),
        ("layers", Json::Int(response.layers.len() as i128)),
        ("total", rollup_json(&response.total)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_request_parses_and_builds() {
        let body = Json::parse(
            r#"{"model":"vit_base","layers":1,"heads":2,"seq_len":32,"seed":7,"mode":"dense"}"#,
        )
        .unwrap();
        let req = ServeRequest::parse(&body).unwrap();
        assert_eq!(req.model, "vit_base");
        assert_eq!(req.seed, 7);
        let model_request = req.to_model_request();
        assert_eq!(model_request.profile().layers(), 1);
        assert_eq!(model_request.profile().heads(), 2);
        assert_eq!(model_request.base_seed(), 7);
        assert_eq!(model_request.mode_override(), Some(ExecutionMode::Dense));
    }

    #[test]
    fn serve_request_rejects_bad_fields() {
        for (body, needle) in [
            (r#"{}"#, "missing 'model'"),
            (r#"{"model":"nope"}"#, "unknown model"),
            (r#"{"model":"synth1","seed":-1}"#, "'seed'"),
            (r#"{"model":"synth1","layers":"x"}"#, "'layers'"),
            (r#"{"model":"synth1","mode":"warp"}"#, "unknown mode"),
            (r#"{"model":"synth1","seq_len":4097}"#, "'seq_len' 4097"),
            (r#"{"model":"synth1","layers":65}"#, "'layers' 65"),
            (r#"{"model":"synth1","heads":1e3}"#, "'heads'"),
            (
                r#"{"model":"synth1","heads":0}"#,
                "'heads' must be at least 1",
            ),
            (
                r#"{"model":"synth1","layers":0}"#,
                "'layers' must be at least 1",
            ),
            (
                r#"{"model":"synth1","seq_len":0}"#,
                "'seq_len' must be at least 1",
            ),
        ] {
            let err = ServeRequest::parse(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
        for (body, needle) in [
            (r#"{"model":"nope"}"#, "unknown model"),
            (r#"{"model":"synth1","seq_len":"x"}"#, "'seq_len'"),
            (r#"{"model":"synth1","prefill":-1}"#, "'prefill'"),
            (r#"{"model":"synth1","seed":"abc"}"#, "'seed'"),
            (r#"{"model":"synth1","seq_len":4097}"#, "'seq_len' 4097"),
            (r#"{"model":"synth1","seq_len":8,"prefill":8}"#, "prefill 8"),
            (
                r#"{"model":"synth1","seq_len":8,"prefill":0}"#,
                "'prefill' must be at least 1",
            ),
            (r#"{"model":"synth1","seq_len":1}"#, "prefill 0"),
        ] {
            let err = DecodeOpen::parse(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
        // The largest catalog shapes stay servable on both endpoints.
        let largest =
            Json::parse(r#"{"model":"synth2","seq_len":4096,"layers":36,"heads":64}"#).unwrap();
        assert!(ServeRequest::parse(&largest).is_ok());
        let open = DecodeOpen::parse(&largest).unwrap();
        assert_eq!((open.seq_len, open.prefill, open.seed), (4096, 2048, 0));
    }

    #[test]
    fn every_catalog_name_resolves() {
        for name in MODEL_NAMES {
            assert!(model_by_name(name).is_some(), "{name}");
        }
        assert!(model_by_name("resnet").is_none());
    }
}
