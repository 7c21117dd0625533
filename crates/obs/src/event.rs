//! The typed trace-event schema.
//!
//! Every record in a JSONL trace is one [`TraceEvent`] plus the emitter's
//! `seq`/`t_ns` envelope. `to_json`/`from_json` are inverses for finite
//! float payloads (non-finite floats serialize as `null` and parse back as
//! NaN — a divergence event is the one place that matters).

use crate::json::Json;

/// One structured observation in a run's trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run header: what ran, with which seed and arguments.
    Manifest { run: String, seed: u64, args: Vec<(String, String)> },
    /// A monotonically accumulated integer quantity.
    Counter { name: String, value: i64 },
    /// A sampled float quantity.
    Gauge { name: String, value: f64 },
    /// A named interval: `start_ns` on the emitting clock, `dur_ns` long.
    Span { name: String, start_ns: u64, dur_ns: u64 },
    /// One aggregated profiler row (see [`crate::profile::ProfileReport`]).
    OpStat { name: String, phase: String, count: u64, total_ns: u64, bytes: u64 },
    /// A completed optimizer step.
    Batch { epoch: u64, batch: u64, global_step: u64, loss: f64, grad_norm: Option<f64>, lr: f64 },
    /// A completed epoch (post-validation).
    Epoch { epoch: u64, train_loss: f64, val_loss: Option<f64>, lr: f64 },
    /// A divergence-healing action: snapshot restored, learning rate backed
    /// off. `loss` is the non-finite value that triggered it.
    Divergence { epoch: u64, global_step: u64, loss: f64, retries_used: u64, lr_scale: f64 },
    /// A checkpoint file was durably written.
    Checkpoint { path: String },
    /// A self-healing action taken in response to a fault. Only the
    /// checkpoint `degrade` action reaches a trace, via `TraceHooks`.
    Recovery { action: String, path: String, detail: String },
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn u(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn opt_f(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::Float(x),
        None => Json::Null,
    }
}

fn str_field(j: &Json, k: &str) -> Result<String, String> {
    j.get(k)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{k}`"))
}

fn u64_field(j: &Json, k: &str) -> Result<u64, String> {
    j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing or non-integer field `{k}`"))
}

fn i64_field(j: &Json, k: &str) -> Result<i64, String> {
    j.get(k).and_then(Json::as_i64).ok_or_else(|| format!("missing or non-integer field `{k}`"))
}

/// Float field; `null` decodes as NaN (the writer's non-finite encoding).
fn f64_field(j: &Json, k: &str) -> Result<f64, String> {
    match j.get(k) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v.as_f64().ok_or_else(|| format!("non-numeric field `{k}`")),
        None => Err(format!("missing float field `{k}`")),
    }
}

/// Optional float field; absent or `null` is `None`.
fn opt_f64_field(j: &Json, k: &str) -> Result<Option<f64>, String> {
    match j.get(k) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| format!("non-numeric field `{k}`")),
    }
}

impl TraceEvent {
    /// The schema tag stored in the record's `type` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Manifest { .. } => "manifest",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::Gauge { .. } => "gauge",
            TraceEvent::Span { .. } => "span",
            TraceEvent::OpStat { .. } => "op_stat",
            TraceEvent::Batch { .. } => "batch",
            TraceEvent::Epoch { .. } => "epoch",
            TraceEvent::Divergence { .. } => "divergence",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::Recovery { .. } => "recovery",
        }
    }

    /// The record's fields, `type` first, in pinned schema order.
    pub(crate) fn fields(&self) -> Vec<(String, Json)> {
        let mut out = vec![("type".to_string(), s(self.kind()))];
        match self {
            TraceEvent::Manifest { run, seed, args } => {
                out.push(("run".into(), s(run)));
                out.push(("seed".into(), u(*seed)));
                out.push((
                    "args".into(),
                    Json::Obj(args.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
                ));
            }
            TraceEvent::Counter { name, value } => {
                out.push(("name".into(), s(name)));
                out.push(("value".into(), Json::Int(*value)));
            }
            TraceEvent::Gauge { name, value } => {
                out.push(("name".into(), s(name)));
                out.push(("value".into(), Json::Float(*value)));
            }
            TraceEvent::Span { name, start_ns, dur_ns } => {
                out.push(("name".into(), s(name)));
                out.push(("start_ns".into(), u(*start_ns)));
                out.push(("dur_ns".into(), u(*dur_ns)));
            }
            TraceEvent::OpStat { name, phase, count, total_ns, bytes } => {
                out.push(("name".into(), s(name)));
                out.push(("phase".into(), s(phase)));
                out.push(("count".into(), u(*count)));
                out.push(("total_ns".into(), u(*total_ns)));
                out.push(("bytes".into(), u(*bytes)));
            }
            TraceEvent::Batch { epoch, batch, global_step, loss, grad_norm, lr } => {
                out.push(("epoch".into(), u(*epoch)));
                out.push(("batch".into(), u(*batch)));
                out.push(("global_step".into(), u(*global_step)));
                out.push(("loss".into(), Json::Float(*loss)));
                out.push(("grad_norm".into(), opt_f(*grad_norm)));
                out.push(("lr".into(), Json::Float(*lr)));
            }
            TraceEvent::Epoch { epoch, train_loss, val_loss, lr } => {
                out.push(("epoch".into(), u(*epoch)));
                out.push(("train_loss".into(), Json::Float(*train_loss)));
                out.push(("val_loss".into(), opt_f(*val_loss)));
                out.push(("lr".into(), Json::Float(*lr)));
            }
            TraceEvent::Divergence { epoch, global_step, loss, retries_used, lr_scale } => {
                out.push(("epoch".into(), u(*epoch)));
                out.push(("global_step".into(), u(*global_step)));
                out.push(("loss".into(), Json::Float(*loss)));
                out.push(("retries_used".into(), u(*retries_used)));
                out.push(("lr_scale".into(), Json::Float(*lr_scale)));
            }
            TraceEvent::Checkpoint { path } => {
                out.push(("path".into(), s(path)));
            }
            TraceEvent::Recovery { action, path, detail } => {
                out.push(("action".into(), s(action)));
                out.push(("path".into(), s(path)));
                out.push(("detail".into(), s(detail)));
            }
        }
        out
    }

    /// Serialize to a JSON object (without the emitter envelope).
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }

    /// Decode a record. Unknown extra fields (e.g. the `seq`/`t_ns`
    /// envelope) are ignored; a missing or unknown `type` is an error.
    pub fn from_json(j: &Json) -> Result<TraceEvent, String> {
        let kind = str_field(j, "type")?;
        match kind.as_str() {
            "manifest" => {
                let args = j
                    .get("args")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| "missing object field `args`".to_string())?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|v| (k.clone(), v.to_string()))
                            .ok_or_else(|| format!("non-string manifest arg `{k}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(TraceEvent::Manifest {
                    run: str_field(j, "run")?,
                    seed: u64_field(j, "seed")?,
                    args,
                })
            }
            "counter" => Ok(TraceEvent::Counter {
                name: str_field(j, "name")?,
                value: i64_field(j, "value")?,
            }),
            "gauge" => {
                Ok(TraceEvent::Gauge { name: str_field(j, "name")?, value: f64_field(j, "value")? })
            }
            "span" => Ok(TraceEvent::Span {
                name: str_field(j, "name")?,
                start_ns: u64_field(j, "start_ns")?,
                dur_ns: u64_field(j, "dur_ns")?,
            }),
            "op_stat" => Ok(TraceEvent::OpStat {
                name: str_field(j, "name")?,
                phase: str_field(j, "phase")?,
                count: u64_field(j, "count")?,
                total_ns: u64_field(j, "total_ns")?,
                bytes: u64_field(j, "bytes")?,
            }),
            "batch" => Ok(TraceEvent::Batch {
                epoch: u64_field(j, "epoch")?,
                batch: u64_field(j, "batch")?,
                global_step: u64_field(j, "global_step")?,
                loss: f64_field(j, "loss")?,
                grad_norm: opt_f64_field(j, "grad_norm")?,
                lr: f64_field(j, "lr")?,
            }),
            "epoch" => Ok(TraceEvent::Epoch {
                epoch: u64_field(j, "epoch")?,
                train_loss: f64_field(j, "train_loss")?,
                val_loss: opt_f64_field(j, "val_loss")?,
                lr: f64_field(j, "lr")?,
            }),
            "divergence" => Ok(TraceEvent::Divergence {
                epoch: u64_field(j, "epoch")?,
                global_step: u64_field(j, "global_step")?,
                loss: f64_field(j, "loss")?,
                retries_used: u64_field(j, "retries_used")?,
                lr_scale: f64_field(j, "lr_scale")?,
            }),
            "checkpoint" => Ok(TraceEvent::Checkpoint { path: str_field(j, "path")? }),
            "recovery" => Ok(TraceEvent::Recovery {
                action: str_field(j, "action")?,
                path: str_field(j, "path")?,
                detail: str_field(j, "detail")?,
            }),
            other => Err(format!("unknown trace event type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Manifest {
                run: "profile".into(),
                seed: 7,
                args: vec![("city".into(), "NYC".into()), ("scale".into(), "Quick".into())],
            },
            TraceEvent::Counter { name: "batches".into(), value: 12 },
            TraceEvent::Gauge { name: "loss".into(), value: 0.125 },
            TraceEvent::Span { name: "epoch0".into(), start_ns: 10, dur_ns: 990 },
            TraceEvent::OpStat {
                name: "matmul".into(),
                phase: "forward".into(),
                count: 24,
                total_ns: 480,
                bytes: 98304,
            },
            TraceEvent::Batch {
                epoch: 1,
                batch: 3,
                global_step: 7,
                loss: 0.5,
                grad_norm: Some(1.25),
                lr: 0.001,
            },
            TraceEvent::Batch {
                epoch: 0,
                batch: 0,
                global_step: 1,
                loss: 2.0,
                grad_norm: None,
                lr: 0.001,
            },
            TraceEvent::Epoch { epoch: 1, train_loss: 0.75, val_loss: Some(0.5), lr: 0.001 },
            TraceEvent::Epoch { epoch: 2, train_loss: 0.25, val_loss: None, lr: 0.0005 },
            TraceEvent::Divergence {
                epoch: 1,
                global_step: 9,
                loss: 12.5,
                retries_used: 1,
                lr_scale: 0.5,
            },
            TraceEvent::Checkpoint { path: "ckpt/step-000010.ckpt".into() },
            TraceEvent::Recovery {
                action: "quarantine".into(),
                path: "ckpt/ckpt-0000000010.sthsl".into(),
                detail: "renamed to ckpt-0000000010.sthsl.corrupt".into(),
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_json_text() {
        for ev in all_variants() {
            let text = ev.to_json().render();
            let back = TraceEvent::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, ev, "through {text}");
        }
    }

    #[test]
    fn envelope_fields_are_ignored_on_decode() {
        let text = r#"{"seq":3,"t_ns":99,"type":"counter","name":"n","value":-4}"#;
        let ev = TraceEvent::from_json(&parse(text).unwrap()).unwrap();
        assert_eq!(ev, TraceEvent::Counter { name: "n".into(), value: -4 });
    }

    #[test]
    fn non_finite_divergence_loss_decodes_as_nan() {
        let ev = TraceEvent::Divergence {
            epoch: 0,
            global_step: 1,
            loss: f64::NAN,
            retries_used: 1,
            lr_scale: 0.5,
        };
        let text = ev.to_json().render();
        assert!(text.contains("\"loss\":null"));
        let back = TraceEvent::from_json(&parse(&text).unwrap()).unwrap();
        match back {
            TraceEvent::Divergence { loss, .. } => assert!(loss.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_type_and_missing_fields_are_errors() {
        assert!(TraceEvent::from_json(&parse(r#"{"type":"widget"}"#).unwrap()).is_err());
        assert!(TraceEvent::from_json(&parse(r#"{"type":"counter","name":"n"}"#).unwrap()).is_err());
        assert!(TraceEvent::from_json(&parse(r#"{"name":"n"}"#).unwrap()).is_err());
    }
}
