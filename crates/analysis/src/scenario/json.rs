//! Typed JSON parsing for [`ScenarioSpec`].
//!
//! The workspace's offline `serde` shim serializes (derive-generated, matching upstream
//! serde's JSON data model: structs as objects, unit enum variants as strings, data-carrying
//! variants as externally tagged single-key objects) but provides no typed deserialization —
//! JSON only parses into a dynamic [`serde_json::Value`].  This module closes the loop: it
//! decodes a `Value` back into a [`ScenarioSpec`], field by field, so that
//! `spec == from_json(to_json(spec))` holds for every spec (asserted by the round-trip
//! proptest in `tests/scenario_api.rs`).

use super::spec::{
    CheckSpec, ConfigSpec, CsStateSpec, DaemonSpec, FaultEventSpec, FaultPlanSpec,
    FaultScheduleSpec, FaultSpec, InitSpec, InitiatorSpec, InjectSpec, MessageSpec, NodeInit,
    ProtocolSpec, ScenarioSpec, SnapshotSpec, StopSpec, TopologySpec, WarmupSpec, WorkloadSpec,
};
use super::ScenarioError;
use serde_json::Value;

type Parsed<T> = Result<T, ScenarioError>;

fn fail<T>(msg: String) -> Parsed<T> {
    Err(ScenarioError::Json(msg))
}

fn get<'a>(v: &'a Value, key: &str, ctx: &str) -> Parsed<&'a Value> {
    match v.get(key) {
        Some(field) if *field != Value::Null => Ok(field),
        _ => fail(format!("{ctx}: missing field `{key}`")),
    }
}

fn f64_of(v: &Value, ctx: &str) -> Parsed<f64> {
    v.as_f64().ok_or_else(|| ScenarioError::Json(format!("{ctx}: expected a number")))
}

fn u64_of(v: &Value, ctx: &str) -> Parsed<u64> {
    v.as_u64().ok_or_else(|| ScenarioError::Json(format!("{ctx}: expected an unsigned integer")))
}

fn usize_of(v: &Value, ctx: &str) -> Parsed<usize> {
    Ok(u64_of(v, ctx)? as usize)
}

fn u8_of(v: &Value, ctx: &str) -> Parsed<u8> {
    let n = u64_of(v, ctx)?;
    u8::try_from(n).map_err(|_| ScenarioError::Json(format!("{ctx}: {n} exceeds u8")))
}

fn u16_of(v: &Value, ctx: &str) -> Parsed<u16> {
    let n = u64_of(v, ctx)?;
    u16::try_from(n).map_err(|_| ScenarioError::Json(format!("{ctx}: {n} exceeds u16")))
}

fn bool_of(v: &Value, ctx: &str) -> Parsed<bool> {
    v.as_bool().ok_or_else(|| ScenarioError::Json(format!("{ctx}: expected a boolean")))
}

fn string_of(v: &Value, ctx: &str) -> Parsed<String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| ScenarioError::Json(format!("{ctx}: expected a string")))
}

fn array_of<'a>(v: &'a Value, ctx: &str) -> Parsed<&'a [Value]> {
    match v {
        Value::Array(items) => Ok(items),
        _ => fail(format!("{ctx}: expected an array")),
    }
}

fn usize_vec(v: &Value, ctx: &str) -> Parsed<Vec<usize>> {
    array_of(v, ctx)?.iter().map(|item| usize_of(item, ctx)).collect()
}

/// Decodes an externally tagged enum value: either a bare string (unit variant) or a
/// single-key object `{"Variant": payload}`.
fn variant_of<'a>(v: &'a Value, ctx: &str) -> Parsed<(String, Option<&'a Value>)> {
    match v {
        Value::String(tag) => Ok((tag.clone(), None)),
        Value::Object(map) if map.len() == 1 => {
            let (tag, payload) = map.iter().next().expect("len checked");
            Ok((tag.clone(), Some(payload)))
        }
        _ => fail(format!("{ctx}: expected an enum (string or single-key object)")),
    }
}

fn payload<'a>(payload: Option<&'a Value>, tag: &str, ctx: &str) -> Parsed<&'a Value> {
    payload.ok_or_else(|| ScenarioError::Json(format!("{ctx}: variant `{tag}` needs fields")))
}

fn topology_of(v: &Value) -> Parsed<TopologySpec> {
    let ctx = "topology";
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Figure1" => TopologySpec::Figure1,
        "Figure3" => TopologySpec::Figure3,
        "Chain" => TopologySpec::Chain { n: usize_of(get(payload(body, &tag, ctx)?, "n", ctx)?, ctx)? },
        "Star" => TopologySpec::Star { n: usize_of(get(payload(body, &tag, ctx)?, "n", ctx)?, ctx)? },
        "Binary" => {
            TopologySpec::Binary { n: usize_of(get(payload(body, &tag, ctx)?, "n", ctx)?, ctx)? }
        }
        "Balanced" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::Balanced {
                n: usize_of(get(body, "n", ctx)?, ctx)?,
                arity: usize_of(get(body, "arity", ctx)?, ctx)?,
            }
        }
        "Caterpillar" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::Caterpillar {
                spine: usize_of(get(body, "spine", ctx)?, ctx)?,
                legs: usize_of(get(body, "legs", ctx)?, ctx)?,
            }
        }
        "Broom" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::Broom {
                handle: usize_of(get(body, "handle", ctx)?, ctx)?,
                bristles: usize_of(get(body, "bristles", ctx)?, ctx)?,
            }
        }
        "Random" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::Random {
                n: usize_of(get(body, "n", ctx)?, ctx)?,
                seed: u64_of(get(body, "seed", ctx)?, ctx)?,
            }
        }
        "BoundedDegree" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::BoundedDegree {
                n: usize_of(get(body, "n", ctx)?, ctx)?,
                max_children: usize_of(get(body, "max_children", ctx)?, ctx)?,
                seed: u64_of(get(body, "seed", ctx)?, ctx)?,
            }
        }
        "SpanningTree" => {
            let body = payload(body, &tag, ctx)?;
            TopologySpec::SpanningTree {
                n: usize_of(get(body, "n", ctx)?, ctx)?,
                extra_edges: usize_of(get(body, "extra_edges", ctx)?, ctx)?,
                seed: u64_of(get(body, "seed", ctx)?, ctx)?,
            }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn protocol_of(v: &Value) -> Parsed<ProtocolSpec> {
    let ctx = "protocol";
    let (tag, _) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Naive" => ProtocolSpec::Naive,
        "Pusher" => ProtocolSpec::Pusher,
        "NonStab" => ProtocolSpec::NonStab,
        "Ss" => ProtocolSpec::Ss,
        "Ring" => ProtocolSpec::Ring,
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn config_of(v: &Value) -> Parsed<ConfigSpec> {
    let ctx = "config";
    Ok(ConfigSpec {
        k: usize_of(get(v, "k", ctx)?, ctx)?,
        l: usize_of(get(v, "l", ctx)?, ctx)?,
        cmax: match v.get("cmax") {
            Some(Value::Null) | None => None,
            Some(field) => Some(usize_of(field, ctx)?),
        },
        timeout: match v.get("timeout") {
            Some(Value::Null) | None => None,
            Some(field) => Some(u64_of(field, ctx)?),
        },
        literal_pusher_guard: bool_of(get(v, "literal_pusher_guard", ctx)?, ctx)?,
        literal_completion_order: bool_of(get(v, "literal_completion_order", ctx)?, ctx)?,
        unbounded_counter: bool_of(get(v, "unbounded_counter", ctx)?, ctx)?,
    })
}

fn workload_of(v: &Value) -> Parsed<WorkloadSpec> {
    let ctx = "workload";
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Idle" => WorkloadSpec::Idle,
        "Saturated" => {
            let body = payload(body, &tag, ctx)?;
            WorkloadSpec::Saturated {
                units: usize_of(get(body, "units", ctx)?, ctx)?,
                hold: u64_of(get(body, "hold", ctx)?, ctx)?,
            }
        }
        "Uniform" => {
            let body = payload(body, &tag, ctx)?;
            WorkloadSpec::Uniform {
                seed: u64_of(get(body, "seed", ctx)?, ctx)?,
                p_request: f64_of(get(body, "p_request", ctx)?, ctx)?,
                max_units: usize_of(get(body, "max_units", ctx)?, ctx)?,
                max_hold: u64_of(get(body, "max_hold", ctx)?, ctx)?,
            }
        }
        "Needs" => {
            let body = payload(body, &tag, ctx)?;
            WorkloadSpec::Needs {
                needs: usize_vec(get(body, "needs", ctx)?, ctx)?,
                hold: u64_of(get(body, "hold", ctx)?, ctx)?,
            }
        }
        "LeafUniform" => {
            let body = payload(body, &tag, ctx)?;
            WorkloadSpec::LeafUniform {
                seed: u64_of(get(body, "seed", ctx)?, ctx)?,
                p_request: f64_of(get(body, "p_request", ctx)?, ctx)?,
                max_units: usize_of(get(body, "max_units", ctx)?, ctx)?,
                max_hold: u64_of(get(body, "max_hold", ctx)?, ctx)?,
            }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn daemon_of(v: &Value, ctx: &str) -> Parsed<DaemonSpec> {
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "RoundRobin" => DaemonSpec::RoundRobin,
        "Synchronous" => DaemonSpec::Synchronous,
        "RandomFair" => {
            let body = payload(body, &tag, ctx)?;
            DaemonSpec::RandomFair { seed: u64_of(get(body, "seed", ctx)?, ctx)? }
        }
        "Adversarial" => {
            let body = payload(body, &tag, ctx)?;
            DaemonSpec::Adversarial {
                victims: usize_vec(get(body, "victims", ctx)?, ctx)?,
                patience: u64_of(get(body, "patience", ctx)?, ctx)?,
            }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn cs_state_of(v: &Value) -> Parsed<CsStateSpec> {
    let ctx = "init.nodes.state";
    let (tag, _) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Out" => CsStateSpec::Out,
        "Req" => CsStateSpec::Req,
        "In" => CsStateSpec::In,
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn message_of(v: &Value) -> Parsed<MessageSpec> {
    let ctx = "init.inject.message";
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "ResT" => MessageSpec::ResT,
        "PushT" => MessageSpec::PushT,
        "PrioT" => MessageSpec::PrioT,
        "Ctrl" => {
            let body = payload(body, &tag, ctx)?;
            MessageSpec::Ctrl {
                c: u64_of(get(body, "c", ctx)?, ctx)?,
                r: bool_of(get(body, "r", ctx)?, ctx)?,
                pt: u64_of(get(body, "pt", ctx)?, ctx)?,
                ppr: u8_of(get(body, "ppr", ctx)?, ctx)?,
            }
        }
        "Garbage" => {
            let body = payload(body, &tag, ctx)?;
            MessageSpec::Garbage { tag: u16_of(get(body, "tag", ctx)?, ctx)? }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn init_of(v: &Value) -> Parsed<InitSpec> {
    let ctx = "init";
    let nodes = array_of(get(v, "nodes", ctx)?, ctx)?
        .iter()
        .map(|item| {
            Ok(NodeInit {
                node: usize_of(get(item, "node", ctx)?, ctx)?,
                state: cs_state_of(get(item, "state", ctx)?)?,
                need: usize_of(get(item, "need", ctx)?, ctx)?,
                rset: usize_vec(get(item, "rset", ctx)?, ctx)?,
            })
        })
        .collect::<Parsed<Vec<_>>>()?;
    let inject = array_of(get(v, "inject", ctx)?, ctx)?
        .iter()
        .map(|item| {
            Ok(InjectSpec {
                from: usize_of(get(item, "from", ctx)?, ctx)?,
                channel: usize_of(get(item, "channel", ctx)?, ctx)?,
                message: message_of(get(item, "message", ctx)?)?,
            })
        })
        .collect::<Parsed<Vec<_>>>()?;
    Ok(InitSpec { bootstrapped_root: bool_of(get(v, "bootstrapped_root", ctx)?, ctx)?, nodes, inject })
}

fn warmup_of(v: &Value) -> Parsed<WarmupSpec> {
    let ctx = "warmup";
    Ok(WarmupSpec {
        max_steps: u64_of(get(v, "max_steps", ctx)?, ctx)?,
        window: match v.get("window") {
            Some(Value::Null) | None => None,
            Some(field) => Some(u64_of(field, ctx)?),
        },
        daemon: match v.get("daemon") {
            Some(Value::Null) | None => None,
            Some(field) => Some(daemon_of(field, "warmup.daemon")?),
        },
    })
}

fn fault_of(v: &Value) -> Parsed<FaultSpec> {
    let ctx = "fault";
    let plan = fault_plan_of(get(v, "plan", ctx)?, "fault.plan")?;
    Ok(FaultSpec { seed: u64_of(get(v, "seed", ctx)?, ctx)?, plan })
}

fn fault_plan_of(v: &Value, ctx: &str) -> Parsed<FaultPlanSpec> {
    let (tag, _) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Catastrophic" => FaultPlanSpec::Catastrophic,
        "Moderate" => FaultPlanSpec::Moderate,
        "MessageOnly" => FaultPlanSpec::MessageOnly,
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn fault_event_of(v: &Value) -> Parsed<FaultEventSpec> {
    let ctx = "fault_schedule.epochs";
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "TargetTokenPath" => FaultEventSpec::TargetTokenPath,
        "JoinLeaf" => FaultEventSpec::JoinLeaf,
        "LeaveLeaf" => FaultEventSpec::LeaveLeaf,
        "RewireEdge" => FaultEventSpec::RewireEdge,
        "Transient" => {
            let body = payload(body, &tag, ctx)?;
            FaultEventSpec::Transient {
                plan: fault_plan_of(get(body, "plan", ctx)?, "fault_schedule.epochs.plan")?,
            }
        }
        "MessageBurst" => {
            let body = payload(body, &tag, ctx)?;
            FaultEventSpec::MessageBurst {
                drop: f64_of(get(body, "drop", ctx)?, ctx)?,
                duplicate: f64_of(get(body, "duplicate", ctx)?, ctx)?,
                garbage: usize_of(get(body, "garbage", ctx)?, ctx)?,
            }
        }
        "Crash" => {
            let body = payload(body, &tag, ctx)?;
            FaultEventSpec::Crash {
                count: usize_of(get(body, "count", ctx)?, ctx)?,
                lose_incoming: bool_of(get(body, "lose_incoming", ctx)?, ctx)?,
            }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

/// Decodes a [`FaultScheduleSpec`] document — also the format the CLI's `--fault-schedule`
/// file uses.
pub fn schedule_from_value(v: &Value) -> Parsed<FaultScheduleSpec> {
    let ctx = "fault_schedule";
    Ok(FaultScheduleSpec {
        seed: u64_of(get(v, "seed", ctx)?, ctx)?,
        epochs: array_of(get(v, "epochs", ctx)?, ctx)?
            .iter()
            .map(fault_event_of)
            .collect::<Parsed<Vec<_>>>()?,
        max_steps: u64_of(get(v, "max_steps", ctx)?, ctx)?,
        window: match v.get("window") {
            Some(Value::Null) | None => None,
            Some(field) => Some(u64_of(field, ctx)?),
        },
    })
}

fn snapshots_of(v: &Value) -> Parsed<SnapshotSpec> {
    let ctx = "snapshots";
    let initiator = {
        let (tag, _) = variant_of(get(v, "initiator", ctx)?, "snapshots.initiator")?;
        match tag.as_str() {
            "Root" => InitiatorSpec::Root,
            "Rotate" => InitiatorSpec::Rotate,
            other => return fail(format!("snapshots.initiator: unknown variant `{other}`")),
        }
    };
    Ok(SnapshotSpec { interval: u64_of(get(v, "interval", ctx)?, ctx)?, initiator })
}

fn stop_of(v: &Value) -> Parsed<StopSpec> {
    let ctx = "stop";
    let (tag, body) = variant_of(v, ctx)?;
    Ok(match tag.as_str() {
        "Steps" => {
            StopSpec::Steps { steps: u64_of(get(payload(body, &tag, ctx)?, "steps", ctx)?, ctx)? }
        }
        "Quiescent" => {
            let body = payload(body, &tag, ctx)?;
            StopSpec::Quiescent {
                max_steps: u64_of(get(body, "max_steps", ctx)?, ctx)?,
                grace: u64_of(get(body, "grace", ctx)?, ctx)?,
            }
        }
        "CsEntries" => {
            let body = payload(body, &tag, ctx)?;
            StopSpec::CsEntries {
                entries: u64_of(get(body, "entries", ctx)?, ctx)?,
                max_steps: u64_of(get(body, "max_steps", ctx)?, ctx)?,
            }
        }
        "Predicate" => {
            let body = payload(body, &tag, ctx)?;
            StopSpec::Predicate {
                name: string_of(get(body, "name", ctx)?, ctx)?,
                max_steps: u64_of(get(body, "max_steps", ctx)?, ctx)?,
                sustained_for: u64_of(get(body, "sustained_for", ctx)?, ctx)?,
            }
        }
        other => return fail(format!("{ctx}: unknown variant `{other}`")),
    })
}

fn check_of(v: &Value) -> Parsed<CheckSpec> {
    let ctx = "check";
    Ok(CheckSpec {
        max_configurations: usize_of(get(v, "max_configurations", ctx)?, ctx)?,
        max_depth: usize_of(get(v, "max_depth", ctx)?, ctx)?,
        properties: array_of(get(v, "properties", ctx)?, ctx)?
            .iter()
            .map(|item| string_of(item, ctx))
            .collect::<Parsed<Vec<_>>>()?,
        // Optional for backward compatibility with pre-liveness spec documents.
        from_legitimate: match v.get("from_legitimate") {
            Some(Value::Null) | None => false,
            Some(field) => bool_of(field, ctx)?,
        },
    })
}

/// Decodes a parsed JSON document into a [`ScenarioSpec`].
pub fn spec_from_value(v: &Value) -> Parsed<ScenarioSpec> {
    let ctx = "spec";
    Ok(ScenarioSpec {
        name: string_of(get(v, "name", ctx)?, "name")?,
        topology: topology_of(get(v, "topology", ctx)?)?,
        protocol: protocol_of(get(v, "protocol", ctx)?)?,
        config: config_of(get(v, "config", ctx)?)?,
        workload: workload_of(get(v, "workload", ctx)?)?,
        daemon: daemon_of(get(v, "daemon", ctx)?, "daemon")?,
        init: match v.get("init") {
            Some(Value::Null) | None => None,
            Some(field) => Some(init_of(field)?),
        },
        warmup: match v.get("warmup") {
            Some(Value::Null) | None => None,
            Some(field) => Some(warmup_of(field)?),
        },
        fault: match v.get("fault") {
            Some(Value::Null) | None => None,
            Some(field) => Some(fault_of(field)?),
        },
        // Optional for backward compatibility with pre-schedule spec documents.
        fault_schedule: match v.get("fault_schedule") {
            Some(Value::Null) | None => None,
            Some(field) => Some(schedule_from_value(field)?),
        },
        // Optional for backward compatibility with pre-snapshot spec documents.
        snapshots: match v.get("snapshots") {
            Some(Value::Null) | None => None,
            Some(field) => Some(snapshots_of(field)?),
        },
        stop: stop_of(get(v, "stop", ctx)?)?,
        metrics: match v.get("metrics") {
            Some(Value::Null) | None => Vec::new(),
            Some(field) => array_of(field, "metrics")?
                .iter()
                .map(|item| string_of(item, "metrics"))
                .collect::<Parsed<Vec<_>>>()?,
        },
        // Optional for backward compatibility with pre-monitor spec documents.
        properties: match v.get("properties") {
            Some(Value::Null) | None => Vec::new(),
            Some(field) => array_of(field, "properties")?
                .iter()
                .map(|item| string_of(item, "properties"))
                .collect::<Parsed<Vec<_>>>()?,
        },
        trials: u64_of(get(v, "trials", ctx)?, "trials")?,
        base_seed: u64_of(get(v, "base_seed", ctx)?, "base_seed")?,
        check: check_of(get(v, "check", ctx)?)?,
    })
}
