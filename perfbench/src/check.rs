//! Output checks of the serve workloads.
//!
//! A reply fails the run (it is not a metric) when it disagrees with an
//! oracle: the report counts of a fresh answer must match
//! `map_nest_reference`, its makespan must match `Mesh2D::simulate_phase`
//! summed over the folded phases (phased) or a re-simulation of those
//! phases (overlapped, never above the phased sum), and every answer for
//! one key must carry the same result bytes.

use crate::gen::MapRequest;
use rescomm::{build_plan, map_nest, map_nest_reference, MappingOptions};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{parse, JsonValue};
use rescomm_loopnest::parser::parse_nest;
use rescomm_machine::{CostModel, Mesh2D, OverlapOrder, PhaseSim, ScheduleMode};

/// The parts of a reply the checks and metrics use.
#[derive(Debug, Clone)]
pub struct Reply {
    /// `ok` field.
    pub ok: bool,
    /// `served` field (`fresh`, `cache`, `snapshot`), empty on errors.
    pub served: String,
    /// The `result` object exactly as it appeared on the wire.
    pub result_bytes: String,
    /// The parsed `result` object (`Null` on errors).
    pub result: JsonValue,
}

impl Reply {
    /// Parse a reply line of request `id`.
    pub fn parse(line: &str, id: u64) -> Result<Reply, String> {
        let line = line.trim_end();
        let v = parse(line).map_err(|e| format!("reply to {id} is not JSON: {e}"))?;
        if v.get("id").and_then(JsonValue::as_u64) != Some(id) {
            return Err(format!("reply to {id} carries another id: {line:.120}"));
        }
        let ok = v.get("ok") == Some(&JsonValue::Bool(true));
        let served = v
            .get("served")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        // The server splices the cached result bytes verbatim after this
        // marker, as the last field of the object.
        let result_bytes = line
            .find("\"result\": ")
            .map(|p| line[p + 10..line.len() - 1].to_string())
            .unwrap_or_default();
        let result = v.get("result").cloned().unwrap_or(JsonValue::Null);
        Ok(Reply {
            ok,
            served,
            result_bytes,
            result,
        })
    }

    /// Integer field of the result.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.result.get(key).and_then(JsonValue::as_u64)
    }
}

/// Check a fresh answer to `req` against the oracles.
pub fn check_fresh(req: &MapRequest, reply: &Reply) -> Result<(), String> {
    let nest = parse_nest(&req.nest).map_err(|e| format!("request nest: {e}"))?;
    let opts = MappingOptions::new(2);
    let reference = map_nest_reference(&nest, &opts).report(&nest);
    let want = [
        ("accesses", nest.accesses.len()),
        ("local", reference.n_local),
        ("translation", reference.n_translation),
        ("broadcast", reference.n_broadcast),
        ("scatter", reference.n_scatter),
        ("gather", reference.n_gather),
        ("reduction", reference.n_reduction),
        ("decomposed", reference.n_decomposed),
        ("factors", reference.n_factors),
        ("general", reference.n_general),
        ("incidents", 0),
    ];
    for (key, expect) in want {
        if reply.field(key) != Some(expect as u64) {
            return Err(format!(
                "{}: {key} = {:?}, map_nest_reference says {expect}",
                nest.name,
                reply.field(key)
            ));
        }
    }
    let mapping = map_nest(&nest, &opts).map_err(|e| e.to_string())?;
    let plan = build_plan(&nest, &mapping);
    if reply.field("phases") != Some(plan.phases.len() as u64) {
        return Err(format!(
            "{}: phases = {:?}, plan has {}",
            nest.name,
            reply.field("phases"),
            plan.phases.len()
        ));
    }
    let mesh = Mesh2D::new(req.mesh.0, req.mesh.1, CostModel::paragon());
    let dist = Dist2D::uniform(Dist1D::Block);
    let phases = plan.phases_on_mesh(&mesh, dist, req.mesh, req.bytes);
    let oracle = mesh.simulate_phases(&phases);
    let mode = ScheduleMode::parse(req.mode).ok_or("bad mode")?;
    let got = reply.field("makespan").ok_or("result has no makespan")?;
    let ok = match mode {
        ScheduleMode::Phased => got == oracle,
        ScheduleMode::Overlapped(order) => {
            got == PhaseSim::new(mesh.clone()).simulate_phases_mode(&phases, mode)
                && (order != OverlapOrder::Sorted || got <= oracle)
        }
    };
    if !ok {
        return Err(format!(
            "{}: makespan {got} under {} disagrees with the Mesh2D::simulate_phase oracle ({oracle})",
            nest.name, req.mode
        ));
    }
    Ok(())
}
