//! Trigger attachments.
//!
//! "Attachments can … trigger additional actions within the database or
//! even outside of the database system." Trigger actions are registered
//! "at the factory" as named hooks on the [`dmx_core::Database`]
//! (arbitrary Rust code — including effects outside the database), or use
//! the built-in `audit` action that inserts an audit record into another
//! relation — a cascading modification that itself runs through the full
//! two-step dispatch. A trigger logs nothing of its own: what it modifies
//! carries its own undo records, and external actions are outside the
//! recovery sphere (as in the paper).

use std::sync::Arc;

use dmx_core::HookArgs;
use dmx_core::{
    Attachment, AttachmentInstance, CommonServices, ExecCtx, Modification, RelationDescriptor,
};

use crate::common::tail;
use dmx_types::{AttrList, DmxError, Record, Result, Value};

/// The trigger attachment type.
pub struct Trigger;

/// Which modifications fire the trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireOn {
    pub insert: bool,
    pub update: bool,
    pub delete: bool,
}

/// Instance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDesc {
    pub on: FireOn,
    /// `hook:<name>` or `audit:<relation name>`.
    pub action: String,
}

impl TriggerDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = vec![
            self.on.insert as u8,
            self.on.update as u8,
            self.on.delete as u8,
        ];
        v.extend_from_slice(self.action.as_bytes());
        v
    }

    pub fn decode(b: &[u8]) -> Result<TriggerDesc> {
        if b.len() < 3 {
            return Err(DmxError::Corrupt("short trigger descriptor".into()));
        }
        Ok(TriggerDesc {
            on: FireOn {
                insert: b[0] != 0,
                update: b[1] != 0,
                delete: b[2] != 0,
            },
            action: String::from_utf8(tail(b, 3, "trigger descriptor")?.to_vec())
                .map_err(|_| DmxError::Corrupt("trigger action not utf8".into()))?,
        })
    }
}

impl Trigger {
    fn parse(params: &AttrList) -> Result<TriggerDesc> {
        params.check_allowed(&["on", "action"], "trigger")?;
        let spec = params.get("on").unwrap_or("insert,update,delete");
        let mut on = FireOn {
            insert: false,
            update: false,
            delete: false,
        };
        for ev in spec.split(',') {
            match ev.trim().to_ascii_lowercase().as_str() {
                "insert" => on.insert = true,
                "update" => on.update = true,
                "delete" => on.delete = true,
                "" => {}
                other => {
                    return Err(DmxError::InvalidArg(format!(
                        "trigger event must be insert|update|delete, got {other}"
                    )))
                }
            }
        }
        let action = params.require("action", "trigger")?.to_string();
        if !(action.starts_with("hook:") || action.starts_with("audit:")) {
            return Err(DmxError::InvalidArg(format!(
                "trigger action must be hook:<name> or audit:<relation>, got {action}"
            )));
        }
        Ok(TriggerDesc { on, action })
    }
}

impl Attachment for Trigger {
    fn name(&self) -> &str {
        "trigger"
    }

    fn create_instance(
        &self,
        _ctx: &ExecCtx<'_>,
        _rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        Ok(Self::parse(params)?.encode())
    }

    fn destroy_instance(&self, _services: &Arc<CommonServices>, _inst_desc: &[u8]) -> Result<()> {
        Ok(())
    }

    fn on_modify(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        m: &Modification<'_>,
    ) -> Result<()> {
        let event = m.event();
        let (old, new) = (m.old().map(|(_, r)| r), m.new().map(|(_, r)| r));
        for inst in instances {
            let d = TriggerDesc::decode(&inst.desc)?;
            let fires = match event {
                "insert" => d.on.insert,
                "update" => d.on.update,
                _ => d.on.delete,
            };
            if !fires {
                continue;
            }
            if let Some(hook_name) = d.action.strip_prefix("hook:") {
                let hook = ctx.db.hook(hook_name)?;
                let args = HookArgs {
                    event,
                    relation: rd.id,
                    key: m.key(),
                    old,
                    new,
                };
                hook(ctx, &args)?;
            } else if let Some(target) = d.action.strip_prefix("audit:") {
                let target_rd = ctx.db.catalog().get_by_name(target)?;
                // audit relations have schema (event STRING, relation STRING,
                // info STRING)
                let info = new
                    .or(old)
                    .map(|r| format!("{:?}", r.values))
                    .unwrap_or_default();
                let audit = Record::new(vec![
                    Value::from(event),
                    Value::from(rd.name.as_str()),
                    Value::from(info),
                ]);
                ctx.db.insert(ctx.txn, target_rd.id, audit)?;
            } else {
                return Err(DmxError::Corrupt(format!(
                    "bad trigger action {}",
                    d.action
                )));
            }
        }
        Ok(())
    }
}
