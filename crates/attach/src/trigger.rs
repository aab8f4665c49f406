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

use dmx_core::HookArgs;
use dmx_core::{Attachment, AttachmentInstance, ExecCtx, Modification, RelationDescriptor};
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

/// A trigger instance as its attribute list describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDesc {
    pub on: FireOn,
    /// `hook:<name>` or `audit:<relation name>`.
    pub action: String,
}

impl TriggerDesc {
    /// The one parser: the `on` events (all three by default) and the
    /// `action`.
    fn from_attrs(attrs: &AttrList) -> Result<TriggerDesc> {
        attrs.check_allowed(&["on", "action"], "trigger")?;
        let spec = attrs.get("on").unwrap_or("insert,update,delete");
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
        let action = attrs.require("action", "trigger")?.to_string();
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
    ) -> Result<AttrList> {
        TriggerDesc::from_attrs(params)?;
        Ok(params.clone())
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
            let d = inst.parsed(TriggerDesc::from_attrs)?;
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
