//! Online integrity scrubbing and the automatic repair pipeline.
//!
//! The extension architecture makes self-healing storage almost free:
//! every access path is *derived* state, rebuildable from its base
//! relation through the same generic registration interfaces that
//! created it, and every storage structure announces its page files
//! through [`StorageMethod::storage_files`] / `Attachment::storage_files`.
//! The scrubber walks those pages through the buffer manager (verifying
//! checksums exactly as a normal read would), cross-checks base and
//! attachment agreement through the generic scan interfaces, and fences
//! damaged relations *proactively* — before a query trips over them.
//!
//! The repair pipeline then classifies the damage:
//!
//! * **attachment damage** — the instance is dropped and re-created
//!   through the ordinary attachment registration path, handed the
//!   attribute list the catalog stores for it without the keys the
//!   engine assigned ([`crate::ASSIGNED_KEYS`]), so the rebuild is
//!   WAL-logged like any DDL and a crash mid-repair is just another
//!   fault-sweep point;
//! * **base damage** — the storage method salvages every readable record
//!   ([`StorageMethod::salvage`]), the records are reloaded into a fresh
//!   instance (built inside a temporary relation so the loader's WAL
//!   records never resolve against the damaged file at restart), the
//!   descriptor is swapped, and the page-backed attachments are rebuilt
//!   on top; unreadable records are counted as lost.
//!
//! A successful repair verifies itself with another scrub pass and lifts
//! the quarantine. Retries use the deterministic yield-based backoff of
//! the fault layer; exhausted retries (or an unsalvageable storage
//! method) produce the typed terminal state
//! [`DmxError::RepairImpossible`] and the relation stays fenced.

use std::collections::BTreeSet;
use std::sync::Arc;

use dmx_lock::{LockMode, LockName};
use dmx_txn::Transaction;
use dmx_types::obs::ObsEvent;
use dmx_types::{fault, AttrList, DmxError, PageId, Record, RelationId, Result};

use crate::access::AccessQuery;
use crate::attachment::{Attachment, ASSIGNED_KEYS};
use crate::context::ExecCtx;
use crate::database::Database;
use crate::descriptor::AttachmentInstance;
use crate::descriptor::RelationDescriptor;
use crate::undo::{encode_drop_att_intent, encode_drop_sm_intent};

/// How many times the repair pipeline re-drives itself before declaring
/// the damage permanent.
pub const MAX_REPAIR_ATTEMPTS: u32 = 3;

/// What the repair pipeline did to heal a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// No structural repair was needed (verification alone settled it).
    None,
    /// Damaged attachment instances were dropped and re-created from the
    /// intact base through the ordinary registration path.
    Rebuild,
    /// The base storage was salvaged record-by-record into a fresh
    /// instance and every page-backed attachment rebuilt on top.
    Salvage,
}

impl RepairAction {
    /// Stable lowercase label (the `sys.repairs` `action` column).
    pub fn as_str(&self) -> &'static str {
        match self {
            RepairAction::None => "none",
            RepairAction::Rebuild => "rebuild",
            RepairAction::Salvage => "salvage",
        }
    }
}

/// One completed repair attempt series, recorded in `sys.repairs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    pub relation: RelationId,
    pub name: String,
    pub action: RepairAction,
    /// True when the relation left repair healthy (quarantine lifted);
    /// false is the terminal state — permanently damaged, still fenced.
    pub healthy: bool,
    /// Repair attempts consumed (1-based).
    pub attempts: u32,
    /// Records present after the repair (salvage: records recovered).
    pub records_recovered: u64,
    /// Records the salvage scan could not read back.
    pub records_lost: u64,
    /// The damage that triggered the repair, or the terminal reason.
    pub detail: String,
}

/// The result of scrubbing one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    pub relation: RelationId,
    pub name: String,
    /// Pages that verified clean across base and attachment files.
    pub pages_checked: u64,
    /// Human-readable damage findings, deterministic order (base files
    /// first, then attachments in type-id order).
    pub damage: Vec<String>,
    /// True when this scrub pass fenced the relation off.
    pub quarantined: bool,
}

impl ScrubReport {
    /// True when the scrub found nothing wrong.
    pub fn healthy(&self) -> bool {
        self.damage.is_empty()
    }
}

/// Walks every page of `files` through the buffer manager, recording a
/// damage finding for each page whose read fails checksum verification
/// even after the buffer manager's retries.
fn walk_files(
    db: &Arc<Database>,
    files: &[dmx_types::FileId],
    what: &str,
    report: &mut ScrubReport,
) -> Result<()> {
    let pool = &db.services().pool;
    for &file in files {
        let page_count = match pool.disk().page_count(file) {
            Ok(n) => n,
            Err(DmxError::NotFound(_)) => continue,
            Err(e) => return Err(e),
        };
        for page_no in 0..page_count {
            db.counters().scrub_pages.incr();
            match pool.fetch(PageId::new(file, page_no)) {
                Ok(_pin) => report.pages_checked += 1,
                Err(DmxError::Corrupt(reason)) => report
                    .damage
                    .push(format!("{what}: page {page_no} of {file:?}: {reason}")),
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// True when any page of `files` fails checksum verification (the repair
/// classifier's question; needs no transaction).
fn files_damaged(db: &Arc<Database>, files: &[dmx_types::FileId]) -> Result<bool> {
    let mut probe = ScrubReport {
        relation: RelationId(0),
        name: String::new(),
        pages_checked: 0,
        damage: Vec::new(),
        quarantined: false,
    };
    walk_files(db, files, "probe", &mut probe)?;
    Ok(!probe.damage.is_empty())
}

/// The base relation's record-key set via the storage method's generic
/// scan (empty projection: keys are all the cross-check needs).
fn base_key_set(ctx: &ExecCtx<'_>, rd: &RelationDescriptor) -> Result<BTreeSet<Vec<u8>>> {
    let sm = ctx.db.registry().storage(rd.sm)?;
    let mut scan = sm.open_scan(ctx, rd, crate::access::KeyRange::all(), None, Some(vec![]))?;
    let mut keys = BTreeSet::new();
    while let Some(item) = scan.next(ctx)? {
        keys.insert(item.key.as_bytes().to_vec());
    }
    Ok(keys)
}

/// The record-key set served by one attachment instance, via its generic
/// scan, and whether the path names *every* record: one whose scan
/// re-derives its item from a record (`supports_versioned_read` — the
/// B-tree index) does, while any other may leave records out (an R-tree
/// skips NULL rectangles, a join index unpartnered rows). `None` when
/// the instance does not expose record-keyed full scans (derived items,
/// key-equals-only paths, a join index's right side) — those are
/// skipped.
fn attachment_key_set(
    ctx: &ExecCtx<'_>,
    rd: &RelationDescriptor,
    att: &dyn Attachment,
    inst: &AttachmentInstance,
) -> Result<Option<(BTreeSet<Vec<u8>>, bool)>> {
    let mut scan = match att.open_scan(ctx, rd, inst, &AccessQuery::All) {
        Ok(s) => s,
        Err(DmxError::Unsupported(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    if !scan.items_are_record_keys() {
        return Ok(None);
    }
    let mut keys = BTreeSet::new();
    while let Some(item) = scan.next(ctx)? {
        keys.insert(item.key.as_bytes().to_vec());
    }
    Ok(Some((keys, scan.supports_versioned_read())))
}

/// Scrubs one relation: verifies every base and attachment page's
/// checksum through the buffer manager, then (when all pages are clean)
/// cross-checks every record-keyed attachment against the base: one
/// that names every record must name exactly the base's, any other no
/// record the base lacks. Damage quarantines the relation proactively,
/// exactly as a failed production read would.
///
/// Online: runs inside the caller's transaction under a relation S lock,
/// so concurrent readers proceed and writers wait out the pass.
pub fn scrub_relation(
    db: &Arc<Database>,
    txn: &Arc<Transaction>,
    name: &str,
) -> Result<ScrubReport> {
    txn.check_active()?;
    let rd = db.catalog().get_by_name(name)?;
    let ctx = ExecCtx { db, txn };
    ctx.lock(LockName::Relation(rd.id), LockMode::S)?;
    db.counters().scrub_runs.incr();
    let mut report = ScrubReport {
        relation: rd.id,
        name: rd.name.clone(),
        pages_checked: 0,
        damage: Vec::new(),
        quarantined: false,
    };
    let sm = db.registry().storage(rd.sm)?;
    walk_files(db, &sm.storage_files(&rd.sm_desc), "base", &mut report)?;
    for (att_id, insts) in rd.attached_types() {
        let att = db.registry().attachment(att_id)?;
        for inst in insts {
            walk_files(
                db,
                &att.storage_files(&inst.desc),
                &format!("attachment {}", inst.name),
                &mut report,
            )?;
        }
    }
    // Cross-check only when every page verified: a torn page already
    // condemns the relation, and scanning through it would fail with a
    // less precise finding.
    if report.damage.is_empty() {
        let base_keys = base_key_set(&ctx, &rd)?;
        for (att_id, insts) in rd.attached_types() {
            let att = db.registry().attachment(att_id)?;
            for inst in insts {
                if let Some((keys, every)) = attachment_key_set(&ctx, &rd, &*att, inst)? {
                    let agrees = if every {
                        keys == base_keys
                    } else {
                        keys.is_subset(&base_keys)
                    };
                    if !agrees {
                        report.damage.push(format!(
                            "attachment {} disagrees with base ({} vs {} records)",
                            inst.name,
                            keys.len(),
                            base_keys.len()
                        ));
                    }
                }
            }
        }
    }
    if let Some(first) = report.damage.first() {
        db.counters().scrub_corrupt.incr();
        let _ = db.quarantine(rd.id, format!("scrub: {first}"));
        report.quarantined = true;
    }
    db.metrics().emit(ObsEvent {
        layer: "core",
        op: "scrub",
        target: rd.id.0 as u64,
        detail: report.damage.len() as u64,
    });
    Ok(report)
}

/// Scrubs every page-backed user relation (deterministic catalog order),
/// skipping relations already fenced off.
pub fn scrub_all(db: &Arc<Database>, txn: &Arc<Transaction>) -> Result<Vec<ScrubReport>> {
    let mut out = Vec::new();
    for rd in db.catalog().list() {
        if db.check_not_quarantined(rd.id).is_err() {
            continue;
        }
        let sm = db.registry().storage(rd.sm)?;
        let page_backed = !sm.storage_files(&rd.sm_desc).is_empty()
            || rd.attached_types().any(|(att_id, insts)| {
                db.registry().attachment(att_id).is_ok_and(|att| {
                    insts
                        .iter()
                        .any(|inst| !att.storage_files(&inst.desc).is_empty())
                })
            });
        if !page_backed {
            continue;
        }
        out.push(scrub_relation(db, txn, &rd.name)?);
    }
    Ok(out)
}

/// One damaged-attachment rebuild target: (attachment type name,
/// instance name, the DDL list that created it).
type RebuildTarget = (String, String, AttrList);

/// Collects the rebuild targets among `rd`'s page-backed attachment
/// instances, each with its stored list without the assigned keys: what
/// its `create_instance` was handed. With `only_damaged`, instances whose
/// pages all verify are skipped; otherwise every page-backed instance is
/// a target (the logical-mismatch case, where checksums are clean but an
/// attachment disagrees with the base). An instance whose files another
/// instance holds too (a join index's two sides) is no target: a new one
/// would leave the other holding the old files. When such an instance
/// *is* damaged, the relation is unrepairable — the error propagates as
/// the terminal verdict.
fn rebuild_targets(
    db: &Arc<Database>,
    rd: &RelationDescriptor,
    only_damaged: bool,
) -> Result<Vec<RebuildTarget>> {
    let mut targets = Vec::new();
    for (att_id, insts) in rd.attached_types() {
        let att = db.registry().attachment(att_id)?;
        for inst in insts {
            let files = att.storage_files(&inst.desc);
            if files.is_empty() {
                continue; // stateless instances cannot suffer media rot
            }
            if only_damaged && !files_damaged(db, &files)? {
                continue;
            }
            if db.files_held_elsewhere(&files, rd.id, inst) {
                if only_damaged {
                    return Err(DmxError::Unsupported(format!(
                        "attachment {} shares its storage and cannot be rebuilt alone",
                        inst.name
                    )));
                }
                continue;
            }
            let params = inst.attrs()?.without(&ASSIGNED_KEYS);
            targets.push((att.name().to_string(), inst.name.clone(), params));
        }
    }
    Ok(targets)
}

/// The number of records the relation *logically* holds, as witnessed by
/// an intact attachment instance that names every record — the
/// attachment thesis in reverse: derived state that survived the damage
/// testifies to what the base contained. `None` when no undamaged
/// witness exists.
fn witness_record_count(
    db: &Arc<Database>,
    txn: &Arc<Transaction>,
    rd: &RelationDescriptor,
) -> Result<Option<u64>> {
    let ctx = ExecCtx { db, txn };
    for (att_id, insts) in rd.attached_types() {
        let att = db.registry().attachment(att_id)?;
        for inst in insts {
            let files = att.storage_files(&inst.desc);
            if files.is_empty() || files_damaged(db, &files)? {
                continue;
            }
            if let Some((keys, true)) = attachment_key_set(&ctx, rd, &*att, inst)? {
                return Ok(Some(keys.len() as u64));
            }
        }
    }
    Ok(None)
}

/// Rebuilds attachment instances through the ordinary drop + register
/// path in one transaction, returning the base record count the rebuild
/// covered. Every step is WAL-logged, the catalog's included, so an
/// abort restores the original descriptor.
fn rebuild_attachments(
    db: &Arc<Database>,
    name: &str,
    rd: &Arc<RelationDescriptor>,
    targets: &[RebuildTarget],
) -> Result<u64> {
    db.with_txn(|txn| {
        let ctx = ExecCtx { db, txn };
        let covered = base_key_set(&ctx, rd)?.len() as u64;
        for (type_name, att_name, params) in targets {
            db.drop_attachment(txn, name, att_name)?;
            db.create_attachment(txn, name, type_name, att_name, params)?;
        }
        Ok(covered)
    })
}

/// Salvages a damaged base: recovers every readable record, reloads them
/// into a fresh storage instance, swaps it into the descriptor and
/// rebuilds the page-backed attachments — all in one WAL-logged
/// transaction. The fresh instance is built inside a *temporary
/// relation* so the loader's log records reference a relation id the
/// committed catalog never holds: restart after a mid-salvage crash skips
/// them instead of undoing against the wrong (damaged) file.
fn salvage_base(db: &Arc<Database>, name: &str, recovered: &mut u64, lost: &mut u64) -> Result<()> {
    db.with_txn(|txn| {
        let ctx = ExecCtx { db, txn };
        let rd = db.catalog().get_by_name(name)?;
        let sm = db.registry().storage(rd.sm)?;
        // Loss accounting: an intact record-keyed attachment knows
        // exactly how many records the base held (the live count is not
        // re-derived after a crash, so it is the fallback).
        let expected = witness_record_count(db, txn, &rd)?.unwrap_or_else(|| rd.stats.records());

        // Capture rebuild parameters and drop targets before anything
        // changes. A page-backed attachment that cannot restate its
        // creation parameters makes the salvage impossible (terminal).
        let rebuild = rebuild_targets(db, &rd, false)?;
        let mut dropped = Vec::new();
        for (att_id, insts) in rd.attached_types() {
            let att = db.registry().attachment(att_id)?;
            for inst in insts {
                if att.storage_files(&inst.desc).is_empty() {
                    continue;
                }
                if !rebuild.iter().any(|(_, n, _)| n == &inst.name) {
                    return Err(DmxError::Unsupported(format!(
                        "attachment {} cannot be rebuilt after salvage",
                        inst.name
                    )));
                }
                dropped.push((att_id, inst.name.clone(), inst.desc.clone()));
            }
        }

        // Recover what the media still serves.
        let salvaged = sm.salvage(&ctx, &rd)?;
        *recovered = salvaged.records.len() as u64;
        *lost = expected.saturating_sub(*recovered);
        db.counters().repair_records_lost.add(*lost);

        // Reload through ordinary, fully logged DDL + DML.
        let temp_name = format!("{name}__salvage");
        let temp_id = db.create_relation(
            txn,
            &temp_name,
            rd.schema.clone(),
            sm.name(),
            &AttrList::default(),
        )?;
        for (_key, values) in &salvaged.records {
            db.insert(txn, temp_id, Record::new(values.clone()))?;
        }
        let temp_rd = db.catalog().get(temp_id)?;

        // Swap the rebuilt storage into the damaged relation's
        // descriptor, its counts the reloaded ones; stateless attachment
        // instances carry over intact.
        let mut merged = (*rd).clone();
        merged.sm_desc = temp_rd.sm_desc.clone();
        let (records, pages, bytes) = temp_rd.stats.snapshot();
        merged.stats.reset(records, pages, bytes);
        merged.version += 1;
        for (_, att_name, _) in &dropped {
            let (next, _, _) = merged.without_attachment(att_name)?;
            merged = next;
        }
        db.catalog().remove(&ctx, temp_id)?;
        db.catalog().replace(&ctx, merged)?;

        // The damaged base and the stale attachment structures are
        // released at commit.
        let mut releases = vec![encode_drop_sm_intent(rd.sm, &rd.sm_desc)];
        releases.extend(
            dropped
                .iter()
                .map(|(att, _, desc)| encode_drop_att_intent(*att, desc)),
        );
        db.defer_release(txn, releases);

        // Rebuild the page-backed access paths from the salvaged base.
        for (type_name, att_name, params) in &rebuild {
            db.create_attachment(txn, name, type_name, att_name, params)?;
        }
        Ok(())
    })
}

/// One repair attempt: classify the damage, then rebuild or salvage.
fn repair_once(
    db: &Arc<Database>,
    name: &str,
    action: &mut RepairAction,
    recovered: &mut u64,
    lost: &mut u64,
) -> Result<()> {
    let rd = db.catalog().get_by_name(name)?;
    let sm = db.registry().storage(rd.sm)?;
    if files_damaged(db, &sm.storage_files(&rd.sm_desc))? {
        *action = RepairAction::Salvage;
        db.counters().repair_salvages.incr();
        return salvage_base(db, name, recovered, lost);
    }
    // Base intact: rebuild the damaged attachment instances; when none
    // shows page damage the quarantine came from a logical mismatch, so
    // rebuild every reconstructible page-backed instance.
    let mut targets = rebuild_targets(db, &rd, true)?;
    if targets.is_empty() {
        targets = rebuild_targets(db, &rd, false)?;
    }
    if targets.is_empty() {
        return Ok(()); // nothing structural; verification decides
    }
    *action = RepairAction::Rebuild;
    db.counters().repair_rebuilds.incr();
    *recovered = rebuild_attachments(db, name, &rd, &targets)?;
    Ok(())
}

/// Repairs a quarantined relation and lifts its quarantine.
///
/// The pipeline classifies the damage, rebuilds or salvages through the
/// ordinary WAL-logged DDL/DML paths, verifies itself with a fresh scrub
/// pass, and retries with deterministic backoff. Success lifts the
/// quarantine and returns the healthy [`RepairOutcome`]; exhausted
/// retries (or structurally unrepairable damage) record the terminal
/// outcome, leave the relation fenced, and fail with
/// [`DmxError::RepairImpossible`]. Every outcome lands in `sys.repairs`.
pub fn repair_relation(db: &Arc<Database>, name: &str) -> Result<RepairOutcome> {
    let rd = db.catalog().get_by_name(name)?;
    let rel = rd.id;
    if let Some(reason) = db.terminal_damage(rel) {
        return Err(DmxError::RepairImpossible {
            relation: rel,
            reason,
        });
    }
    let detail = db
        .quarantined()
        .into_iter()
        .find(|(r, _)| *r == rel)
        .map(|(_, reason)| reason)
        .unwrap_or_else(|| "not quarantined (preventive repair)".to_string());

    let mut action = RepairAction::None;
    let mut recovered = 0u64;
    let mut lost = 0u64;
    let mut last_err = detail.clone();
    let mut terminal = false;
    let mut attempts = 0u32;
    while attempts < MAX_REPAIR_ATTEMPTS && !terminal {
        attempts += 1;
        db.counters().repair_attempts.incr();
        let step = repair_once(db, name, &mut action, &mut recovered, &mut lost)
            .and_then(|()| db.with_txn(|txn| scrub_relation(db, txn, name)));
        match step {
            Ok(verify) if verify.healthy() => {
                db.clear_quarantine(rel);
                let outcome = RepairOutcome {
                    relation: rel,
                    name: rd.name.clone(),
                    action,
                    healthy: true,
                    attempts,
                    records_recovered: recovered,
                    records_lost: lost,
                    detail,
                };
                db.record_repair(outcome.clone());
                db.metrics().emit(ObsEvent {
                    layer: "core",
                    op: "repair",
                    target: rel.0 as u64,
                    detail: 1,
                });
                return Ok(outcome);
            }
            Ok(verify) => {
                last_err = verify
                    .damage
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "verification failed".to_string());
            }
            // Structural impossibility: more retries cannot help.
            Err(e @ (DmxError::Unsupported(_) | DmxError::RepairImpossible { .. })) => {
                last_err = e.to_string();
                terminal = true;
            }
            Err(e) => last_err = e.to_string(),
        }
        fault::backoff(attempts)?;
    }

    db.counters().repair_failures.incr();
    db.mark_terminal(rel, last_err.clone());
    db.record_repair(RepairOutcome {
        relation: rel,
        name: rd.name.clone(),
        action,
        healthy: false,
        attempts,
        records_recovered: recovered,
        records_lost: lost,
        detail: last_err.clone(),
    });
    db.metrics().emit(ObsEvent {
        layer: "core",
        op: "repair",
        target: rel.0 as u64,
        detail: 0,
    });
    Err(DmxError::RepairImpossible {
        relation: rel,
        reason: last_err,
    })
}
