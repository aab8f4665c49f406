//! The conformance kit's own check: every type the registry holds has a
//! kit entry (`tests/support/kit.rs`), every entry names a registered
//! type, and a family an entry skips says why.

// Examples and integration-test harnesses are exempt from the runtime
// panic discipline: failures here should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod support;

use starburst_dmx::core::ExtensionRegistry;
use starburst_dmx::prelude::*;
use starburst_dmx::types::AttTypeId;
use support::kit;

/// The type names `reg` holds: its storage methods, and its attachment
/// types from id 1 up to the first that is not found.
fn registered(reg: &ExtensionRegistry) -> [Vec<String>; 2] {
    let attachments = (1..).map_while(|id| match reg.attachment(AttTypeId(id)) {
        Ok(att) => Some(att.name().to_string()),
        Err(DmxError::NotFound(_)) => None,
        Err(e) => panic!("attachment type {id}: {e}"),
    });
    let storage = reg.storage_methods().into_iter().map(|(_, n)| n);
    [storage.collect(), attachments.collect()]
}

#[test]
fn every_registered_type_has_a_kit_entry() {
    let builtin = starburst_dmx::default_registry().unwrap();
    for (types, storage) in registered(&builtin).into_iter().zip([true, false]) {
        let entries = kit::ENTRIES.iter().filter(|e| e.is_storage() == storage);
        let mut kit: Vec<&str> = entries.map(|e| e.name).collect();
        let mut types: Vec<&str> = types.iter().map(String::as_str).collect();
        kit.sort();
        types.sort();
        assert_eq!(kit, types, "one kit entry per type (storage: {storage})");
    }
    // and a family an entry skips says why
    for e in kit::ENTRIES.iter().chain([&kit::DUPLICATE_KEYS]) {
        let skips = [e.scan.as_ref().err(), e.replay.as_ref().err()]
            .into_iter()
            .chain([e.update.as_ref().err(), e.crash.as_ref().err()])
            .chain([e.repair.as_ref().err()]);
        assert!(skips.flatten().all(|why| !why.is_empty()), "{}", e.name);
    }
}
