//! The uniform authorization facility.
//!
//! "Because extensions are alternative implementations of a common
//! relation abstraction, a uniform authorization facility can be used to
//! control user access to relations of all storage methods." One grants
//! table serves every storage method — extensions never see
//! authorization.

use std::collections::{HashMap, HashSet};

use dmx_types::sync::RwLock;

use dmx_types::{DmxError, RelationId, Result};

/// Privileges on a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    Select,
    Insert,
    Update,
    Delete,
    /// DDL on the relation (attachments, drop).
    Control,
}

impl Privilege {
    fn bit(self) -> u8 {
        match self {
            Privilege::Select => 1,
            Privilege::Insert => 2,
            Privilege::Update => 4,
            Privilege::Delete => 8,
            Privilege::Control => 16,
        }
    }

    /// Parses a privilege keyword.
    pub fn parse(s: &str) -> Result<Privilege> {
        match s.to_ascii_uppercase().as_str() {
            "SELECT" => Ok(Privilege::Select),
            "INSERT" => Ok(Privilege::Insert),
            "UPDATE" => Ok(Privilege::Update),
            "DELETE" => Ok(Privilege::Delete),
            "CONTROL" | "ALL" => Ok(Privilege::Control),
            other => Err(DmxError::InvalidArg(format!("unknown privilege {other}"))),
        }
    }
}

#[derive(Default)]
struct AuthState {
    grants: HashMap<(String, RelationId), u8>,
    superusers: HashSet<String>,
}

/// The grants table. The bootstrap superuser is `admin`; superusers pass
/// every check and may grant.
pub struct AuthManager {
    state: RwLock<AuthState>,
}

impl Default for AuthManager {
    fn default() -> Self {
        let mut st = AuthState::default();
        st.superusers.insert("admin".to_string());
        AuthManager {
            state: RwLock::new(st),
        }
    }
}

impl AuthManager {
    /// A fresh manager with only the `admin` superuser.
    pub fn new() -> Self {
        AuthManager::default()
    }

    fn norm(user: &str) -> String {
        user.to_ascii_lowercase()
    }

    /// Checks that `user` holds `priv_` on `rel`. `Control` implies every
    /// other privilege.
    pub fn check(&self, user: &str, rel: RelationId, priv_: Privilege) -> Result<()> {
        let st = self.state.read();
        let user = Self::norm(user);
        if st.superusers.contains(&user) {
            return Ok(());
        }
        let mask = st.grants.get(&(user.clone(), rel)).copied().unwrap_or(0);
        if mask & priv_.bit() != 0 || mask & Privilege::Control.bit() != 0 {
            return Ok(());
        }
        Err(DmxError::Unauthorized(format!(
            "user {user} lacks {priv_:?} on relation {rel}"
        )))
    }

    /// Grants a privilege. Only a user passing the `Control` check (or a
    /// superuser) may grant.
    pub fn grant(
        &self,
        granter: &str,
        user: &str,
        rel: RelationId,
        priv_: Privilege,
    ) -> Result<()> {
        self.check(granter, rel, Privilege::Control)?;
        let mut st = self.state.write();
        *st.grants.entry((Self::norm(user), rel)).or_insert(0) |= priv_.bit();
        Ok(())
    }

    /// Revokes a privilege.
    pub fn revoke(
        &self,
        granter: &str,
        user: &str,
        rel: RelationId,
        priv_: Privilege,
    ) -> Result<()> {
        self.check(granter, rel, Privilege::Control)?;
        let mut st = self.state.write();
        if let Some(mask) = st.grants.get_mut(&(Self::norm(user), rel)) {
            *mask &= !priv_.bit();
        }
        Ok(())
    }

    /// Drops every grant on a relation (called when it is dropped).
    pub fn purge_relation(&self, rel: RelationId) {
        self.state.write().grants.retain(|(_, r), _| *r != rel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REL: RelationId = RelationId(7);

    #[test]
    fn admin_is_superuser_and_grants_work() {
        let auth = AuthManager::new();
        assert!(auth.check("admin", REL, Privilege::Control).is_ok());
        assert!(auth.check("bob", REL, Privilege::Select).is_err());
        auth.grant("admin", "bob", REL, Privilege::Select).unwrap();
        assert!(
            auth.check("BOB", REL, Privilege::Select).is_ok(),
            "case-insensitive"
        );
        assert!(auth.check("bob", REL, Privilege::Insert).is_err());
    }

    #[test]
    fn control_implies_all_and_gates_granting() {
        let auth = AuthManager::new();
        // bob cannot grant
        assert!(auth.grant("bob", "eve", REL, Privilege::Select).is_err());
        auth.grant("admin", "bob", REL, Privilege::Control).unwrap();
        assert!(auth.check("bob", REL, Privilege::Delete).is_ok());
        // now bob can grant
        auth.grant("bob", "eve", REL, Privilege::Insert).unwrap();
        assert!(auth.check("eve", REL, Privilege::Insert).is_ok());
    }

    #[test]
    fn revoke_and_purge() {
        let auth = AuthManager::new();
        auth.grant("admin", "bob", REL, Privilege::Select).unwrap();
        auth.revoke("admin", "bob", REL, Privilege::Select).unwrap();
        assert!(auth.check("bob", REL, Privilege::Select).is_err());
        auth.grant("admin", "bob", REL, Privilege::Select).unwrap();
        auth.purge_relation(REL);
        assert!(auth.check("bob", REL, Privilege::Select).is_err());
    }

    #[test]
    fn privilege_parsing() {
        assert_eq!(Privilege::parse("select").unwrap(), Privilege::Select);
        assert_eq!(Privilege::parse("ALL").unwrap(), Privilege::Control);
        assert!(Privilege::parse("fly").is_err());
    }
}
