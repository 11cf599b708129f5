//! Content store.
//!
//! Edge servers "generate and maintain secure IDs of content, which are
//! unique to each version, as well as secure hashes of the pieces of each
//! file" (§3.5). The store maps object IDs to their current version's
//! manifest and provider policy; publishing new content bumps the version,
//! so stale pieces from an older version can never be mixed into a new
//! download.

use netsession_core::id::{CpCode, ObjectId, VersionId};
use netsession_core::piece::{Manifest, DEFAULT_PIECE_SIZE};
use netsession_core::policy::DownloadPolicy;
use netsession_core::units::ByteCount;
use netsession_core::Digest;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One published object: its manifest, policy, owner, and (optionally, for
/// the live runtime) the actual bytes.
#[derive(Clone, Debug)]
pub struct StoredObject {
    /// Current manifest (includes the versioned secure content ID).
    pub manifest: Manifest,
    /// Provider policy.
    pub policy: DownloadPolicy,
    /// Owning content provider.
    pub cp: CpCode,
    /// Raw content, present only in live-runtime deployments. Shared, so
    /// [`ContentStore::get`] hands out the object without copying it.
    pub content: Option<Arc<[u8]>>,
}

/// Thread-safe content store shared by the edge servers of one deployment.
#[derive(Default)]
pub struct ContentStore {
    objects: RwLock<HashMap<ObjectId, StoredObject>>,
}

impl ContentStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a *synthetic* object (simulation: sizes without bytes).
    /// Returns the assigned version.
    pub fn publish_synthetic(
        &self,
        id: ObjectId,
        cp: CpCode,
        size: ByteCount,
        policy: DownloadPolicy,
    ) -> VersionId {
        let version = self.next_version(id);
        let manifest = Manifest::synthetic(version, size, DEFAULT_PIECE_SIZE);
        self.objects.write().unwrap().insert(
            id,
            StoredObject {
                manifest,
                policy,
                cp,
                content: None,
            },
        );
        version
    }

    /// Publish real content bytes (live runtime). Returns the version.
    pub fn publish_content(
        &self,
        id: ObjectId,
        cp: CpCode,
        content: Vec<u8>,
        piece_size: u64,
        policy: DownloadPolicy,
    ) -> VersionId {
        let version = self.next_version(id);
        let manifest = Manifest::from_content(version, &content, piece_size);
        self.objects.write().unwrap().insert(
            id,
            StoredObject {
                manifest,
                policy,
                cp,
                content: Some(content.into()),
            },
        );
        version
    }

    fn next_version(&self, id: ObjectId) -> VersionId {
        let objects = self.objects.read().unwrap();
        let version = objects
            .get(&id)
            .map(|o| o.manifest.version.version + 1)
            .unwrap_or(1);
        VersionId {
            object: id,
            version,
        }
    }

    /// Fetch the stored object, if published.
    pub fn get(&self, id: ObjectId) -> Option<StoredObject> {
        self.objects.read().unwrap().get(&id).cloned()
    }

    /// Current manifest of an object.
    pub fn manifest(&self, id: ObjectId) -> Option<Manifest> {
        self.objects
            .read()
            .unwrap()
            .get(&id)
            .map(|o| o.manifest.clone())
    }

    /// Whether `version` is the *current* version of its object — stale
    /// versions must not be served or swarmed (§3.5).
    pub fn is_current(&self, version: VersionId) -> bool {
        self.objects
            .read()
            .unwrap()
            .get(&version.object)
            .is_some_and(|o| o.manifest.version == version)
    }

    /// Bytes of one piece of the current version and the digest the
    /// manifest publishes for it (live runtime only).
    pub fn piece_bytes(&self, version: VersionId, piece: u32) -> Option<(Vec<u8>, Digest)> {
        let objects = self.objects.read().unwrap();
        let obj = objects.get(&version.object)?;
        if obj.manifest.version != version {
            return None;
        }
        let content = obj.content.as_ref()?;
        let digest = *obj.manifest.piece_hashes.get(piece as usize)?;
        let start = piece as usize * obj.manifest.piece_size as usize;
        let len = obj.manifest.piece_len(piece) as usize;
        Some((content.get(start..start + len)?.to_vec(), digest))
    }

    /// Number of published objects.
    pub fn len(&self) -> usize {
        self.objects.read().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.read().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ContentStore {
        ContentStore::new()
    }

    #[test]
    fn publish_and_get_synthetic() {
        let s = store();
        let v = s.publish_synthetic(
            ObjectId(1),
            CpCode(9),
            ByteCount::from_mib(3),
            DownloadPolicy::peer_assisted(),
        );
        assert_eq!(v.version, 1);
        let obj = s.get(ObjectId(1)).unwrap();
        assert_eq!(obj.manifest.piece_count(), 3);
        assert!(obj.content.is_none());
        assert!(s.is_current(v));
    }

    #[test]
    fn republish_bumps_version_and_invalidates_old() {
        let s = store();
        let v1 = s.publish_synthetic(
            ObjectId(1),
            CpCode(9),
            ByteCount::from_mib(1),
            DownloadPolicy::peer_assisted(),
        );
        let v2 = s.publish_synthetic(
            ObjectId(1),
            CpCode(9),
            ByteCount::from_mib(2),
            DownloadPolicy::peer_assisted(),
        );
        assert_eq!(v2.version, v1.version + 1);
        assert!(!s.is_current(v1), "old version must be stale");
        assert!(s.is_current(v2));
        // The two versions have different secure content IDs.
        assert_ne!(
            Manifest::synthetic(v1, ByteCount::from_mib(1), 1 << 20).content_id,
            s.manifest(ObjectId(1)).unwrap().content_id
        );
    }

    #[test]
    fn content_pieces_are_retrievable_and_verifiable() {
        let s = store();
        let content: Vec<u8> = (0..2500u32).map(|i| (i % 251) as u8).collect();
        let v = s.publish_content(
            ObjectId(2),
            CpCode(9),
            content.clone(),
            1000,
            DownloadPolicy::infrastructure_only(),
        );
        let manifest = s.manifest(ObjectId(2)).unwrap();
        for piece in 0..manifest.piece_count() {
            let (bytes, digest) = s.piece_bytes(v, piece).unwrap();
            assert!(manifest.verify_piece(piece, &bytes), "piece {piece}");
            assert!(manifest.verify_digest(piece, digest), "piece {piece}");
        }
        // Out-of-range piece handled by manifest bounds; stale version None.
        let stale = VersionId {
            object: ObjectId(2),
            version: 99,
        };
        assert!(s.piece_bytes(stale, 0).is_none());
    }

    #[test]
    fn missing_object_lookups_are_none() {
        let s = store();
        assert!(s.get(ObjectId(404)).is_none());
        assert!(s.manifest(ObjectId(404)).is_none());
        assert!(!s.is_current(VersionId {
            object: ObjectId(404),
            version: 1
        }));
        assert!(s.is_empty());
    }
}
