//! Versioned, checksummed binary snapshots of [`SharedTables`].
//!
//! A snapshot persists the expensive warm-start state — every interned
//! canonical form (as a structural graph), the subsumption memo, the
//! transfer memo, and the epoch / statement-slot registries — so a cold
//! process can start with a hot interner (`psa analyze --load-cache`,
//! `psa serve --load-cache`). The format is deliberately in-tree (no
//! serde): a fixed little-endian layout with a magic tag, a format
//! version, and a trailing FNV-1a checksum over everything before it.
//!
//! # Why structural graphs, not canonical bytes
//!
//! The canonical serialization ([`crate::canon`]) uses sentinel bytes that
//! can also appear inside little-endian ids, so it cannot be parsed back
//! unambiguously. Snapshots instead store each interned entry's
//! *representative graph* structurally (nodes, links, pvar bindings,
//! scalar facts) and re-intern it on load. Canonical bytes are
//! isomorphism-invariant, so the re-interned entry reproduces the original
//! bytes, fingerprint and — because entries are replayed in id order — the
//! original [`CanonId`]. Memo entries that reference those ids therefore
//! stay valid verbatim.
//!
//! # Failure model
//!
//! Loading never panics on bad input: a wrong magic, an unsupported
//! version, a checksum mismatch (covers truncation and bit rot) or any
//! structural inconsistency (out-of-range ids, counts that exceed the
//! remaining payload) is a typed [`SnapshotError`].

use crate::graph::Rsg;
use crate::intern::{CanonId, SharedTables, TransferOutcome};
use crate::node::Node;
use crate::sets::{CycleSet, SelSet, TouchSet};
use psa_cfront::types::{SelectorId, StructId};
use psa_ir::{fnv1a, PvarId};
use std::path::Path;
use std::sync::Arc;

/// Leading magic tag.
pub const MAGIC: [u8; 4] = *b"PSAS";
/// Current format version. Bump on any layout *or* canonicalization
/// change: load rejects other versions instead of mis-parsing them.
pub const VERSION: u32 = 1;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem problem (open/read/write).
    Io(String),
    /// The payload is structurally invalid: bad magic, failed checksum
    /// (truncation, bit rot), counts exceeding the payload, ids out of
    /// range, or graphs that no longer re-intern to their recorded ids.
    Corrupt(String),
    /// The file is a snapshot, but of an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot I/O error: {m}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::Version { found, expected } => write!(
                f,
                "snapshot version mismatch: file is v{found}, this build reads v{expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------- writing

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn graph(&mut self, g: &Rsg) {
        self.u32(g.num_pvar_slots() as u32);
        let nodes: Vec<_> = g.node_ids().collect();
        self.u32(nodes.len() as u32);
        for &n in &nodes {
            let nd = g.node(n);
            self.u32(n.0);
            self.u32(nd.ty.0);
            self.u8(u8::from(nd.shared) | (u8::from(nd.summary) << 1));
            for set in [nd.shsel, nd.selin, nd.selout, nd.pos_selin, nd.pos_selout] {
                self.u64(set.0);
            }
            self.u32(nd.cyclelinks.len() as u32);
            for (a, b) in nd.cyclelinks.iter() {
                self.u32(a.0);
                self.u32(b.0);
            }
            self.u32(nd.touch.len() as u32);
            for p in nd.touch.iter() {
                self.u32(p.0);
            }
        }
        let links: Vec<_> = g.links().collect();
        self.u32(links.len() as u32);
        for (a, s, b) in links {
            self.u32(a.0);
            self.u32(s.0);
            self.u32(b.0);
        }
        let pl: Vec<_> = g.pl_iter().collect();
        self.u32(pl.len() as u32);
        for (p, n) in pl {
            self.u32(p.0);
            self.u32(n.0);
        }
        let scalars: Vec<(u32, i64)> = g.scalars().iter().map(|(v, k)| (*v, *k)).collect();
        self.u32(scalars.len() as u32);
        for (v, k) in scalars {
            self.u32(v);
            self.i64(k);
        }
    }
}

/// Serialize `tables` into the snapshot byte format.
pub fn to_bytes(tables: &SharedTables) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);

    // Interned canonical forms, in id order so load re-mints identically.
    let n = tables.interner.len();
    w.u32(n as u32);
    for id in 0..n as u32 {
        let g = tables.interner.graph(CanonId(id));
        w.graph(&g);
    }

    // Subsumption memo.
    let subsume = tables.subsume.entries();
    w.u32(subsume.len() as u32);
    for ((a, b), v) in subsume {
        w.u32(a.0);
        w.u32(b.0);
        w.u8(u8::from(v));
    }

    // Transfer memo.
    let transfer = tables.transfer.entries();
    w.u32(transfer.len() as u32);
    for ((epoch, slot, input), out) in transfer {
        w.u32(epoch);
        w.u32(slot);
        w.u32(input.0);
        w.u32(out.outs.len() as u32);
        for o in &out.outs {
            w.u32(o.0);
        }
        w.u32(out.warnings.len() as u32);
        for s in &out.warnings {
            w.str(s);
        }
        w.u32(out.revisits.len() as u32);
        for p in &out.revisits {
            w.u32(p.0);
        }
    }

    // Epoch and statement-slot registries, in id order. Ids are implicit
    // (dense), so only the keys are stored.
    for dump in [tables.epochs_dump(), tables.slots_dump()] {
        w.u32(dump.len() as u32);
        for (i, (key, id)) in dump.iter().enumerate() {
            debug_assert_eq!(*id as usize, i, "registry dump must be dense");
            w.u64(*key);
        }
    }

    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Write a snapshot of `tables` to `path`.
pub fn save(tables: &SharedTables, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    std::fs::write(path, to_bytes(tables))
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------- reading

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Corrupt(format!(
                "payload truncated at byte {} (wanted {n} more)",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 warning text".into()))
    }

    /// A count of items occupying at least `min_item_bytes` each; rejected
    /// when the remaining payload cannot possibly hold that many, so a
    /// corrupt count cannot trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n * min_item_bytes.max(1) > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} exceeds remaining payload at byte {}",
                self.pos
            )));
        }
        Ok(n)
    }

    fn graph(&mut self) -> Result<Rsg, SnapshotError> {
        let num_pvars = self.u32()? as usize;
        if num_pvars > 1 << 20 {
            return Err(SnapshotError::Corrupt(format!(
                "implausible pvar count {num_pvars}"
            )));
        }
        let mut g = Rsg::empty(num_pvars);
        let num_nodes = self.count(49)?;
        // Original slot ids can have holes (arena free lists); remap to the
        // fresh graph's dense ids.
        let mut remap: std::collections::HashMap<u32, crate::node::NodeId> =
            std::collections::HashMap::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let orig = self.u32()?;
            let ty = StructId(self.u32()?);
            let flags = self.u8()?;
            let mut sets = [SelSet::EMPTY; 5];
            for s in &mut sets {
                *s = SelSet(self.u64()?);
            }
            let ncycle = self.count(8)?;
            let mut pairs = Vec::with_capacity(ncycle);
            for _ in 0..ncycle {
                pairs.push((SelectorId(self.u32()?), SelectorId(self.u32()?)));
            }
            let ntouch = self.count(4)?;
            let mut touch = Vec::with_capacity(ntouch);
            for _ in 0..ntouch {
                touch.push(PvarId(self.u32()?));
            }
            let node = Node {
                ty,
                shared: flags & 1 != 0,
                shsel: sets[0],
                selin: sets[1],
                selout: sets[2],
                pos_selin: sets[3],
                pos_selout: sets[4],
                cyclelinks: CycleSet::from_pairs(pairs),
                touch: touch.into_iter().collect::<TouchSet>(),
                summary: flags & 2 != 0,
            };
            let new = g.add_node(node);
            if remap.insert(orig, new).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate node id {orig}")));
            }
        }
        let resolve = |remap: &std::collections::HashMap<u32, crate::node::NodeId>,
                       orig: u32|
         -> Result<crate::node::NodeId, SnapshotError> {
            remap.get(&orig).copied().ok_or_else(|| {
                SnapshotError::Corrupt(format!("link references unknown node {orig}"))
            })
        };
        let num_links = self.count(12)?;
        for _ in 0..num_links {
            let a = self.u32()?;
            let sel = SelectorId(self.u32()?);
            let b = self.u32()?;
            g.add_link(resolve(&remap, a)?, sel, resolve(&remap, b)?);
        }
        let num_pl = self.count(8)?;
        for _ in 0..num_pl {
            let p = self.u32()?;
            let n = self.u32()?;
            if p as usize >= num_pvars {
                return Err(SnapshotError::Corrupt(format!("pvar {p} out of range")));
            }
            g.set_pl(PvarId(p), resolve(&remap, n)?);
        }
        let num_scalars = self.count(12)?;
        for _ in 0..num_scalars {
            let v = self.u32()?;
            let k = self.i64()?;
            g.set_scalar(v, k);
        }
        Ok(g)
    }
}

/// Deserialize a snapshot into a fresh [`SharedTables`]. The returned
/// handle has zeroed metrics (restore-time interning is not charged to the
/// first request that uses the tables).
pub fn from_bytes(bytes: &[u8]) -> Result<SharedTables, SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt(format!(
            "file too short to be a snapshot ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::Corrupt(
            "bad magic (not a psa snapshot)".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::Version {
            found: version,
            expected: VERSION,
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(SnapshotError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — truncated or corrupted file"
        )));
    }

    let mut r = Reader {
        buf: payload,
        pos: 8,
    };
    let restored = SharedTables::new();

    // Interner: re-intern every graph in id order. Canonical bytes are
    // isomorphism-invariant, so each entry reproduces its original id;
    // anything else means the canonicalization changed under us.
    let num_forms = r.count(24)?;
    for expect in 0..num_forms as u32 {
        let g = Arc::new(r.graph()?);
        let e = restored.intern(&g);
        if e.id.0 != expect {
            return Err(SnapshotError::Corrupt(format!(
                "graph {expect} re-interned to id {} — snapshot written by an \
                 incompatible canonicalization",
                e.id.0
            )));
        }
    }
    let valid = |id: u32| -> Result<CanonId, SnapshotError> {
        if (id as usize) < num_forms {
            Ok(CanonId(id))
        } else {
            Err(SnapshotError::Corrupt(format!(
                "memo entry references unknown canonical id {id}"
            )))
        }
    };

    let num_subsume = r.count(9)?;
    for _ in 0..num_subsume {
        let a = valid(r.u32()?)?;
        let b = valid(r.u32()?)?;
        let v = r.u8()? != 0;
        restored.subsume_store(a, b, v);
    }

    let num_transfer = r.count(24)?;
    for _ in 0..num_transfer {
        let epoch = r.u32()?;
        let slot = r.u32()?;
        let input = valid(r.u32()?)?;
        let nouts = r.count(4)?;
        let mut outs = Vec::with_capacity(nouts);
        for _ in 0..nouts {
            outs.push(valid(r.u32()?)?);
        }
        let nwarn = r.count(4)?;
        let mut warnings = Vec::with_capacity(nwarn);
        for _ in 0..nwarn {
            warnings.push(r.str()?);
        }
        let nrev = r.count(4)?;
        let mut revisits = Vec::with_capacity(nrev);
        for _ in 0..nrev {
            revisits.push(PvarId(r.u32()?));
        }
        restored.transfer_store(
            epoch,
            slot,
            input,
            Arc::new(TransferOutcome {
                outs,
                warnings,
                revisits,
            }),
        );
    }

    // Registries: replay keys in id order; the dense mint must land every
    // key back on its original id.
    for (name, register) in [
        ("epoch", &(|k| restored.epoch_for(k)) as &dyn Fn(u64) -> u32),
        ("stmt-slot", &(|k| restored.stmt_slot_for(k))),
    ] {
        let n = r.count(8)?;
        for expect in 0..n as u32 {
            let key = r.u64()?;
            let got = register(key);
            if got != expect {
                return Err(SnapshotError::Corrupt(format!(
                    "{name} registry replay minted id {got}, expected {expect}"
                )));
            }
        }
    }

    if r.pos != payload.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after payload",
            payload.len() - r.pos
        )));
    }

    // Hand back a session handle: same tables, but the metrics noise of
    // restore-time interning stays behind.
    Ok(restored.session())
}

/// Read a snapshot from `path` into a fresh [`SharedTables`].
pub fn load(path: impl AsRef<Path>) -> Result<SharedTables, SnapshotError> {
    let path = path.as_ref();
    let bytes =
        std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use psa_cfront::types::SelectorId;

    fn sll(n: usize) -> Arc<Rsg> {
        Arc::new(builder::singly_linked_list(n, 2, PvarId(0), SelectorId(0)))
    }

    fn warm_tables() -> SharedTables {
        let t = SharedTables::new();
        let a = t.intern(&sll(2));
        let b = t.intern(&sll(3));
        let c = t.intern(&sll(5));
        t.subsume_store(a.id, b.id, false);
        t.subsume_store(c.id, c.id, true);
        let epoch = t.epoch_for(77);
        let slot = t.stmt_slot_for(0xfeed);
        t.transfer_store(
            epoch,
            slot,
            a.id,
            Arc::new(TransferOutcome {
                outs: vec![b.id, c.id],
                warnings: vec!["possible NULL dereference: load through `p`".into()],
                revisits: vec![PvarId(1)],
            }),
        );
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = warm_tables();
        let bytes = to_bytes(&t);
        let r = from_bytes(&bytes).expect("roundtrip");
        assert_eq!(r.interner.len(), t.interner.len());
        for id in 0..t.interner.len() as u32 {
            assert_eq!(
                r.interner.bytes(CanonId(id)),
                t.interner.bytes(CanonId(id)),
                "canonical bytes of id {id}"
            );
            assert_eq!(
                r.interner.fingerprint(CanonId(id)),
                t.interner.fingerprint(CanonId(id))
            );
        }
        assert_eq!(r.subsume.entries(), t.subsume.entries());
        let (te, re) = (t.transfer.entries(), r.transfer.entries());
        assert_eq!(te.len(), re.len());
        for ((k1, o1), (k2, o2)) in te.iter().zip(&re) {
            assert_eq!(k1, k2);
            assert_eq!(o1.outs, o2.outs);
            assert_eq!(o1.warnings, o2.warnings);
            assert_eq!(o1.revisits, o2.revisits);
        }
        assert_eq!(r.epochs_dump(), t.epochs_dump());
        assert_eq!(r.slots_dump(), t.slots_dump());
        // Restored state answers warm: re-interning a known graph hits.
        let before = r.metrics.snapshot().intern_hits;
        let _ = r.intern(&sll(3));
        assert_eq!(r.metrics.snapshot().intern_hits, before + 1);
    }

    #[test]
    fn empty_tables_roundtrip() {
        let t = SharedTables::new();
        let r = from_bytes(&to_bytes(&t)).expect("empty roundtrip");
        assert!(r.interner.is_empty());
        assert_eq!(r.subsume.len(), 0);
        assert_eq!(r.transfer.len(), 0);
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_panic() {
        let bytes = to_bytes(&warm_tables());
        for cut in [0, 3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            match from_bytes(&bytes[..cut]) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut bytes = to_bytes(&warm_tables());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(from_bytes(&bytes), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = to_bytes(&warm_tables());
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        // Fix the checksum so only the version differs.
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        match from_bytes(&bytes) {
            Err(SnapshotError::Version { found, expected }) => {
                assert_eq!(found, VERSION + 1);
                assert_eq!(expected, VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn not_a_snapshot_is_corrupt() {
        assert!(matches!(
            from_bytes(b"{\"json\": true, \"padding\": 123456}"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(from_bytes(b""), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn save_and_load_via_files() {
        let t = warm_tables();
        let dir = std::env::temp_dir().join("psa_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tables.psas");
        save(&t, &path).expect("save");
        let r = load(&path).expect("load");
        assert_eq!(r.interner.len(), t.interner.len());
        assert!(matches!(
            load(dir.join("missing.psas")),
            Err(SnapshotError::Io(_))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
