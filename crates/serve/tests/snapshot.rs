//! Snapshot round-trip and corruption-rejection tests.
//!
//! The contract: a saved snapshot reloaded into a fresh engine answers
//! the original working set bit-identically *without re-running a single
//! `P(k)` solve*, and any damaged file — truncated anywhere, any bit
//! flipped, wrong magic, future version — is rejected with a typed
//! [`SnapshotError`] leaving the engine cold.

use std::path::PathBuf;

use oaq_engine::{direct_eval, zipf_workload, Engine, EngineConfig, EngineResult, WorkloadConfig};
use oaq_serve::snapshot::{decode_into, encode, fnv1a64, load, save, SnapshotError, VERSION};

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 128,
        result_cache: 512,
        pk_cache: 64,
        ..EngineConfig::default()
    })
}

fn workload() -> Vec<oaq_engine::QosQuery> {
    zipf_workload(
        &WorkloadConfig {
            scenarios: 12,
            skew: 1.0,
            queries: 120,
        },
        7,
    )
}

/// A per-test scratch path under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("oaq_snapshot_{tag}_{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

#[test]
fn round_trip_restores_warm_hits_bit_identically() {
    let queries = workload();
    let warm = engine();
    let baseline: Vec<EngineResult> = warm.run_all(&queries);
    let solves_cold = warm.metrics().pk_solves;
    assert!(solves_cold > 0, "the cold run must actually solve");

    let scratch = Scratch::new("roundtrip");
    let stats = save(&scratch.0, &warm).unwrap();
    assert!(stats.pk_entries > 0 && stats.result_entries > 0);

    let reloaded = engine();
    let loaded = load(&scratch.0, &reloaded).unwrap();
    assert_eq!(loaded.pk_entries, stats.pk_entries);
    assert_eq!(loaded.result_entries, stats.result_entries);

    let replay = reloaded.run_all(&queries);
    assert_eq!(replay, baseline, "bit-identical answers after reload");
    let m = reloaded.metrics();
    assert_eq!(m.pk_solves, 0, "a warm-started engine re-solves nothing");
    assert_eq!(
        m.result_cache_hits, m.submitted,
        "every query in the working set is a warm hit"
    );
    for (r, q) in replay.iter().zip(&queries) {
        assert_eq!(r.as_ref().unwrap(), &direct_eval(q).unwrap());
    }
}

#[test]
fn truncation_anywhere_is_rejected_and_leaves_the_engine_cold() {
    let warm = engine();
    let _ = warm.run_all(&workload());
    let image = encode(&warm);
    // Sample prefixes across the whole image (every prefix would be slow).
    for cut in (0..image.len()).step_by(image.len() / 64 + 1) {
        let fresh = engine();
        let err = decode_into(&image[..cut], &fresh).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch
            ),
            "cut {cut}: {err}"
        );
        assert_eq!(
            fresh.export_pk_cache().len() + fresh.export_result_cache().len(),
            0,
            "a rejected snapshot must not half-load (cut {cut})"
        );
    }
}

#[test]
fn any_flipped_bit_is_rejected() {
    let warm = engine();
    let _ = warm.run_all(&workload());
    let image = encode(&warm);
    for pos in (0..image.len()).step_by(image.len() / 48 + 1) {
        let mut corrupt = image.clone();
        corrupt[pos] ^= 0x40;
        let fresh = engine();
        assert!(
            decode_into(&corrupt, &fresh).is_err(),
            "flip at byte {pos} of {} must be rejected",
            image.len()
        );
        assert!(fresh.export_pk_cache().is_empty());
    }
}

#[test]
fn version_and_magic_mismatches_are_typed() {
    let warm = engine();
    let _ = warm.run_all(&workload());
    let image = encode(&warm);

    let mut future = image.clone();
    future[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    // Re-seal so the version check (not the checksum) speaks.
    let n = future.len() - 8;
    let fixed = fnv1a64(&future[..n]);
    future[n..].copy_from_slice(&fixed.to_le_bytes());
    assert!(matches!(
        decode_into(&future, &engine()),
        Err(SnapshotError::UnsupportedVersion(v)) if v == VERSION + 1
    ));

    let mut alien = image;
    alien[0] = b'X';
    assert!(matches!(
        decode_into(&alien, &engine()),
        Err(SnapshotError::BadMagic)
    ));

    assert!(matches!(
        decode_into(b"", &engine()),
        Err(SnapshotError::Truncated)
    ));
    assert!(matches!(
        decode_into(b"NOTASNAPSHOT", &engine()),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn missing_file_is_io_and_save_replaces_atomically() {
    let scratch = Scratch::new("atomic");
    assert!(matches!(
        load(&scratch.0, &engine()),
        Err(SnapshotError::Io(_))
    ));

    // Two saves: the second replaces the first; no .tmp residue.
    let warm = engine();
    let _ = warm.run_all(&workload());
    save(&scratch.0, &warm).unwrap();
    let first = std::fs::read(&scratch.0).unwrap();
    save(&scratch.0, &warm).unwrap();
    let second = std::fs::read(&scratch.0).unwrap();
    assert_eq!(first, second, "same caches, byte-identical snapshot");
    assert!(
        !scratch.0.with_extension("tmp").exists(),
        "temp file renamed away"
    );
}

#[test]
fn snapshot_is_deterministic_across_engines() {
    // Two engines serving the same workload (different worker counts,
    // different shard counts) export byte-identical snapshots: the
    // export order is sorted by encoded key, not by shard or timing.
    // Caches are sized so every per-shard slice holds its share of the
    // working set — eviction is per shard, so a cap that only fits the
    // working set *globally* could drop entries on one engine and not
    // the other.
    let queries = workload();
    let a = engine();
    let _ = a.run_all(&queries);
    let b = Engine::new(EngineConfig {
        workers: 4,
        cache_shards: 4,
        queue_capacity: 128,
        result_cache: 2048,
        pk_cache: 256,
        ..EngineConfig::default()
    });
    let _ = b.run_all(&queries);
    assert_eq!(encode(&a), encode(&b));
}
