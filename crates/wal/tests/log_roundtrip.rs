//! Log-level integration tests: append/scan round trips, segment
//! rotation, checkpoint installation and truncation, torn-tail
//! tolerance, and reopening for append after a crash.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use toposem_extension::LogicalOp;
use toposem_wal::{
    read_checkpoint_meta, scan, FlushPolicy, IndexDef, IndexKindDef, Wal, WalConfig, WalEntry,
    WalError,
};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "toposem-wal-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn op(entity: &str, name: &str) -> LogicalOp {
    LogicalOp {
        entity: entity.into(),
        fields: vec![("name".into(), toposem_extension::Value::str(name))],
    }
}

/// One committed single-insert transaction.
fn commit_one(wal: &mut Wal, name: &str) {
    let txn = wal.alloc_txn();
    wal.append(WalEntry::Begin { txn }).unwrap();
    wal.append(WalEntry::Insert {
        txn,
        op: op("person", name),
    })
    .unwrap();
    wal.append(WalEntry::Commit { txn }).unwrap();
    wal.commit_appended().unwrap();
}

fn last_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".wal"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

#[test]
fn append_checkpoint_scan_roundtrip() {
    let dir = temp_dir("roundtrip");
    let mut wal = Wal::create(&dir, WalConfig::default()).unwrap();
    wal.checkpoint(
        b"snapshot-0",
        &[IndexDef {
            entity: "person".into(),
            kind: IndexKindDef::Ordered,
            attrs: vec!["name".into()],
        }],
        &[],
    )
    .unwrap();
    commit_one(&mut wal, "ann");
    commit_one(&mut wal, "bob");
    drop(wal);

    let s = scan(&dir).unwrap();
    assert_eq!(s.snapshot, b"snapshot-0");
    assert_eq!(read_checkpoint_meta(&dir).unwrap(), s.meta);
    assert_eq!(
        s.meta.indexes,
        vec![IndexDef {
            entity: "person".into(),
            kind: IndexKindDef::Ordered,
            attrs: vec!["name".into()],
        }]
    );
    assert!(!s.torn_tail);
    // Checkpoint marker + 2 × (Begin, Insert, Commit).
    assert_eq!(s.records.len(), 7);
    assert!(matches!(s.records[0].entry, WalEntry::Checkpoint { .. }));
    let lsns: Vec<u64> = s.records.iter().map(|r| r.lsn).collect();
    let want: Vec<u64> = (s.meta.next_lsn..s.meta.next_lsn + 7).collect();
    assert_eq!(lsns, want, "LSNs are dense and start at the checkpoint");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_refuses_existing_log_and_scan_requires_checkpoint() {
    let dir = temp_dir("create");
    // A directory that never existed has nothing to recover.
    assert!(matches!(scan(&dir), Err(WalError::NoCheckpoint)));
    let wal = Wal::create(&dir, WalConfig::default()).unwrap();
    drop(wal);
    assert!(matches!(
        Wal::create(&dir, WalConfig::default()),
        Err(WalError::AlreadyExists)
    ));
    // A segment without a checkpoint is unrecoverable by design: the
    // engine always checkpoints at bootstrap.
    assert!(matches!(scan(&dir), Err(WalError::NoCheckpoint)));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_1_checkpoint_is_rejected_explicitly() {
    // A pre-IndexDef (version 1) checkpoint header must fail with an
    // explicit unsupported-version error — not an opaque decode error,
    // and never a silent misread (its `indexes` field has a different
    // shape).
    let dir = temp_dir("v1-ckpt");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join("checkpoint.snap"),
        concat!(
            "{\"magic\":\"TOPOSEM-WAL-CKPT\",\"version\":1,\"next_lsn\":0,",
            "\"next_txn\":0,\"indexes\":[[\"person\",\"name\"]],\"fds\":[]}\npayload"
        ),
    )
    .unwrap();
    match scan(&dir) {
        Err(WalError::BadCheckpoint(why)) => {
            assert!(
                why.contains("unsupported version 1"),
                "expected an unsupported-version error, got: {why}"
            );
        }
        other => panic!("v1 checkpoint must be rejected, got {other:?}"),
    }
    // The header-only reader applies the same checks.
    match read_checkpoint_meta(&dir) {
        Err(WalError::BadCheckpoint(why)) => assert!(why.contains("unsupported version 1")),
        other => panic!("v1 checkpoint must be rejected, got {other:?}"),
    }
    fs::write(dir.join("checkpoint.snap"), "no header line").unwrap();
    assert!(matches!(
        read_checkpoint_meta(&dir),
        Err(WalError::BadCheckpoint(_))
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_nesting_in_a_checkpoint_header_is_a_bad_checkpoint() {
    let dir = temp_dir("deep-ckpt");
    fs::create_dir_all(&dir).unwrap();
    let deep = "[".repeat(1_000_000);
    for header in [
        deep.clone(),
        format!("{{\"magic\":\"TOPOSEM-WAL-CKPT\",\"version\":2,\"pad\":{deep}"),
    ] {
        fs::write(dir.join("checkpoint.snap"), format!("{header}\npayload")).unwrap();
        assert!(matches!(
            read_checkpoint_meta(&dir),
            Err(WalError::BadCheckpoint(_))
        ));
        assert!(matches!(scan(&dir), Err(WalError::BadCheckpoint(_))));
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segments_rotate_and_scan_in_order() {
    let dir = temp_dir("rotate");
    let cfg = WalConfig {
        flush: FlushPolicy::NoSync,
        segment_bytes: 512, // force frequent rotation
    };
    let mut wal = Wal::create(&dir, cfg).unwrap();
    wal.checkpoint(b"base", &[], &[]).unwrap();
    for i in 0..40 {
        commit_one(&mut wal, &format!("w{i}"));
    }
    drop(wal);
    let n_segs = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .to_string_lossy()
                .ends_with(".wal")
        })
        .count();
    assert!(n_segs > 3, "expected rotation, got {n_segs} segment(s)");
    let s = scan(&dir).unwrap();
    assert_eq!(s.records.len(), 1 + 40 * 3);
    let lsns: Vec<u64> = s.records.iter().map(|r| r.lsn).collect();
    let mut sorted = lsns.clone();
    sorted.sort_unstable();
    assert_eq!(lsns, sorted, "cross-segment scan preserves log order");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_old_segments() {
    let dir = temp_dir("truncate");
    let cfg = WalConfig {
        flush: FlushPolicy::NoSync,
        segment_bytes: 512,
    };
    let mut wal = Wal::create(&dir, cfg).unwrap();
    wal.checkpoint(b"base", &[], &[]).unwrap();
    for i in 0..40 {
        commit_one(&mut wal, &format!("w{i}"));
    }
    wal.checkpoint(b"base-2", &[], &[]).unwrap();
    commit_one(&mut wal, "after");
    drop(wal);
    let n_segs = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .to_string_lossy()
                .ends_with(".wal")
        })
        .count();
    assert_eq!(n_segs, 1, "checkpoint must drop pre-checkpoint segments");
    let s = scan(&dir).unwrap();
    assert_eq!(s.snapshot, b"base-2");
    // Only the checkpoint marker and the post-checkpoint transaction.
    assert_eq!(s.records.len(), 4);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_is_tolerated_and_truncated_on_open() {
    let dir = temp_dir("torn");
    let mut wal = Wal::create(&dir, WalConfig::no_sync()).unwrap();
    wal.checkpoint(b"base", &[], &[]).unwrap();
    commit_one(&mut wal, "ann");
    commit_one(&mut wal, "bob");
    drop(wal);
    // Tear the final record: chop 3 bytes off the segment.
    let seg = last_segment(&dir);
    let full = fs::metadata(&seg).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(full - 3).unwrap();
    drop(f);

    let s = scan(&dir).unwrap();
    assert!(s.torn_tail);
    // bob's Commit was the final record; his transaction is discarded.
    assert_eq!(
        s.records.len(),
        6,
        "checkpoint + ann txn + bob Begin/Insert"
    );

    // Reopen for append: the torn suffix is cut, and new appends land
    // cleanly after the last valid record.
    let (mut wal, s2) = Wal::open(&dir, WalConfig::no_sync()).unwrap();
    assert_eq!(s2.records.len(), 6);
    commit_one(&mut wal, "carol");
    drop(wal);
    let s3 = scan(&dir).unwrap();
    assert!(!s3.torn_tail, "tail was repaired on open");
    assert_eq!(s3.records.len(), 9);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scan_skips_preckpt_leftovers_after_interrupted_checkpoint() {
    // Simulate a crash after the checkpoint file was installed but
    // before old segments were deleted: recovery must not double-apply.
    let dir = temp_dir("leftover");
    let mut wal = Wal::create(&dir, WalConfig::no_sync()).unwrap();
    wal.checkpoint(b"base", &[], &[]).unwrap();
    commit_one(&mut wal, "ann");
    // Copy the pre-checkpoint segment aside, checkpoint, then restore
    // the old segment next to the new one.
    let old_seg = last_segment(&dir);
    let stash = dir.join("stash");
    fs::copy(&old_seg, &stash).unwrap();
    wal.checkpoint(b"with-ann", &[], &[]).unwrap();
    drop(wal);
    let revived = dir.join(old_seg.file_name().unwrap());
    fs::rename(&stash, &revived).unwrap();

    let s = scan(&dir).unwrap();
    assert_eq!(s.snapshot, b"with-ann");
    // Every surviving record is at or above the checkpoint LSN: ann's
    // transaction (already inside the snapshot) is filtered out.
    assert!(s.records.iter().all(|r| r.lsn >= s.meta.next_lsn));
    assert_eq!(s.records.len(), 1, "only the checkpoint marker remains");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_defers_then_flushes_on_batch() {
    let dir = temp_dir("group");
    let cfg = WalConfig {
        flush: FlushPolicy::GroupCommit {
            max_batch: 4,
            max_wait: std::time::Duration::from_secs(3600),
        },
        segment_bytes: 1 << 20,
    };
    let mut wal = Wal::create(&dir, cfg).unwrap();
    wal.checkpoint(b"base", &[], &[]).unwrap();
    for i in 0..10 {
        commit_one(&mut wal, &format!("w{i}"));
    }
    // All ten committed transactions are readable after drop (the drop
    // flushes buffers; group commit only defers fsync, and the scan goes
    // through the page cache anyway).
    drop(wal);
    let s = scan(&dir).unwrap();
    let commits = s
        .records
        .iter()
        .filter(|r| matches!(r.entry, WalEntry::Commit { .. }))
        .count();
    assert_eq!(commits, 10);
    fs::remove_dir_all(&dir).unwrap();
}
