//! The on-disk artifact store (`.strtaint-cache/`).
//!
//! The store persists what the daemon would otherwise lose on exit:
//! per-page **check verdicts**, so a cold start over an unchanged tree
//! replays results instead of re-running Bar-Hillel queries. Nothing
//! else is stored: the IR summaries are re-derived in milliseconds and
//! are deliberately *not* serialized, and the live tree's content
//! hashes are rebuilt from the files at start-up (DESIGN.md §5d). Each
//! artifact carries its page as the JSON writer's bytes, so writing one
//! copies the page in and never re-renders it.
//!
//! Three invariants, in order of importance:
//!
//! 1. **Advisory, never authoritative.** Every load re-validates:
//!    format version, engine version, config fingerprint, and content
//!    hashes must all match the live state or the entry is dropped and
//!    the analysis re-runs. A corrupt or stale cache can cost time,
//!    never change a verdict.
//! 2. **Old artifact or none, never a torn one.** Artifacts are written
//!    to a unique temp file in the same directory, the old artifact is
//!    unlinked, and the temp file is `rename`d into place. A crash
//!    mid-write leaves the old artifact or none (and a torn one would
//!    fail validation anyway). Unlinking first means the `rename` never
//!    replaces a file, so no write pays the data flush that ext4 forces
//!    on replace-by-rename (`auto_da_alloc`).
//! 3. **Versioned.** [`FORMAT_VERSION`] gates the file syntax; the
//!    engine version string gates everything semantic (grammar
//!    construction, checker logic, hasher identity). Either mismatch
//!    invalidates silently.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use crate::json::{self, Json};

/// Artifact file-format version. Bump on any change to the JSON shape.
pub const FORMAT_VERSION: f64 = 1.0;

/// The engine version stamped into artifacts: grammar construction,
/// checking logic, and the (release-dependent) hasher all live in this
/// workspace, so the package version plus one evidence-schema number
/// is the right granularity. The string is owned by the checker crate
/// (see [`strtaint_checker::engine_version`]), which bumps the number
/// whenever the evidence an artifact carries changes meaning.
/// Artifacts rendered under another stamp are dropped and recomputed,
/// never replayed.
pub fn engine_version() -> &'static str {
    strtaint_checker::engine_version()
}

/// Counters describing the store's behavior this process lifetime,
/// surfaced by the daemon's `status` request.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Verdict artifacts successfully loaded and validated.
    pub loaded: AtomicU64,
    /// Verdict artifacts written.
    pub stored: AtomicU64,
    /// Artifacts dropped: unreadable, unparsable, version-mismatched,
    /// or failing any validation check.
    pub dropped: AtomicU64,
    /// Stale `*.tmp.*` files garbage-collected at open (litter from
    /// daemons that crashed mid-write).
    pub temp_collected: AtomicU64,
}

impl StoreStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fault-injection hooks for the soak/fault suite: simulates torn
/// artifact reads without touching the disk format. Inert (all zero)
/// in production.
#[derive(Debug, Default)]
pub struct StoreFault {
    corrupt_reads: AtomicU64,
}

impl StoreFault {
    /// Arms the next `n` verdict reads to behave as if the artifact on
    /// disk were torn: the read is treated as corrupt, the file is
    /// dropped, and the caller sees a miss (forcing a clean recompute —
    /// exactly the contract a real torn artifact must hit).
    pub fn arm_corrupt_reads(&self, n: u64) {
        self.corrupt_reads.store(n, Ordering::SeqCst);
    }

    /// Consumes one armed corruption; `true` when this read must fail.
    fn take_corrupt(&self) -> bool {
        let mut current = self.corrupt_reads.load(Ordering::SeqCst);
        while current > 0 {
            match self.corrupt_reads.compare_exchange(
                current,
                current - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
        false
    }
}

/// How long a temp file must sit untouched before open-time GC removes
/// it: long enough that a concurrent daemon mid-write is never raced,
/// short enough that crash litter does not accumulate across runs.
const TEMP_GRACE: Duration = Duration::from_secs(60);

/// A directory of validated, atomically-written JSON artifacts.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Load/store/drop counters (see [`StoreStats`]).
    pub stats: StoreStats,
    /// Fault-injection hooks (inert in production).
    pub fault: StoreFault,
    /// Distinguishes temp files written by concurrent daemons on the
    /// same cache directory.
    salt: u64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created — the daemon then runs without persistence rather than
    /// failing.
    pub fn open(root: &Path) -> io::Result<ArtifactStore> {
        fs::create_dir_all(root.join("verdicts"))?;
        let salt = std::process::id() as u64;
        let store = ArtifactStore {
            root: root.to_path_buf(),
            stats: StoreStats::default(),
            fault: StoreFault::default(),
            salt,
        };
        // Crashed daemons leave `*.tmp.*` files behind forever (the
        // rename never happened). Collect anything old enough that no
        // live writer can still own it.
        let cutoff = SystemTime::now()
            .checked_sub(TEMP_GRACE)
            .unwrap_or(SystemTime::UNIX_EPOCH);
        store.gc_stale_temp_files(cutoff);
        // Older builds kept a write-only file index beside the verdicts.
        let _ = fs::remove_file(root.join("manifest.json"));
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Removes temp files (`*.tmp.<salt>` names from `write_atomic`)
    /// last modified before `cutoff`, in the store root and the
    /// verdicts directory. Returns how many were collected. Called from
    /// [`ArtifactStore::open`] with a grace window; public so tests can
    /// drive it with an explicit cutoff.
    pub fn gc_stale_temp_files(&self, cutoff: SystemTime) -> usize {
        let mut collected = 0;
        for dir in [self.root.clone(), self.root.join("verdicts")] {
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let is_temp = name
                    .to_str()
                    .is_some_and(|n| n.contains(".tmp."));
                if !is_temp {
                    continue;
                }
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .map(|mtime| mtime < cutoff)
                    .unwrap_or(false);
                if stale && fs::remove_file(entry.path()).is_ok() {
                    collected += 1;
                    StoreStats::bump(&self.stats.temp_collected);
                }
            }
        }
        collected
    }

    fn verdict_path(&self, key: u64) -> PathBuf {
        self.root.join("verdicts").join(format!("{}.json", json::hex64(key)))
    }

    /// Atomically writes `value` to `path`: same-directory temp file,
    /// unlink of the old artifact, then `rename` (invariant 2).
    /// Failures are reported, not fatal: the store is a cache.
    fn write_atomic(&self, path: &Path, value: &Json) -> io::Result<()> {
        let mut body = String::new();
        value.write(&mut body);
        body.push('\n');
        let tmp = path.with_extension(format!("tmp.{}", self.salt));
        fs::write(&tmp, body.as_bytes())?;
        let _ = fs::remove_file(path);
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Never leave temp litter behind a failed rename.
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads and parses an artifact file, enforcing the format-version
    /// and engine-version headers. Any failure drops the artifact file
    /// (best-effort) and returns `None` — a miss, never an error.
    fn load_validated(&self, path: &Path) -> Option<Json> {
        let bytes = fs::read(path).ok()?;
        let parsed = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| json::parse(text.trim_end()).ok());
        let value = match parsed {
            Some(v) => v,
            None => {
                self.drop_artifact(path);
                return None;
            }
        };
        let format_ok = value.get("format").and_then(Json::as_num) == Some(FORMAT_VERSION);
        let engine_ok =
            value.get("engine").and_then(Json::as_str) == Some(engine_version());
        if !format_ok || !engine_ok {
            self.drop_artifact(path);
            return None;
        }
        Some(value)
    }

    /// Removes an invalid artifact so it is never re-examined.
    fn drop_artifact(&self, path: &Path) {
        StoreStats::bump(&self.stats.dropped);
        let _ = fs::remove_file(path);
    }

    /// Wraps an artifact body with the version headers common to every
    /// artifact kind.
    fn with_headers(kind: &str, body: Vec<(String, Json)>) -> Json {
        let mut members = vec![
            ("format".to_owned(), Json::Num(FORMAT_VERSION)),
            ("engine".to_owned(), Json::Str(engine_version().to_owned())),
            ("kind".to_owned(), Json::Str(kind.to_owned())),
        ];
        members.extend(body);
        Json::Obj(members)
    }

    /// Persists a verdict artifact under `key` (the verdict cache key
    /// hash). `body` holds the kind-specific members.
    pub fn put_verdict(&self, key: u64, body: Vec<(String, Json)>) {
        let value = Self::with_headers("verdict", body);
        if self.write_atomic(&self.verdict_path(key), &value).is_ok() {
            StoreStats::bump(&self.stats.stored);
        }
    }

    /// Loads the verdict artifact stored under `key`, if present and
    /// well-formed (headers validated; semantic validation — hashes,
    /// fingerprints — is the caller's job since it needs live state).
    pub fn get_verdict(&self, key: u64) -> Option<Json> {
        let path = self.verdict_path(key);
        if !path.exists() {
            return None;
        }
        if self.fault.take_corrupt() {
            // Injected torn read: same path a real corrupt artifact
            // takes — drop it and report a miss.
            self.drop_artifact(&path);
            return None;
        }
        let v = self.load_validated(&path)?;
        if v.get("kind").and_then(Json::as_str) != Some("verdict") {
            self.drop_artifact(&path);
            return None;
        }
        StoreStats::bump(&self.stats.loaded);
        Some(v)
    }

    /// Drops a stored verdict (used when semantic validation fails: the
    /// artifact is well-formed but describes a tree or config we no
    /// longer have).
    pub fn invalidate_verdict(&self, key: u64) {
        let path = self.verdict_path(key);
        if path.exists() {
            self.drop_artifact(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!(
            "strtaint-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("temp store opens");
        (dir, store)
    }

    #[test]
    fn verdict_roundtrip() {
        let (dir, store) = temp_store("roundtrip");
        store.put_verdict(
            7,
            vec![("entry".to_owned(), Json::Str("a.php".to_owned()))],
        );
        let v = store.get_verdict(7).expect("stored verdict loads");
        assert_eq!(v.get("entry").and_then(Json::as_str), Some("a.php"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("verdict"));
        assert!(store.get_verdict(8).is_none(), "missing key is a miss");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_artifact_is_dropped_not_trusted() {
        let (dir, store) = temp_store("corrupt");
        store.put_verdict(1, vec![]);
        let path = dir.join("verdicts").join(format!("{}.json", json::hex64(1)));
        fs::write(&path, b"{\"format\": 1, truncated garba").expect("write garbage");
        assert!(store.get_verdict(1).is_none());
        assert!(!path.exists(), "corrupt artifact removed");
        assert_eq!(store.stats.dropped.load(Ordering::Relaxed), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_invalidates() {
        let (dir, store) = temp_store("version");
        store.put_verdict(2, vec![]);
        let path = dir.join("verdicts").join(format!("{}.json", json::hex64(2)));
        // Rewrite with a future format version: must be dropped.
        fs::write(
            &path,
            format!(
                "{{\"format\":99,\"engine\":\"{}\",\"kind\":\"verdict\"}}",
                engine_version()
            ),
        )
        .expect("write");
        assert!(store.get_verdict(2).is_none());
        // And with a foreign engine version.
        store.put_verdict(3, vec![]);
        let path3 = dir.join("verdicts").join(format!("{}.json", json::hex64(3)));
        fs::write(
            &path3,
            "{\"format\":1,\"engine\":\"strtaint-99.0.0\",\"kind\":\"verdict\"}",
        )
        .expect("write");
        assert!(store.get_verdict(3).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_temp_files_are_collected_fresh_ones_kept() {
        let (dir, store) = temp_store("tempgc");
        // Litter from a "crashed" writer, in both store directories.
        let stale_root = dir.join("index.tmp.99999");
        let stale_verdict = dir.join("verdicts").join("abcd.tmp.99999");
        fs::write(&stale_root, b"torn").expect("write");
        fs::write(&stale_verdict, b"torn").expect("write");
        // A real artifact and a non-temp file must survive any cutoff.
        store.put_verdict(5, vec![]);
        let keep = dir.join("verdicts").join(format!("{}.json", json::hex64(5)));

        // Future cutoff: everything .tmp.* is "stale".
        let cutoff = SystemTime::now() + Duration::from_secs(3600);
        let collected = store.gc_stale_temp_files(cutoff);
        assert_eq!(collected, 2);
        assert!(!stale_root.exists() && !stale_verdict.exists());
        assert!(keep.exists(), "real artifacts untouched");
        assert_eq!(store.stats.temp_collected.load(Ordering::Relaxed), 2);

        // Freshly written temp files survive the open-time grace
        // window (a concurrent writer may still own them).
        fs::write(&stale_root, b"in-flight").expect("write");
        let reopened = ArtifactStore::open(&dir).expect("reopen");
        assert!(stale_root.exists(), "fresh temp file kept at open");
        assert_eq!(reopened.stats.temp_collected.load(Ordering::Relaxed), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn injected_corrupt_read_degrades_to_a_miss() {
        let (dir, store) = temp_store("fault");
        store.put_verdict(9, vec![]);
        store.fault.arm_corrupt_reads(1);
        assert!(
            store.get_verdict(9).is_none(),
            "injected torn read is a miss, never a bad verdict"
        );
        assert_eq!(store.stats.dropped.load(Ordering::Relaxed), 1);
        // The poisoned artifact is gone; the store keeps working.
        store.put_verdict(9, vec![]);
        assert!(store.get_verdict(9).is_some(), "recovers after recompute");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn overwrite_leaves_the_new_bytes_and_no_temp_litter() {
        let (dir, store) = temp_store("overwrite");
        store.put_verdict(4, vec![("entry".to_owned(), Json::Str("old.php".to_owned()))]);
        store.put_verdict(4, vec![("entry".to_owned(), Json::Str("new.php".to_owned()))]);
        let v = store.get_verdict(4).expect("overwritten verdict loads");
        assert_eq!(v.get("entry").and_then(Json::as_str), Some("new.php"));
        assert_eq!(store.stats.stored.load(Ordering::Relaxed), 2);
        let names: Vec<String> = fs::read_dir(dir.join("verdicts"))
            .expect("verdicts dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{}.json", json::hex64(4))], "no *.tmp.* litter");
        let _ = fs::remove_dir_all(dir);
    }
}
