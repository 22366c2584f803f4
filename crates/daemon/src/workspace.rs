//! Multi-workspace sharding: one daemon process, many independent
//! resident trees.
//!
//! A [`WorkspaceMap`] holds one [`DaemonState`] per workspace root —
//! each with its own `Vfs`, summary cache, prepared automata, verdict
//! map, metrics registry, and (optionally) on-disk artifact store.
//! Workspaces share *nothing* mutable: a request against workspace A
//! takes only A's locks, so a slow analysis in A can neither block nor
//! observe workspace B. That isolation is what the soak suite pins
//! (per-workspace verdicts identical to serial single-workspace runs).
//!
//! Keys are canonicalized roots: a workspace registered or requested
//! via any spelling of the same directory (`/repo/./x`, a symlink, a
//! relative path) resolves to one shard. Names that are not existing
//! directories are kept verbatim, which is how tests register
//! in-memory workspaces.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

use strtaint::{Config, Vfs};

use crate::state::DaemonState;
use crate::store::ArtifactStore;

/// How `resolve` materializes a workspace that is not yet resident.
#[derive(Debug, Clone)]
pub struct WorkspaceLoader {
    /// Base configuration for lazily loaded workspaces.
    pub config: Config,
    /// Open an [`ArtifactStore`] under `<root>/.strtaint-cache`.
    pub disk_cache: bool,
}

/// The shard map: canonicalized workspace key → resident state.
pub struct WorkspaceMap {
    default_key: String,
    shards: RwLock<BTreeMap<String, Arc<DaemonState>>>,
    loader: Option<WorkspaceLoader>,
}

impl std::fmt::Debug for WorkspaceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspaceMap")
            .field("default", &self.default_key)
            .field("workspaces", &self.keys())
            .finish()
    }
}

/// Canonical shard key for `name`: the canonicalized path when `name`
/// is an existing directory, the string verbatim otherwise (in-memory
/// workspaces registered under symbolic names).
pub fn canonical_key(name: &str) -> String {
    let p = Path::new(name);
    if p.is_dir() {
        if let Ok(c) = std::fs::canonicalize(p) {
            return c.display().to_string();
        }
    }
    name.to_owned()
}

impl WorkspaceMap {
    /// Creates a map whose default workspace (requests without a
    /// `workspace` field) is `state` under `default_key`.
    pub fn new(default_key: &str, state: Arc<DaemonState>) -> WorkspaceMap {
        let default_key = canonical_key(default_key);
        let mut shards = BTreeMap::new();
        shards.insert(default_key.clone(), state);
        WorkspaceMap {
            default_key,
            shards: RwLock::new(shards),
            loader: None,
        }
    }

    /// Enables lazy loading: a `workspace` field naming an existing
    /// directory that is not yet resident is loaded on first use.
    pub fn with_loader(mut self, loader: WorkspaceLoader) -> WorkspaceMap {
        self.loader = Some(loader);
        self
    }

    /// The default workspace's key.
    pub fn default_key(&self) -> &str {
        &self.default_key
    }

    /// Registers (or replaces) a workspace under `key`.
    pub fn insert(&self, key: &str, state: Arc<DaemonState>) {
        self.shards
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(canonical_key(key), state);
    }

    /// All resident workspace keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.shards
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// The default workspace.
    pub fn default_state(&self) -> Arc<DaemonState> {
        self.shards
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&self.default_key)
            .cloned()
            .unwrap_or_else(|| unreachable!("default workspace is inserted at construction"))
    }

    /// Every `(key, state)` pair, sorted by key.
    pub fn all(&self) -> Vec<(String, Arc<DaemonState>)> {
        self.shards
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Resolves a request's `workspace` field to its shard: `None` is
    /// the default workspace; a known key returns its resident state; a
    /// loadable directory (when a loader is configured) is loaded once
    /// and cached. Returns `(key, state)` or a client-facing error.
    pub fn resolve(&self, name: Option<&str>) -> Result<(String, Arc<DaemonState>), String> {
        let key = match name {
            None => self.default_key.clone(),
            Some(n) => canonical_key(n),
        };
        if let Some(state) = self
            .shards
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
        {
            return Ok((key, Arc::clone(state)));
        }
        let Some(loader) = &self.loader else {
            return Err(format!("unknown workspace {key:?}"));
        };
        if !Path::new(&key).is_dir() {
            return Err(format!("unknown workspace {key:?}"));
        }
        // Load outside the lock: a slow tree load must not block
        // requests against other (resident) workspaces.
        let state = Arc::new(load_workspace(Path::new(&key), loader).map_err(|e| {
            format!("cannot load workspace {key:?}: {e}")
        })?);
        let mut shards = self.shards.write().unwrap_or_else(|p| p.into_inner());
        // Two clients may race the first load; first insert wins so
        // both see one shard (the loser's state is dropped).
        let entry = shards.entry(key.clone()).or_insert(state);
        Ok((key, Arc::clone(entry)))
    }
}

/// Loads one workspace from disk: its tree, and (per the loader
/// policy) its artifact store.
pub(crate) fn load_workspace(root: &Path, loader: &WorkspaceLoader) -> io::Result<DaemonState> {
    let vfs = Vfs::from_dir(root)?;
    let store = if loader.disk_cache {
        ArtifactStore::open(&root.join(".strtaint-cache")).ok()
    } else {
        None
    };
    Ok(DaemonState::new(vfs, loader.config.clone(), store))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_state(src: &str) -> Arc<DaemonState> {
        let mut vfs = Vfs::new();
        vfs.add("a.php", src);
        Arc::new(DaemonState::new(vfs, Config::default(), None))
    }

    #[test]
    fn default_and_named_workspaces_resolve_independently() {
        let map = WorkspaceMap::new("ws0", mem_state("<?php $a = 1;"));
        map.insert("ws1", mem_state("<?php $b = 2;"));
        let (k0, s0) = map.resolve(None).expect("default resolves");
        assert_eq!(k0, "ws0");
        let (k1, s1) = map.resolve(Some("ws1")).expect("named resolves");
        assert_eq!(k1, "ws1");
        // Independent shards: different states, different trees.
        assert!(!std::ptr::eq(&*s0, &*s1));
        assert_eq!(map.keys(), vec!["ws0".to_owned(), "ws1".to_owned()]);
        assert!(map.resolve(Some("nope")).is_err(), "unknown key rejected");
    }

    #[test]
    fn invalidate_in_one_workspace_does_not_leak_into_another() {
        let map = WorkspaceMap::new("ws0", mem_state("<?php $a = 1;"));
        map.insert("ws1", mem_state("<?php $a = 1;"));
        let (_, s0) = map.resolve(Some("ws0")).expect("ws0");
        let (_, s1) = map.resolve(Some("ws1")).expect("ws1");
        assert!(s0.invalidate("new.php", Some(b"<?php ?>".to_vec())));
        assert_eq!(s0.tree_size().0, 2, "ws0 grew");
        assert_eq!(s1.tree_size().0, 1, "ws1 untouched");
    }

    #[test]
    fn lazy_loading_canonicalizes_and_caches() {
        let dir = std::env::temp_dir().join(format!(
            "strtaint-ws-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("p.php"), "<?php $x = 1;").expect("write");

        let map = WorkspaceMap::new("mem", mem_state("<?php ?>")).with_loader(
            WorkspaceLoader {
                config: Config::default(),
                disk_cache: false,
            },
        );
        // Two spellings of the same directory: one shard.
        let spelled = format!("{}/.", dir.display());
        let (k1, s1) = map.resolve(Some(dir.to_str().expect("utf8 path")))
            .expect("loads from disk");
        let (k2, s2) = map.resolve(Some(&spelled)).expect("second spelling");
        assert_eq!(k1, k2, "canonicalized to one key");
        assert!(std::ptr::eq(&*s1, &*s2), "loaded once, cached");
        assert_eq!(s1.tree_size().0, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_loader_directories_are_not_auto_loaded() {
        let map = WorkspaceMap::new("mem", mem_state("<?php ?>"));
        let tmp = std::env::temp_dir();
        assert!(
            map.resolve(Some(tmp.to_str().expect("utf8"))).is_err(),
            "no loader: only registered workspaces resolve"
        );
    }
}
