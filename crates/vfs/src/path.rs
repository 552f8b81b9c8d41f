//! Virtual path type.
//!
//! [`VPath`] is an always-absolute, always-normalized path inside a
//! simulated filesystem. Keeping normalization in the constructor
//! (C-VALIDATE) means every other layer — the COFS placement driver in
//! particular, which hashes parent paths — can treat equal paths as
//! equal strings.

use crate::error::{Errno, FsError};
use std::fmt;

/// An absolute, normalized path in a virtual filesystem.
///
/// Invariants: starts with `/`, contains no empty components, no `.`
/// or `..` components, and does not end with `/` unless it is the
/// root itself.
///
/// # Examples
///
/// ```
/// use vfs::path::VPath;
///
/// let p = VPath::new("/data//run1/./out.dat").unwrap();
/// assert_eq!(p.as_str(), "/data/run1/out.dat");
/// assert_eq!(p.file_name(), Some("out.dat"));
/// assert_eq!(p.parent().unwrap().as_str(), "/data/run1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VPath(String);

impl VPath {
    /// The filesystem root, `/`.
    pub fn root() -> VPath {
        VPath("/".to_string())
    }

    /// Parses and normalizes a path.
    ///
    /// Relative paths are rejected; `.` components are dropped; `..`
    /// components resolve lexically (never above the root); repeated
    /// slashes collapse.
    ///
    /// # Errors
    ///
    /// Returns `EINVAL` if the path is empty or relative, or contains
    /// a NUL byte.
    pub fn new(raw: &str) -> Result<VPath, FsError> {
        if raw.is_empty() || !raw.starts_with('/') {
            return Err(FsError::new(Errno::EINVAL, "path", raw));
        }
        if raw.contains('\0') {
            return Err(FsError::new(Errno::EINVAL, "path", raw));
        }
        let mut parts: Vec<&str> = Vec::new();
        for comp in raw.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            Ok(VPath::root())
        } else {
            Ok(VPath(format!("/{}", parts.join("/"))))
        }
    }

    /// The normalized textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if this is the root path.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rsplit('/').next()
        }
    }

    /// The containing directory, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(VPath::root()),
            Some(i) => Some(VPath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// Appends one component.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains `/` — component names come
    /// from directory entries, which can never contain separators.
    pub fn join(&self, name: &str) -> VPath {
        assert!(
            !name.is_empty() && !name.contains('/'),
            "join expects a single non-empty component, got {name:?}"
        );
        // One exact-size allocation: placement and path resolution
        // join on every create.
        let sep = if self.is_root() { "" } else { "/" };
        let mut joined = String::with_capacity(self.0.len() + sep.len() + name.len());
        joined.push_str(&self.0);
        joined.push_str(sep);
        joined.push_str(name);
        VPath(joined)
    }

    /// Iterates over the components (excluding the root).
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// Number of components below the root.
    pub fn depth(&self) -> usize {
        self.components().count()
    }

    /// True if `self` equals `prefix` or lies beneath it.
    pub fn starts_with(&self, prefix: &VPath) -> bool {
        if prefix.is_root() {
            return true;
        }
        self.0 == prefix.0
            || (self.0.starts_with(&prefix.0)
                && self.0.as_bytes().get(prefix.0.len()) == Some(&b'/'))
    }

    /// Re-roots `self` from `from` onto `to`; `None` if `self` is not
    /// under `from`. Used by COFS to map virtual paths into the
    /// underlying layout.
    pub fn rebase(&self, from: &VPath, to: &VPath) -> Option<VPath> {
        if !self.starts_with(from) {
            return None;
        }
        let suffix = if from.is_root() {
            &self.0[..]
        } else {
            &self.0[from.0.len()..]
        };
        let combined = if suffix.is_empty() {
            to.0.clone()
        } else if to.is_root() {
            suffix.to_string()
        } else {
            format!("{}{}", to.0, suffix)
        };
        Some(VPath(combined))
    }
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl TryFrom<&str> for VPath {
    type Error = FsError;
    fn try_from(value: &str) -> Result<Self, Self::Error> {
        VPath::new(value)
    }
}

impl AsRef<str> for VPath {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Shorthand for `VPath::new(s).expect(..)` in tests and examples
/// where the literal is known valid.
///
/// # Panics
///
/// Panics if `s` is not a valid absolute path.
pub fn vpath(s: &str) -> VPath {
    VPath::new(s).expect("literal path must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(vpath("/a//b/./c").as_str(), "/a/b/c");
        assert_eq!(vpath("/a/b/../c").as_str(), "/a/c");
        assert_eq!(vpath("/../..").as_str(), "/");
        assert_eq!(vpath("/a/").as_str(), "/a");
        assert_eq!(vpath("/").as_str(), "/");
    }

    #[test]
    fn relative_and_empty_paths_rejected() {
        assert!(VPath::new("a/b").is_err());
        assert!(VPath::new("").is_err());
        assert!(VPath::new("/a\0b").is_err());
    }

    #[test]
    fn parent_and_file_name() {
        let p = vpath("/a/b/c");
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap(), vpath("/a/b"));
        assert_eq!(vpath("/a").parent().unwrap(), VPath::root());
        assert_eq!(VPath::root().parent(), None);
        assert_eq!(VPath::root().file_name(), None);
    }

    #[test]
    fn join_builds_children() {
        assert_eq!(VPath::root().join("a"), vpath("/a"));
        assert_eq!(vpath("/a").join("b"), vpath("/a/b"));
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_rejects_separators() {
        vpath("/a").join("b/c");
    }

    #[test]
    fn components_and_depth() {
        let p = vpath("/x/y/z");
        assert_eq!(p.components().collect::<Vec<_>>(), vec!["x", "y", "z"]);
        assert_eq!(p.depth(), 3);
        assert_eq!(VPath::root().depth(), 0);
    }

    #[test]
    fn starts_with_respects_component_boundaries() {
        assert!(vpath("/a/b").starts_with(&vpath("/a")));
        assert!(vpath("/a").starts_with(&vpath("/a")));
        assert!(!vpath("/ab").starts_with(&vpath("/a")));
        assert!(vpath("/anything").starts_with(&VPath::root()));
    }

    #[test]
    fn rebase_moves_subtrees() {
        let p = vpath("/virt/dir/file");
        assert_eq!(
            p.rebase(&vpath("/virt"), &vpath("/real/h42")).unwrap(),
            vpath("/real/h42/dir/file")
        );
        assert_eq!(p.rebase(&vpath("/other"), &vpath("/real")), None);
        assert_eq!(
            vpath("/virt")
                .rebase(&vpath("/virt"), &vpath("/real"))
                .unwrap(),
            vpath("/real")
        );
        assert_eq!(
            p.rebase(&VPath::root(), &vpath("/real")).unwrap(),
            vpath("/real/virt/dir/file")
        );
        assert_eq!(
            p.rebase(&vpath("/virt"), &VPath::root()).unwrap(),
            vpath("/dir/file")
        );
    }

    #[test]
    fn display_and_conversions() {
        let p = vpath("/a/b");
        assert_eq!(p.to_string(), "/a/b");
        assert_eq!(VPath::try_from("/a/b").unwrap(), p);
        assert_eq!(p.as_ref(), "/a/b");
    }
}
