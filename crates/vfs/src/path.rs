//! Virtual path type.
//!
//! [`VPath`] is an always-absolute, always-normalized path inside a
//! simulated filesystem. Keeping normalization in the constructor
//! (C-VALIDATE) means every other layer — the COFS placement driver in
//! particular, which hashes parent paths — can treat equal paths as
//! equal strings.
//!
//! That is also the contract behind `impl Borrow<str> for VPath`: a
//! path compares, orders and hashes exactly like its text, so a map
//! keyed by `VPath` can be probed with a borrowed `&str` — for example
//! [`VPath::parent_str`], the parent's text without building a parent
//! path. Every constructor and [`VPath::join`] keep the text
//! normalized; a probe with non-normalized text simply finds nothing.

use crate::error::{Errno, FsError};
use std::borrow::Borrow;
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

    /// The byte offset of the last `/` (a plain byte search: every
    /// path is hashed, routed and split on the request path, and a
    /// `char` searcher costs several times more).
    fn last_slash(&self) -> Option<usize> {
        self.0.as_bytes().iter().rposition(|&b| b == b'/')
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        if self.is_root() {
            return None;
        }
        let start = self.last_slash().map_or(0, |i| i + 1);
        Some(&self.0[start..])
    }

    /// The containing directory, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        self.parent_str().map(|p| VPath(p.to_string()))
    }

    /// The containing directory's text, borrowed from this path, or
    /// `None` for the root. Equal to `parent()` as a string, without
    /// the allocation: routing and observation probe `VPath`-keyed maps
    /// with it (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use vfs::path::{vpath, VPath};
    ///
    /// assert_eq!(vpath("/a/b/c").parent_str(), Some("/a/b"));
    /// assert_eq!(vpath("/a").parent_str(), Some("/"));
    /// assert_eq!(VPath::root().parent_str(), None);
    /// ```
    pub fn parent_str(&self) -> Option<&str> {
        if self.is_root() {
            return None;
        }
        match self.last_slash() {
            Some(0) => Some("/"),
            Some(i) => Some(&self.0[..i]),
            None => None,
        }
    }

    /// Appends one component.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, `.` or `..`, or contains `/` —
    /// component names come from directory entries, which are never
    /// any of those, and joining one would break the normalized form
    /// every path-keyed map relies on.
    pub fn join(&self, name: &str) -> VPath {
        assert!(
            !name.is_empty() && name != "." && name != ".." && !name.contains('/'),
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

/// Sound because `VPath`'s `Eq`, `Ord` and `Hash` are derived from its
/// one `String` field, so they agree with `str`'s on the text.
impl Borrow<str> for VPath {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Walks normalized path text (a [`VPath`]'s, or a
/// [`VPath::parent_str`]) one component at a time without allocating.
/// Each step yields `(dir, name, rest)`: the text of the directory that
/// holds `name`, the name, and the text still to walk after it (empty
/// after the last name). The root yields nothing.
///
/// # Examples
///
/// ```
/// use vfs::path::walk;
///
/// let steps: Vec<_> = walk("/a/b").collect();
/// assert_eq!(steps, vec![("/", "a", "/b"), ("/a", "b", "")]);
/// assert_eq!(walk("/").count(), 0);
/// ```
pub fn walk(path: &str) -> impl Iterator<Item = (&str, &str, &str)> {
    let mut start = 1;
    std::iter::from_fn(move || {
        if start >= path.len() {
            return None;
        }
        let end = path[start..].find('/').map_or(path.len(), |i| start + i);
        let dir = if start == 1 { "/" } else { &path[..start - 1] };
        let step = (dir, &path[start..end], &path[end..]);
        start = end + 1;
        Some(step)
    })
}

/// The path a resolver continues on after meeting a symlink in `dir`
/// whose target is `target`, with `rest` (as yielded by [`walk`]) still
/// to walk. An absolute target replaces `dir`; a relative one is taken
/// from `dir`, its `.` and `..` parts resolving lexically and never
/// above the root.
///
/// # Errors
///
/// `EINVAL` if an absolute target is not a valid path.
///
/// # Examples
///
/// ```
/// use vfs::path::splice_link;
///
/// assert_eq!(splice_link("/a/b", "../c", "/f")?.as_str(), "/a/c/f");
/// assert_eq!(splice_link("/a/b", "/x", "")?.as_str(), "/x");
/// # Ok::<(), vfs::error::FsError>(())
/// ```
pub fn splice_link(dir: &str, target: &str, rest: &str) -> Result<VPath, FsError> {
    let mut full = if target.starts_with('/') {
        VPath::new(target)?
    } else {
        let mut p = VPath(dir.to_string());
        for part in target.split('/').filter(|c| !c.is_empty()) {
            match part {
                "." => {}
                ".." => p = p.parent().unwrap_or_else(VPath::root),
                c => p = p.join(c),
            }
        }
        p
    };
    for c in rest.split('/').filter(|c| !c.is_empty()) {
        full = full.join(c);
    }
    Ok(full)
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
    #[should_panic(expected = "single non-empty component")]
    fn join_rejects_dot_dot() {
        vpath("/a").join("..");
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_rejects_dot() {
        vpath("/a").join(".");
    }

    #[test]
    fn parent_str_matches_parent() {
        for p in ["/a", "/a/b/c/d/e", "/x/y"] {
            let p = vpath(p);
            assert_eq!(p.parent_str(), p.parent().as_ref().map(VPath::as_str));
        }
        assert_eq!(vpath("/a").parent_str(), Some("/"));
        assert_eq!(vpath("/a/b/c/d/e").parent_str(), Some("/a/b/c/d"));
        assert_eq!(VPath::root().parent_str(), None);
        assert_eq!(VPath::root().parent(), None);
    }

    #[test]
    fn file_name_is_the_last_component() {
        let cases = [
            ("/", None),
            ("/a", Some("a")),
            ("/a/b", Some("b")),
            ("/a/b/c/d/e", Some("e")),
            ("/shared/f00042", Some("f00042")),
            ("/dir.d/x.y.z", Some("x.y.z")),
            ("/é/ü", Some("ü")),
        ];
        for (p, want) in cases {
            let p = vpath(p);
            assert_eq!(p.file_name(), want, "{p}");
            // A path is its parent joined with its name.
            if let (Some(parent), Some(name)) = (p.parent(), p.file_name()) {
                assert_eq!(parent.join(name), p);
            }
        }
    }

    /// A borrowed-text probe must find exactly what a path probe finds,
    /// in ordered and hashed maps alike.
    #[test]
    fn str_probes_find_what_path_probes_find() {
        use std::collections::{BTreeMap, HashSet};
        let stored = ["/", "/a", "/a/b", "/ab", "/a/b/c", "/b"];
        let map: BTreeMap<VPath, usize> = stored
            .iter()
            .enumerate()
            .map(|(i, p)| (vpath(p), i))
            .collect();
        let set: HashSet<VPath> = stored.iter().map(|p| vpath(p)).collect();
        for probe in ["/", "/a", "/a/b", "/ab", "/a/b/c", "/b", "/c", "/a/c"] {
            let path = vpath(probe);
            assert_eq!(map.get(probe), map.get(&path), "{probe}");
            assert_eq!(set.contains(probe), set.contains(&path), "{probe}");
        }
        // Non-normalized text is no path's text: it finds nothing, even
        // where its normalized path is stored.
        for probe in ["/a/", "a", "/a//b", "/a/./b"] {
            assert_eq!(map.get(probe), None, "{probe}");
            assert!(!set.contains(probe), "{probe}");
        }
        // Range scans agree with the paths' own order.
        use std::ops::Bound::{Excluded, Included};
        let from_str: Vec<usize> = map
            .range::<str, _>((Included("/a"), Excluded("/b")))
            .map(|(_, &i)| i)
            .collect();
        let from_path: Vec<usize> = map
            .range(vpath("/a")..vpath("/b"))
            .map(|(_, &i)| i)
            .collect();
        assert_eq!(from_str, from_path);
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
