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
//!
//! [`Name`] makes the same contract with bytes: a directory entry's
//! name hashes, compares and orders like its bytes, so entry tables are
//! probed with the borrowed bytes of a component that [`walk`] yields.

use crate::error::{Errno, FsError};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

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

/// Longest name a [`Name`] keeps inline: with its length byte and the
/// variant tag, a [`Name`] takes 24 bytes, a `String`'s size on a
/// 64-bit host.
const INLINE_NAME: usize = 22;

/// A directory entry's name, as the key of an entry table (`MemFs` and
/// COFS's metadata service key each directory's entries by it).
///
/// Names of up to 22 bytes sit inline, so a probe compares them in the
/// table's own bucket without following a pointer; longer ones are
/// boxed. A name hashes, compares and orders exactly like its bytes, so
/// `impl Borrow<[u8]> for Name` is sound: a table keyed by `Name` is
/// probed with a path component's borrowed bytes, which never has its
/// UTF-8 validated again. Byte order is `str` order, so a listing sorted
/// by `Name` is sorted by name.
///
/// # Examples
///
/// ```
/// use simcore::hash::FxHashMap;
/// use vfs::path::Name;
///
/// let mut entries: FxHashMap<Name, u64> = FxHashMap::default();
/// entries.insert(Name::from("f.0.17"), 42);
/// assert_eq!(entries.get("f.0.17".as_bytes()), Some(&42));
/// assert_eq!(Name::from("f.0.17").as_str(), "f.0.17");
/// ```
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    /// The first `len` bytes of `bytes`; the rest are zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME],
    },
    Boxed(Box<[u8]>),
}

impl Name {
    /// The name's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            NameRepr::Boxed(bytes) => bytes,
        }
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a name is built from a str")
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Name {
        let text = name.as_bytes();
        if text.len() > INLINE_NAME {
            return Name(NameRepr::Boxed(text.into()));
        }
        let mut bytes = [0; INLINE_NAME];
        bytes[..text.len()].copy_from_slice(text);
        Name(NameRepr::Inline {
            len: text.len() as u8,
            bytes,
        })
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// Sound because `Name`'s `Eq`, `Ord` and `Hash` are its bytes'.
impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
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
        // A byte search for the separator, as in `VPath::last_slash`.
        let end = path.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'/')
            .map_or(path.len(), |i| start + i);
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

    #[test]
    fn walk_yields_each_component_with_its_directory_and_rest() {
        type Steps = &'static [(&'static str, &'static str, &'static str)];
        let cases: [(&str, Steps); 6] = [
            ("/", &[]),
            ("/a", &[("/", "a", "")]),
            ("/a/b", &[("/", "a", "/b"), ("/a", "b", "")]),
            (
                "/shared/f.0.17",
                &[("/", "shared", "/f.0.17"), ("/shared", "f.0.17", "")],
            ),
            (
                "/.cofs/n0/d.x",
                &[
                    ("/", ".cofs", "/n0/d.x"),
                    ("/.cofs", "n0", "/d.x"),
                    ("/.cofs/n0", "d.x", ""),
                ],
            ),
            ("/é/ü", &[("/", "é", "/ü"), ("/é", "ü", "")]),
        ];
        for (path, want) in cases {
            assert_eq!(walk(path).collect::<Vec<_>>(), want, "{path}");
            // Every step's directory joined with its name is the text
            // walked so far.
            for (dir, name, rest) in walk(path) {
                let walked = &path[..path.len() - rest.len()];
                assert_eq!(vpath(dir).join(name).as_str(), walked, "{path}");
            }
        }
        // A parent's borrowed text walks like the parent path.
        let p = vpath("/a/b/c");
        let parent = p.parent().unwrap();
        assert!(walk(p.parent_str().unwrap()).eq(walk(parent.as_str())));
    }

    /// Names of 1 to 42 bytes straddle the inline limit; each must hash,
    /// compare, order and borrow exactly like its bytes.
    #[test]
    fn names_behave_like_their_bytes_on_both_sides_of_the_inline_limit() {
        use simcore::hash::{FxBuildHasher, FxHashMap};
        use std::hash::BuildHasher;
        assert_eq!(std::mem::size_of::<Name>(), 24);
        let text: Vec<String> = (1..=40)
            .flat_map(|n| [("x", n), ("é", n / 2 + 1)])
            .map(|(c, n)| c.repeat(n))
            .chain(
                [
                    "f.0.17",
                    "abcdefghijklmnopqrstuv",
                    "abcdefghijklmnopqrstuvw",
                ]
                .map(String::from),
            )
            .collect();
        for a in &text {
            let name = Name::from(a.as_str());
            assert_eq!(name.as_bytes(), a.as_bytes());
            assert_eq!(name.as_str(), a);
            assert_eq!(format!("{name:?}"), format!("{a:?}"));
            let hasher = FxBuildHasher::default();
            assert_eq!(hasher.hash_one(&name), hasher.hash_one(a.as_bytes()), "{a}");
            assert_eq!(Borrow::<[u8]>::borrow(&name), a.as_bytes());
            for b in &text {
                let other = Name::from(b.as_str());
                assert_eq!(name == other, a == b, "{a} == {b}");
                assert_eq!(name.cmp(&other), a.as_str().cmp(b), "{a} vs {b}");
                assert_eq!(name.partial_cmp(&other), a.partial_cmp(b));
            }
        }
        // A table keyed by names finds each one by its borrowed bytes.
        let table: FxHashMap<Name, usize> = text
            .iter()
            .enumerate()
            .map(|(i, a)| (Name::from(a.as_str()), i))
            .collect();
        for a in &text {
            assert_eq!(table.get(a.as_bytes()).map(|&j| &text[j]), Some(a));
        }
        assert_eq!(table.get("y".as_bytes()), None);
        assert_eq!(table.get("x".repeat(41).as_bytes()), None);
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
