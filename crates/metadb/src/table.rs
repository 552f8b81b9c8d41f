//! Record tables.
//!
//! The paper's COFS metadata service keeps its state "as a small set of
//! database tables having the information about files and directories"
//! backed by Erlang/Mnesia. [`Table`] is the Rust substitute: a typed,
//! ordered record store with insert/lookup/update/delete/range-scan.

use crate::error::{DbError, DbErrorKind};
use simcore::stats::Counters;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeBounds;

/// A storable record: knows its own primary key.
pub trait Record: Clone {
    /// Primary-key type.
    type Key: Ord + Clone + fmt::Debug;

    /// This record's primary key.
    fn key(&self) -> Self::Key;
}

/// A typed, ordered table of records.
///
/// # Examples
///
/// ```
/// use metadb::table::{Record, Table};
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct User { id: u64, name: String }
/// impl Record for User {
///     type Key = u64;
///     fn key(&self) -> u64 { self.id }
/// }
///
/// let mut t = Table::new("users");
/// t.insert(User { id: 1, name: "amelia".into() })?;
/// assert_eq!(t.get(&1).unwrap().name, "amelia");
/// # Ok::<(), metadb::error::DbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Table<R: Record> {
    name: String,
    rows: BTreeMap<R::Key, R>,
    stats: Counters,
}

impl<R: Record> Table<R> {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            rows: BTreeMap::new(),
            stats: Counters::new(),
        }
    }

    /// Inserts a new record.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::DuplicateKey`] if the key is already present.
    pub fn insert(&mut self, record: R) -> Result<(), DbError> {
        self.stats.bump("writes");
        let key = record.key();
        if self.rows.contains_key(&key) {
            return Err(DbError::new(
                DbErrorKind::DuplicateKey,
                &self.name,
                format!("{key:?}"),
            ));
        }
        self.rows.insert(key, record);
        Ok(())
    }

    /// Inserts or replaces, returning the previous record if any.
    pub fn upsert(&mut self, record: R) -> Option<R> {
        self.stats.bump("writes");
        self.rows.insert(record.key(), record)
    }

    /// Looks up a record by key.
    pub fn get(&self, key: &R::Key) -> Option<&R> {
        // Reads are counted by the service layer, which owns timing;
        // `&self` methods cannot update counters without interior
        // mutability, which we avoid.
        self.rows.get(key)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &R::Key) -> bool {
        self.rows.contains_key(key)
    }

    /// Applies `f` to the record at `key`.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn update(&mut self, key: &R::Key, f: impl FnOnce(&mut R)) -> Result<(), DbError> {
        self.stats.bump("writes");
        match self.rows.get_mut(key) {
            Some(r) => {
                f(r);
                debug_assert!(r.key() == *key, "update must not change the primary key");
                Ok(())
            }
            None => Err(DbError::new(
                DbErrorKind::NotFound,
                &self.name,
                format!("{key:?}"),
            )),
        }
    }

    /// Removes and returns the record at `key`.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn delete(&mut self, key: &R::Key) -> Result<R, DbError> {
        self.stats.bump("writes");
        self.rows
            .remove(key)
            .ok_or_else(|| DbError::new(DbErrorKind::NotFound, &self.name, format!("{key:?}")))
    }

    /// Iterates over records whose keys lie in `range`, in key order.
    pub fn scan<B: RangeBounds<R::Key>>(&self, range: B) -> impl Iterator<Item = &R> {
        self.rows.range(range).map(|(_, r)| r)
    }

    /// Iterates over all records in key order.
    pub fn iter(&self) -> impl Iterator<Item = &R> {
        self.rows.values()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Write counters (`writes`).
    pub fn stats(&self) -> &Counters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Kv {
        k: u64,
        v: String,
    }

    impl Record for Kv {
        type Key = u64;
        fn key(&self) -> u64 {
            self.k
        }
    }

    fn kv(k: u64, v: &str) -> Kv {
        Kv { k, v: v.into() }
    }

    #[test]
    fn crud_cycle() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        t.insert(kv(2, "b")).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.contains(&1));
        assert_eq!(t.get(&1).unwrap().v, "a");
        t.update(&1, |r| r.v = "a2".into()).unwrap();
        assert_eq!(t.get(&1).unwrap().v, "a2");
        let removed = t.delete(&2).unwrap();
        assert_eq!(removed.v, "b");
        assert!(!t.contains(&2));
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        let err = t.insert(kv(1, "b")).unwrap_err();
        assert_eq!(err.kind(), DbErrorKind::DuplicateKey);
        assert_eq!(t.get(&1).unwrap().v, "a");
    }

    #[test]
    fn upsert_replaces() {
        let mut t = Table::new("t");
        assert!(t.upsert(kv(1, "a")).is_none());
        let prev = t.upsert(kv(1, "b")).unwrap();
        assert_eq!(prev.v, "a");
        assert_eq!(t.get(&1).unwrap().v, "b");
    }

    #[test]
    fn missing_key_errors() {
        let mut t: Table<Kv> = Table::new("t");
        assert_eq!(
            t.update(&9, |_| {}).unwrap_err().kind(),
            DbErrorKind::NotFound
        );
        assert_eq!(t.delete(&9).unwrap_err().kind(), DbErrorKind::NotFound);
        assert!(t.get(&9).is_none());
    }

    #[test]
    fn scan_ranges() {
        let mut t = Table::new("t");
        for k in [5u64, 1, 3, 9, 7] {
            t.insert(kv(k, "x")).unwrap();
        }
        let keys: Vec<u64> = t.scan(3..=7).map(|r| r.k).collect();
        assert_eq!(keys, vec![3, 5, 7]);
        let all: Vec<u64> = t.iter().map(|r| r.k).collect();
        assert_eq!(all, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn stats_count_writes() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        t.upsert(kv(1, "b"));
        t.update(&1, |_| {}).unwrap();
        t.delete(&1).unwrap();
        assert_eq!(t.stats().get("writes"), 4);
    }
}
