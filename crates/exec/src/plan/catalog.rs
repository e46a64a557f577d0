//! What the planner needs to know about the database: cardinalities,
//! attribute resolution, and index availability — the §3.3.4 cost-formula
//! inputs. `Database` implements this; [`MemCatalog`] is a plain in-memory
//! implementation for planner unit tests.

use crate::plan::cost::IndexAvailability;

/// Per-attribute planning facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrInfo {
    /// The attribute's position in its table's schema.
    pub index: usize,
    /// True for tuple-pointer (foreign key) attributes — the §2.1
    /// precomputed-join short circuit.
    pub pointer: bool,
    /// Indexes existing on this attribute.
    pub avail: IndexAvailability,
}

/// Catalog facts the cost-based planner consumes.
pub trait PlanCatalog {
    /// Live-tuple count of `table`, or `None` if the table is unknown.
    fn cardinality(&self, table: &str) -> Option<usize>;

    /// Resolve `table.attr`, or `None` if the table or attribute is
    /// unknown.
    fn resolve_attr(&self, table: &str, attr: &str) -> Option<AttrInfo>;
}

/// An in-memory [`PlanCatalog`] for tests: declared tables with explicit
/// cardinalities and attribute facts.
#[derive(Debug, Default)]
pub struct MemCatalog {
    tables: Vec<MemTable>,
}

#[derive(Debug)]
struct MemTable {
    name: String,
    cardinality: usize,
    attrs: Vec<(String, AttrInfo)>,
}

impl MemCatalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        MemCatalog::default()
    }

    /// Declare a table with its cardinality and plain (unindexed,
    /// non-pointer) attributes.
    pub fn table(&mut self, name: &str, cardinality: usize, attrs: &[&str]) -> &mut Self {
        self.tables.push(MemTable {
            name: name.to_string(),
            cardinality,
            attrs: attrs
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    (
                        (*a).to_string(),
                        AttrInfo {
                            index: i,
                            ..AttrInfo::default()
                        },
                    )
                })
                .collect(),
        });
        self
    }

    /// Mark `table.attr` as T-Tree indexed.
    pub fn with_ttree(&mut self, table: &str, attr: &str) -> &mut Self {
        self.attr_mut(table, attr).avail.ttree = true;
        self
    }

    /// Mark `table.attr` as hash indexed.
    pub fn with_hash(&mut self, table: &str, attr: &str) -> &mut Self {
        self.attr_mut(table, attr).avail.hash = true;
        self
    }

    /// Mark `table.attr` as a foreign-key pointer field.
    pub fn with_pointer(&mut self, table: &str, attr: &str) -> &mut Self {
        self.attr_mut(table, attr).pointer = true;
        self
    }

    fn attr_mut(&mut self, table: &str, attr: &str) -> &mut AttrInfo {
        #[allow(clippy::expect_used)]
        let t = self
            .tables
            .iter_mut()
            .find(|t| t.name == table)
            .expect("MemCatalog: unknown table");
        #[allow(clippy::expect_used)]
        let (_, info) = t
            .attrs
            .iter_mut()
            .find(|(a, _)| a == attr)
            .expect("MemCatalog: unknown attr");
        info
    }
}

impl PlanCatalog for MemCatalog {
    fn cardinality(&self, table: &str) -> Option<usize> {
        self.tables
            .iter()
            .find(|t| t.name == table)
            .map(|t| t.cardinality)
    }

    fn resolve_attr(&self, table: &str, attr: &str) -> Option<AttrInfo> {
        self.tables
            .iter()
            .find(|t| t.name == table)?
            .attrs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, info)| *info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_catalog_declares_and_resolves() {
        let mut cat = MemCatalog::new();
        cat.table("emp", 1000, &["ename", "age", "dept_id"])
            .with_ttree("emp", "age")
            .with_pointer("emp", "dept_id");
        cat.table("dept", 10, &["dname", "id"])
            .with_hash("dept", "id");
        assert_eq!(cat.cardinality("emp"), Some(1000));
        assert_eq!(cat.cardinality("nope"), None);
        let age = cat.resolve_attr("emp", "age").unwrap();
        assert_eq!(age.index, 1);
        assert!(age.avail.ttree && !age.avail.hash && !age.pointer);
        let dept_id = cat.resolve_attr("emp", "dept_id").unwrap();
        assert!(dept_id.pointer);
        let id = cat.resolve_attr("dept", "id").unwrap();
        assert!(id.avail.hash);
        assert!(cat.resolve_attr("emp", "nope").is_none());
        assert!(cat.resolve_attr("nope", "x").is_none());
    }
}
