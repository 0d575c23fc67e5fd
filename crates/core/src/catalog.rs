//! The metadata catalog: types, datasets, and indexes of one dataverse.
//!
//! Mirrors AsterixDB's Metadata manager in miniature. DDL statements from
//! either language mutate this catalog; the query translator resolves names
//! against it; the optimizer reads index metadata from it.

use crate::error::{CoreError, Result};
use asterix_adm::types::{ObjectType, TypeExpr, TypeRegistry};
use asterix_algebricks::source::IndexInfo;
use asterix_sqlpp::ast::DdlStmt;

/// How a dataset's records are stored.
#[derive(Debug, Clone)]
pub enum DatasetKind {
    /// Native LSM-backed storage, hash-partitioned by primary key.
    Internal {
        primary_key: Vec<String>,
    },
    /// External data queried in situ (paper Figure 3(b)).
    External {
        adapter: String,
        properties: Vec<(String, String)>,
    },
}

/// One dataset definition.
#[derive(Debug, Clone)]
pub struct DatasetDef {
    /// The ordinal of the `CREATE [EXTERNAL] DATASET` that made it among all
    /// such statements of the catalog's history: a later dataset of the same
    /// name has another. Log records and record locks name a dataset by it.
    pub id: u32,
    pub name: String,
    pub type_name: String,
    pub kind: DatasetKind,
    pub indexes: Vec<IndexInfo>,
}

impl DatasetDef {
    /// Primary-key field names (empty for external datasets).
    pub fn primary_key(&self) -> &[String] {
        match &self.kind {
            DatasetKind::Internal { primary_key } => primary_key,
            DatasetKind::External { .. } => &[],
        }
    }
}

/// The catalog of one dataverse.
#[derive(Debug, Default)]
pub struct Catalog {
    pub types: TypeRegistry,
    datasets: Vec<DatasetDef>,
    /// Datasets ever created, dropped ones included: the next
    /// [`DatasetDef::id`]. Replaying the persisted DDL recounts it.
    datasets_created: u32,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Looks up a dataset.
    pub fn dataset(&self, name: &str) -> Option<&DatasetDef> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// All datasets.
    pub fn datasets(&self) -> &[DatasetDef] {
        &self.datasets
    }

    /// The record type of a dataset.
    pub fn dataset_type(&self, name: &str) -> Result<&ObjectType> {
        let def = self
            .dataset(name)
            .ok_or_else(|| CoreError::Catalog(format!("unknown dataset {name:?}")))?;
        self.types
            .get(&def.type_name)
            .ok_or_else(|| CoreError::Catalog(format!("unknown type {:?}", def.type_name)))
    }

    /// Applies one DDL statement, returning a human-readable confirmation.
    pub fn apply_ddl(&mut self, stmt: &DdlStmt) -> Result<String> {
        match stmt {
            DdlStmt::CreateType { name, is_closed, fields } => {
                let ty = ObjectType { name: name.clone(), fields: fields.clone(), is_open: !is_closed };
                self.types.check_object_type(&ty).map_err(CoreError::Adm)?;
                self.types.define(ty).map_err(CoreError::Adm)?;
                Ok(format!("type {name} created"))
            }
            DdlStmt::CreateDataset { name, type_name, primary_key } => {
                self.ensure_new_dataset(name)?;
                let ty = self
                    .types
                    .get(type_name)
                    .ok_or_else(|| CoreError::Catalog(format!("unknown type {type_name:?}")))?;
                for pk in primary_key {
                    if ty.field(pk).is_none() {
                        return Err(CoreError::Catalog(format!(
                            "primary key field {pk:?} is not declared in type {type_name:?}"
                        )));
                    }
                }
                let kind = DatasetKind::Internal { primary_key: primary_key.clone() };
                self.push_dataset(name, type_name, kind);
                Ok(format!("dataset {name} created"))
            }
            DdlStmt::CreateExternalDataset { name, type_name, adapter, properties } => {
                self.ensure_new_dataset(name)?;
                if !self.types.resolves(type_name) {
                    return Err(CoreError::Catalog(format!("unknown type {type_name:?}")));
                }
                if adapter != "localfs" {
                    return Err(CoreError::Unsupported(format!(
                        "external adapter {adapter:?} (only localfs is implemented)"
                    )));
                }
                let kind = DatasetKind::External {
                    adapter: adapter.clone(),
                    properties: properties.clone(),
                };
                self.push_dataset(name, type_name, kind);
                Ok(format!("external dataset {name} created"))
            }
            DdlStmt::CreateIndex { name, dataset, field, kind } => {
                let def = self
                    .datasets
                    .iter_mut()
                    .find(|d| d.name == *dataset)
                    .ok_or_else(|| CoreError::Catalog(format!("unknown dataset {dataset:?}")))?;
                if matches!(def.kind, DatasetKind::External { .. }) {
                    return Err(CoreError::Unsupported(
                        "secondary indexes on external datasets".into(),
                    ));
                }
                if def.indexes.iter().any(|i| i.name == *name) {
                    return Err(CoreError::Catalog(format!("index {name:?} already exists")));
                }
                def.indexes.push(IndexInfo { name: name.clone(), field: field.clone(), kind: *kind });
                Ok(format!("index {name} created on {dataset}"))
            }
            DdlStmt::DropDataset { name } => {
                let before = self.datasets.len();
                self.datasets.retain(|d| d.name != *name);
                if self.datasets.len() == before {
                    return Err(CoreError::Catalog(format!("unknown dataset {name:?}")));
                }
                Ok(format!("dataset {name} dropped"))
            }
            DdlStmt::DropType { name } => {
                // A type goes after everything that names it, so what a
                // dataset's record type reaches is there while the dataset is.
                if self.datasets.iter().any(|d| d.type_name == *name) {
                    return Err(CoreError::Catalog(format!(
                        "type {name:?} is in use by a dataset"
                    )));
                }
                let names_it = |ty: &&ObjectType| ty.fields.iter().any(|f| mentions(&f.ty, name));
                if let Some(user) = self.types.iter().find(names_it) {
                    return Err(CoreError::Catalog(format!(
                        "type {name:?} is in use by type {:?}",
                        user.name
                    )));
                }
                self.types.drop_type(name).map_err(CoreError::Adm)?;
                Ok(format!("type {name} dropped"))
            }
            DdlStmt::DropIndex { dataset, name } => {
                let def = self
                    .datasets
                    .iter_mut()
                    .find(|d| d.name == *dataset)
                    .ok_or_else(|| CoreError::Catalog(format!("unknown dataset {dataset:?}")))?;
                let before = def.indexes.len();
                def.indexes.retain(|i| i.name != *name);
                if def.indexes.len() == before {
                    return Err(CoreError::Catalog(format!("unknown index {name:?}")));
                }
                Ok(format!("index {name} dropped"))
            }
        }
    }

    fn push_dataset(&mut self, name: &str, type_name: &str, kind: DatasetKind) {
        self.datasets.push(DatasetDef {
            id: self.datasets_created,
            name: name.to_owned(),
            type_name: type_name.to_owned(),
            kind,
            indexes: Vec::new(),
        });
        self.datasets_created += 1;
    }

    /// Takes back the `CREATE DATASET` of `name`, the newest dataset, whose
    /// storage could not be created: the statement is not persisted, so its
    /// id must go to the next one that is, as a replay of the DDL will have it.
    pub fn undo_create_dataset(&mut self, name: &str) {
        if self.datasets.last().is_some_and(|d| d.name == name) {
            self.datasets.pop();
            self.datasets_created -= 1;
        }
    }

    fn ensure_new_dataset(&self, name: &str) -> Result<()> {
        if self.dataset(name).is_some() {
            return Err(CoreError::Catalog(format!("dataset {name:?} already exists")));
        }
        Ok(())
    }
}

/// Whether type expression `t` names the type `name`.
fn mentions(t: &TypeExpr, name: &str) -> bool {
    match t {
        TypeExpr::Named(n) => n == name,
        TypeExpr::Array(inner) | TypeExpr::Multiset(inner) => mentions(inner, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_algebricks::source::IndexKind;
    use asterix_sqlpp::parse_sqlpp;
    use asterix_sqlpp::Stmt;

    fn apply(catalog: &mut Catalog, sql: &str) -> Result<Vec<String>> {
        let stmts = parse_sqlpp(sql).map_err(CoreError::Sqlpp)?;
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Ddl(d) => catalog.apply_ddl(d),
                other => panic!("not ddl: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn figure3_catalog_roundtrip() {
        let mut c = Catalog::new();
        apply(
            &mut c,
            r#"
            CREATE TYPE EmploymentType AS {
                organizationName: string, startDate: date, endDate: date?
            };
            CREATE TYPE GleambookUserType AS {
                id: int, alias: string, name: string, userSince: datetime,
                friendIds: {{ int }}, employment: [EmploymentType]
            };
            CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
            CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
            "#,
        )
        .unwrap();
        let ds = c.dataset("GleambookUsers").unwrap();
        assert_eq!(ds.primary_key(), &["id".to_string()]);
        assert_eq!(ds.indexes.len(), 1);
        assert_eq!(ds.indexes[0].kind, IndexKind::BTree);
        assert!(c.dataset_type("GleambookUsers").is_ok());
    }

    #[test]
    fn rejects_bad_ddl() {
        let mut c = Catalog::new();
        assert!(apply(&mut c, "CREATE DATASET D(NoSuchType) PRIMARY KEY id;").is_err());
        apply(&mut c, "CREATE TYPE T AS { id: int };").unwrap();
        assert!(
            apply(&mut c, "CREATE DATASET D(T) PRIMARY KEY nope;").is_err(),
            "pk must be declared"
        );
        apply(&mut c, "CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
        assert!(apply(&mut c, "CREATE DATASET D(T) PRIMARY KEY id;").is_err(), "duplicate");
        assert!(apply(&mut c, "DROP TYPE T;").is_err(), "in use");
        apply(&mut c, "DROP DATASET D;").unwrap();
        apply(&mut c, "DROP TYPE T;").unwrap();
    }

    #[test]
    fn a_type_is_dropped_after_the_types_that_name_it() {
        let mut c = Catalog::new();
        apply(&mut c, "CREATE TYPE Leaf AS { a: int }; CREATE TYPE Mid AS { leaves: {{ [Leaf] }} };").unwrap();
        apply(&mut c, "CREATE TYPE Top AS { id: int, mid: Mid? }; CREATE DATASET D(Top) PRIMARY KEY id;").unwrap();
        for ty in ["Leaf", "Mid", "Top"] {
            assert!(apply(&mut c, &format!("DROP TYPE {ty};")).is_err(), "{ty} is reachable from D");
        }
        apply(&mut c, "DROP DATASET D; DROP TYPE Top; DROP TYPE Mid; DROP TYPE Leaf;").unwrap();
    }

    #[test]
    fn a_dataset_id_is_never_reused() {
        let mut c = Catalog::new();
        apply(&mut c, "CREATE TYPE T AS { id: int }; CREATE DATASET A(T) PRIMARY KEY id;").unwrap();
        apply(&mut c, "CREATE DATASET B(T) PRIMARY KEY id; DROP DATASET A;").unwrap();
        apply(&mut c, "CREATE DATASET A(T) PRIMARY KEY id;").unwrap();
        assert_eq!((c.dataset("B").unwrap().id, c.dataset("A").unwrap().id), (1, 2));
        // a create whose storage failed is taken back, id and all
        apply(&mut c, "CREATE DATASET C(T) PRIMARY KEY id;").unwrap();
        c.undo_create_dataset("C");
        assert!(c.dataset("C").is_none());
        apply(&mut c, "CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
        assert_eq!(c.dataset("D").unwrap().id, 3);
    }

    #[test]
    fn index_lifecycle() {
        let mut c = Catalog::new();
        apply(
            &mut c,
            "CREATE TYPE T AS { id: int, loc: point };
             CREATE DATASET D(T) PRIMARY KEY id;
             CREATE INDEX locIdx ON D(loc) TYPE RTREE;",
        )
        .unwrap();
        assert_eq!(c.dataset("D").unwrap().indexes[0].kind, IndexKind::RTree);
        assert!(apply(&mut c, "CREATE INDEX locIdx ON D(loc) TYPE RTREE;").is_err());
        apply(&mut c, "DROP INDEX D.locIdx;").unwrap();
        assert!(c.dataset("D").unwrap().indexes.is_empty());
    }

    #[test]
    fn external_dataset_rules() {
        let mut c = Catalog::new();
        apply(
            &mut c,
            r#"CREATE TYPE L AS CLOSED { a: string };
               CREATE EXTERNAL DATASET Log(L) USING localfs (("path"="/tmp/x"),("format"="adm"));"#,
        )
        .unwrap();
        assert!(matches!(
            c.dataset("Log").unwrap().kind,
            DatasetKind::External { .. }
        ));
        assert!(
            apply(&mut c, "CREATE INDEX i ON Log(a);").is_err(),
            "no indexes on external data"
        );
    }
}
