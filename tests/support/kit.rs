//! The conformance kit: every registered storage method and attachment
//! type, declared once.
//!
//! An entry says how to put its type on the fixture — `u (id)` and `t`
//! of [`T_COLUMNS`], loaded from [`row`] — and the few facts of the type
//! a family needs. A family that cannot run on a type is told why, in
//! one line. Five families run every entry from here:
//!
//! * the scan protocol, and update ≡ delete + insert checked through
//!   it, `tests/scan_conformance.rs`;
//! * replay of the logged-tree records, `tests/logged_tree_replay.rs`;
//! * a crash at every I/O, `tests/fault_sweep.rs`;
//! * `CHECK TABLE` and `REPAIR TABLE`, `tests/self_heal.rs`.
//!
//! `tests/kit.rs` also fails on a registered type without an entry, so a
//! new extension is proved by adding one entry to [`ENTRIES`].

use std::sync::Arc;

use starburst_dmx::core::ExtensionRegistry;
use starburst_dmx::prelude::*;
use starburst_dmx::storage::{register_builtin_storage_with, ForeignStorage};
use starburst_dmx::types::FileId;

/// The partner relation: join-index right side and refint parent.
pub const U: &str = "CREATE TABLE u (id INT NOT NULL)";
/// The columns of `t`, the relation every entry's type goes on.
pub const T_COLUMNS: &str = "(id INT NOT NULL, v INT, area RECT, note STRING)";
/// Fields of `t`.
pub const ID: usize = 0;
pub const V: usize = 1;
pub const AREA: usize = 2;
pub const NOTE: usize = 3;
/// Distinct `v` values of the generated rows.
pub const GROUPS: i64 = 4;
/// The foreign server the kit's registry has: the foreign entry's DDL
/// names it.
pub const SERVER: &str = "mars";
/// The hook the trigger entry's DDL names (`action = 'hook:x'`).
pub const HOOK: &str = "x";

/// Row `id` of `t`: `v` cycles through [`GROUPS`] values, `area` is the
/// unit square at `(id, id)` and the note is empty.
pub fn row(id: i64) -> Vec<Value> {
    let at = id as f64;
    vec![
        Value::Int(id),
        Value::Int(id % GROUPS),
        Value::Rect(Rect::new(at, at, at + 1.0, at + 1.0)),
        Value::from(""),
    ]
}

/// `row` as an `INSERT` statement into `table`.
pub fn insert_sql(table: &str, row: &[Value]) -> String {
    let values: Vec<String> = row.iter().map(Value::to_string).collect();
    format!("INSERT INTO {table} VALUES ({})", values.join(", "))
}

/// How an entry's type goes on the fixture.
pub enum On {
    /// A storage method: `t` is created with this `USING` clause.
    Storage(&'static str),
    /// An attachment type: `ddl` puts one instance, `instance`, on `t`
    /// (and its partner on `u`) over the heap; `params` is the list
    /// `sys.attachments` shows for it, or why it shows another.
    Attachment {
        instance: &'static str,
        ddl: &'static [&'static str],
        params: Fact<&'static str>,
    },
}

/// What a family needs of a type, or the one-line reason it skips it.
pub type Fact<T> = std::result::Result<T, &'static str>;

/// Which queries a scan answers.
#[derive(Clone, Copy)]
pub enum Queries {
    /// Key ranges over its items' keys.
    Ranges,
    /// One exact key at a time.
    ExactKeys,
    /// The full scan only.
    AllOnly,
    /// The full scan and a spatial search.
    Spatial,
}

/// What a scan's items are; the scan family models them, the update
/// family resolves them to rows.
#[derive(Clone, Copy)]
pub enum Items {
    /// One full record per record key, in record-key order.
    Records,
    /// Per value of the field: its records' keys in key order, each
    /// with the value.
    Index(usize),
    /// `(v, count, sum(id))` per `v`, keyed by `v`; not record keys.
    Groups,
    /// A `(t key, u key)` pair per `t.v = u.id`, in `(v, t key, u key)`
    /// order.
    Pairs,
    /// The `area` of each record that has one, in tree order.
    Areas,
}

/// The scan family's facts.
pub struct Scan {
    pub queries: Queries,
    pub items: Items,
    /// Snapshot reads re-derive its items from record versions, without
    /// locks; otherwise a snapshot transaction scans it under locks.
    pub versioned: bool,
    /// A deleted record leaves the scan (false: write-once).
    pub deletes: bool,
    /// `scan_rebind` re-binds it (false: refused, the caller reopens).
    pub rebinds: bool,
    /// For a path that takes next-key gap locks: where its entries are.
    pub tree_entry: Option<TreeEntry>,
}

/// The tree entry of the record with key `record` under item key `key`.
pub type TreeEntry = fn(key: &[u8], record: &[u8]) -> Vec<u8>;

/// Where an extension's trees are, reached without going through it.
#[derive(Clone, Copy)]
pub enum Trees {
    /// The B-tree the storage method's descriptor names.
    Storage,
    /// The B-trees the instance's stored list names.
    Named,
    /// The R-tree the instance's stored list names.
    NamedRTree,
}

/// The replay family's facts.
pub struct Replay {
    pub trees: Trees,
    /// Every op code the family's script makes it log.
    pub ops: &'static [u8],
}

/// Logged-tree op codes.
pub const OP_INSERT: u8 = 1;
pub const OP_DELETE: u8 = 2;
pub const OP_IMAGES: u8 = 3;
pub const OP_PATCH: u8 = 4;

/// What the update family asks a type.
#[derive(Clone, Copy)]
pub enum Ask {
    /// Every query of its scan facts.
    Scan,
    /// The row count its maintained statistics publish.
    Statistics,
}

/// The CHECK/REPAIR family's facts.
pub struct Repair {
    /// Tree files `CHECK TABLE` walks.
    pub files: usize,
    /// A preventive `REPAIR TABLE` rebuilds it into new files (false: it
    /// cannot restate its DDL and is left as it is).
    pub rebuilt: bool,
}

pub struct Entry {
    /// The registered type name.
    pub name: &'static str,
    pub on: On,
    pub scan: Fact<Scan>,
    pub replay: Fact<Replay>,
    pub update: Fact<Ask>,
    pub crash: Fact<()>,
    pub repair: Fact<Repair>,
}

impl Scan {
    /// A scan that deletes and re-binds, and that a snapshot transaction
    /// runs under locks.
    const fn of(queries: Queries, items: Items) -> Scan {
        Scan {
            queries,
            items,
            versioned: false,
            deletes: true,
            rebinds: true,
            tree_entry: None,
        }
    }

    const fn versioned(mut self) -> Scan {
        self.versioned = true;
        self
    }

    const fn gap_locked(mut self, entry: TreeEntry) -> Scan {
        self.tree_entry = Some(entry);
        self
    }
}

/// Index entries are `enc(value) ∥ record key`.
fn index_entry(key: &[u8], record: &[u8]) -> Vec<u8> {
    [key, record].concat()
}

/// A B-tree relation's entry is the record key.
fn record_entry(_: &[u8], record: &[u8]) -> Vec<u8> {
    record.to_vec()
}

/// A storage method's scan: records by record key, versioned.
const RECORDS: Scan = Scan::of(Queries::Ranges, Items::Records).versioned();
const ENTRY_OPS: &[u8] = &[OP_INSERT, OP_DELETE];

const fn replay(trees: Trees, ops: &'static [u8]) -> Fact<Replay> {
    Ok(Replay { trees, ops })
}

const fn repair(files: usize, rebuilt: bool) -> Fact<Repair> {
    Ok(Repair { files, rebuilt })
}

const fn attachment(
    instance: &'static str,
    ddl: &'static [&'static str],
    params: &'static str,
) -> On {
    On::Attachment {
        instance,
        ddl,
        params: Ok(params),
    }
}

const STORAGE_UPDATE: &str = "the twins are heap relations: storage methods are not compared";
const NO_SCAN: &str = "no scan: it vetoes or acts, and serves no access path";
const NO_TREES: &str = "keeps no tree: nothing to replay but the base's records";
const NO_REPAIR: &str = "REPAIR rebuilds attachments, not a base relation's method";
const SCAN_ONLY: &str = "the btree entry's unique index stands for the type here";

/// Every registered type. The attachments come in the order the
/// every-type sweep creates them.
pub const ENTRIES: &[Entry] = &[
    Entry {
        name: "memory",
        on: On::Storage("memory"),
        scan: Ok(Scan { rebinds: false, ..RECORDS }),
        replay: Err("an ordered map off the pool: undo only, nothing is redone"),
        update: Err(STORAGE_UPDATE),
        crash: Err("temporary: a restart purges it"),
        repair: Err(NO_REPAIR),
    },
    Entry {
        name: "heap",
        on: On::Storage("heap"),
        scan: Ok(RECORDS),
        replay: Err("slotted pages, not a logged tree: fault_sweep replays them"),
        update: Err(STORAGE_UPDATE),
        crash: Err("the base every attachment of the sweep sits on"),
        repair: Err(NO_REPAIR),
    },
    Entry {
        name: "btree",
        on: On::Storage("btree WITH (key = id)"),
        scan: Ok(RECORDS.gap_locked(record_entry)),
        // a value of one width changes in place, one of another width is
        // replaced whole, a new key moves
        replay: replay(Trees::Storage, &[OP_INSERT, OP_DELETE, OP_IMAGES, OP_PATCH]),
        update: Err(STORAGE_UPDATE),
        crash: Err("crash_point_sweep_recovers_consistently sweeps a B-tree relation"),
        repair: Err(NO_REPAIR),
    },
    Entry {
        name: "readonly",
        on: On::Storage("readonly"),
        scan: Ok(Scan { deletes: false, ..RECORDS }),
        replay: Err("slotted pages, not a logged tree"),
        update: Err("write-once: it refuses updates and deletes"),
        crash: Err("the every-type sweep runs on a heap"),
        repair: Err(NO_REPAIR),
    },
    Entry {
        name: "foreign",
        on: On::Storage("foreign WITH (server = mars)"),
        scan: Ok(Scan { rebinds: false, ..RECORDS }),
        replay: Err("undone by compensating remote operations, not a logged tree"),
        update: Err(STORAGE_UPDATE),
        crash: Err("the simulated server does not survive a restart"),
        repair: Err(NO_REPAIR),
    },
    Entry {
        name: "system",
        on: On::Storage("system"),
        scan: Err("sys.* relations are built in: no DDL creates one"),
        replay: Err("sys.* relations log nothing"),
        update: Err("sys.* relations refuse DML"),
        crash: Err("sys.* relations are rebuilt at open"),
        repair: Err("sys.* relations have no pages"),
    },
    Entry {
        name: "btree",
        on: attachment("t_id", &["CREATE UNIQUE INDEX t_id ON t (id)"], "fields = id, unique = true"),
        scan: Ok(Scan::of(Queries::Ranges, Items::Index(ID)).versioned().gap_locked(index_entry)),
        replay: replay(Trees::Named, ENTRY_OPS),
        update: Ok(Ask::Scan),
        crash: Ok(()),
        repair: repair(1, true),
    },
    Entry {
        name: "hash",
        on: attachment("t_v", &["CREATE INDEX t_v ON t USING hash (v)"], "fields = v"),
        scan: Ok(Scan::of(Queries::ExactKeys, Items::Index(V)).versioned()),
        replay: replay(Trees::Named, ENTRY_OPS),
        update: Ok(Ask::Scan),
        crash: Ok(()),
        repair: repair(1, true),
    },
    Entry {
        name: "rtree",
        on: attachment("t_area", &["CREATE INDEX t_area ON t USING rtree (area)"], "fields = area"),
        scan: Ok(Scan { rebinds: false, ..Scan::of(Queries::Spatial, Items::Areas) }),
        replay: replay(Trees::NamedRTree, ENTRY_OPS),
        update: Ok(Ask::Scan),
        crash: Ok(()),
        repair: repair(1, true),
    },
    Entry {
        name: "aggregate",
        on: attachment(
            "t_sums",
            &["CREATE ATTACHMENT t_sums ON t USING aggregate WITH (sum = id, group_by = v)"],
            "sum = id, group_by = v",
        ),
        scan: Ok(Scan::of(Queries::Ranges, Items::Groups)),
        // a group's first row creates its cell, its last row's removal
        // deletes it; in between, a count and a sum of fixed width change
        // in place
        replay: replay(Trees::Named, &[OP_INSERT, OP_DELETE, OP_PATCH]),
        update: Ok(Ask::Scan),
        crash: Ok(()),
        repair: repair(1, true),
    },
    Entry {
        name: "joinindex",
        on: attachment(
            "tu",
            &[
                "CREATE ATTACHMENT tu ON t USING joinindex WITH (side=left, fields=v)",
                "CREATE ATTACHMENT tu ON u USING joinindex WITH (side=right, fields=id, other=t)",
            ],
            "side = left, fields = v",
        ),
        scan: Ok(Scan::of(Queries::AllOnly, Items::Pairs)),
        replay: replay(Trees::Named, ENTRY_OPS),
        update: Ok(Ask::Scan),
        crash: Ok(()),
        // one side does not know the two-relation DDL
        repair: repair(3, false),
    },
    Entry {
        name: "refint",
        on: attachment(
            "fk_c",
            &[
                "CREATE ATTACHMENT fk_c ON t USING refint \
                 WITH (role=child, fields=v, other=u, other_fields=id)",
                "CREATE ATTACHMENT fk_p ON u USING refint \
                 WITH (role=parent, fields=id, other=t, other_fields=v)",
            ],
            "role = child, fields = v, other = u, other_fields = id",
        ),
        scan: Err(NO_SCAN),
        replay: Err(NO_TREES),
        update: Err("its veto of an orphan is swept by fault_sweep"),
        crash: Ok(()),
        repair: repair(0, false),
    },
    Entry {
        name: "check",
        on: On::Attachment {
            instance: "t_pos",
            ddl: &["CREATE CONSTRAINT t_pos ON t CHECK (id >= 0)"],
            // a known defect, listed in CHANGES.md
            params: Err("shows its stored expression as hex bytes, not the DDL's text"),
        },
        scan: Err(NO_SCAN),
        replay: Err(NO_TREES),
        update: Err("its veto is swept by fault_sweep"),
        crash: Ok(()),
        repair: repair(0, false),
    },
    Entry {
        name: "trigger",
        on: attachment(
            "t_log",
            &["CREATE ATTACHMENT t_log ON t USING trigger WITH (on = 'insert,delete', action = 'hook:x')"],
            "on = 'insert,delete', action = 'hook:x'",
        ),
        scan: Err(NO_SCAN),
        replay: Err(NO_TREES),
        update: Err("its hook sees a record, not the access paths the family compares"),
        crash: Ok(()),
        repair: repair(0, false),
    },
    Entry {
        name: "stats",
        on: attachment("t_stats", &["CREATE ATTACHMENT t_stats ON t USING stats"], ""),
        scan: Err("no scan: the planner reads its cell through the descriptor"),
        // the cell's first image, then patches of it
        replay: replay(Trees::Named, &[OP_INSERT, OP_PATCH]),
        update: Ok(Ask::Statistics),
        crash: Ok(()),
        repair: repair(1, true),
    },
];

/// A second B-tree index, on `v`, whose every key holds a run of
/// records: the scan family runs it besides [`ENTRIES`], for ranges,
/// positions, deletes and next-key locks across duplicate keys.
pub static DUPLICATE_KEYS: Entry = Entry {
    name: "btree",
    on: attachment("t_bv", &["CREATE INDEX t_bv ON t (v)"], "fields = v"),
    scan: Ok(Scan::of(Queries::Ranges, Items::Index(V))
        .versioned()
        .gap_locked(index_entry)),
    replay: Err(SCAN_ONLY),
    update: Err(SCAN_ONLY),
    crash: Err(SCAN_ONLY),
    repair: Err(SCAN_ONLY),
};

/// The entries a family runs, each with its facts for that family.
pub fn running<T>(
    fact: fn(&'static Entry) -> &'static Fact<T>,
) -> impl Iterator<Item = (&'static Entry, &'static T)> {
    ENTRIES
        .iter()
        .filter_map(move |e| Some((e, fact(e).as_ref().ok()?)))
}

impl Entry {
    pub fn is_storage(&self) -> bool {
        matches!(self.on, On::Storage(_))
    }

    /// The instance on `t` of an attachment entry.
    pub fn instance(&self) -> Option<&'static str> {
        match self.on {
            On::Attachment { instance, .. } => Some(instance),
            On::Storage(_) => None,
        }
    }

    /// A storage method's `CREATE TABLE t`, or an attachment's statements.
    pub fn ddl(&self) -> Vec<String> {
        match self.on {
            On::Storage(using) => vec![format!("CREATE TABLE t {T_COLUMNS} USING {using}")],
            On::Attachment { ddl, .. } => ddl.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The path this entry's scan facts are about, and the files its
    /// type keeps for `t`: the storage method's, or its instance's.
    pub fn path(&self, db: &Arc<Database>) -> (AccessPath, Vec<FileId>) {
        let rd = db.catalog().get_by_name("t").unwrap();
        let reg = db.registry();
        match self
            .instance()
            .map(|name| rd.find_attachment(name).unwrap())
        {
            None => {
                let files = reg.storage(rd.sm).unwrap().storage_files(&rd.sm_desc);
                (AccessPath::StorageMethod, files)
            }
            Some((att, inst)) => {
                let files = reg.attachment(att).unwrap().storage_files(&inst.desc);
                (AccessPath::Attachment(att, inst.instance), files)
            }
        }
    }
}

/// Builds the fixture with `entries` on it: `u`, `t` (on the storage
/// method among them, or the heap), then their attachments.
pub fn build<'a>(db: &Arc<Database>, entries: impl IntoIterator<Item = &'a Entry>) {
    let entries: Vec<&Entry> = entries.into_iter().collect();
    let heap = entries.iter().all(|e| !e.is_storage());
    let t = heap.then(|| format!("CREATE TABLE t {T_COLUMNS}"));
    let ddl = entries.iter().flat_map(|e| e.ddl());
    for sql in [U.to_string()].into_iter().chain(t).chain(ddl) {
        db.execute_sql(&sql)
            .map_err(|e| format!("{sql}: {e}"))
            .unwrap();
    }
}

/// A fresh database over the built-in registry, whose foreign storage
/// method knows [`SERVER`], and with the kit's hooks registered.
pub fn open() -> Arc<Database> {
    let (reg, foreign) = (ExtensionRegistry::new(), ForeignStorage::default());
    foreign.register_server(SERVER);
    register_builtin_storage_with(&reg, foreign).unwrap();
    starburst_dmx::attach::register_builtin_attachments(&reg).unwrap();
    let db = Database::open_fresh(reg).unwrap();
    register_hooks(&db);
    db
}

/// The hook the trigger entry calls: a no-op.
pub fn register_hooks(db: &Arc<Database>) {
    db.register_hook(HOOK, Arc::new(|_, _| Ok(())));
}

/// Inserts `rows` into `table` in one transaction; each with its record
/// key.
pub fn load(
    db: &Arc<Database>,
    table: &str,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Vec<(RecordKey, Vec<Value>)> {
    let rel = db.catalog().get_by_name(table).unwrap().id;
    db.with_txn(|txn| {
        rows.into_iter()
            .map(|r| Ok((db.insert(txn, rel, Record::new(r.clone()))?, r)))
            .collect()
    })
    .unwrap()
}
