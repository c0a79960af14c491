//! The error text of every one-fault line, pinned field by field.
//!
//! For every generated request, response and journal record, and for
//! each key of each object in its emitted form (batch members, grant
//! lists, snapshot images and the facts inside them included), two
//! faults are planted, one at a time:
//!
//! - the key is **deleted**: the line must be refused with exactly the
//!   text below, or read as the same message with that field at its
//!   default;
//! - the key's value is **swapped** for one of the wrong JSON kind: the
//!   line must be refused with exactly the text below. A tree-valued
//!   field takes any kind, and reads the swapped value back.
//!
//! The tables below are the readers' error vocabulary, one row per
//! field: a change to how a field is read that changes what a client
//! (or recovery) is told fails here.

mod strategies;

use commalloc_service::{JournalRecord, Request, Response};
use proptest::prelude::*;
use serde::{Map, Value};
use strategies::{journal, request_strategy, response_strategy};

/// How one field is read, as far as its faults show.
#[derive(Debug, Clone)]
enum Field {
    /// Required, of this kind (`"string"`, `"integer"`, ...).
    Req(&'static str),
    /// Left out when `None`; a present value of another kind is refused.
    Opt(&'static str),
    /// `null` when `None`; absent reads as `None`.
    Null(&'static str),
    /// Always emitted; an absent key reads as this default.
    Always(&'static str, Value),
    /// Left out at its default; an absent key reads as the default.
    Skip(&'static str),
    /// A required array: `missing or non-array field "k"`.
    Array,
    /// An array left out when empty, refused like [`Field::Array`].
    SkipArray,
    /// A required array reported as `missing "k" array`.
    List,
    /// A required tree of any kind.
    Tree,
    /// A tree of any kind, left out when `None`.
    OptTree,
    /// A response's `ok`.
    Ok,
    /// The `machine` of a `release`/`poll`, optional only beside a
    /// qualified job ref.
    Target,
    /// A [`commalloc_service::JobRef`].
    JobRef,
}

/// What one planted fault must produce.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    /// Refused with exactly this text.
    Refused(String),
    /// The same message with the field at its default: left out of the
    /// re-emitted form (`None`) or emitted as this value.
    Default(Option<Value>),
    /// The swapped value, read back in place.
    Accepted,
}

fn refused(text: String) -> Expect {
    Expect::Refused(text)
}

fn text<'a>(obj: &'a Map, key: &str) -> &'a str {
    obj.get(key).and_then(Value::as_str).unwrap_or("")
}

fn request_field(obj: &Map, key: &str) -> Field {
    use Field::*;
    match (text(obj, "op"), key) {
        (_, "op") => Req("string"),
        ("register", "machine" | "mesh") => Req("string"),
        ("register", "allocator" | "strategy" | "scheduler" | "pool") => Opt("string"),
        ("alloc", "machine") => Req("string"),
        ("alloc", "job" | "size") => Req("integer"),
        ("alloc", "wait") => Always("boolean", Value::Bool(false)),
        ("alloc", "walltime") => Opt("numeric"),
        ("alloc", "pattern" | "tenant") => Opt("string"),
        ("set_scheduler", "machine" | "scheduler") => Req("string"),
        ("set_router", "pool" | "policy") => Req("string"),
        ("batch", "requests") => List,
        ("release" | "poll", "machine") => Target,
        ("release" | "poll", "job") => JobRef,
        ("hello" | "set_tenant", "tenant") => Req("string"),
        ("set_tenant", "weight" | "quota") => Opt("numeric"),
        ("set_tenant", "max_in_flight") => Opt("integer"),
        ("set_fair_share" | "query" | "stats", "machine") => Req("string"),
        ("set_fair_share" | "set_trace", "enabled") => Req("boolean"),
        ("set_trace", "calibration") => Opt("boolean"),
        ("trace", "limit") => Opt("integer"),
        ("trace", "clear") => Skip("boolean"),
        ("metrics", "format") => Always("string", Value::Str("json".into())),
        ("metrics", "window") => Opt("string"),
        (op, key) => panic!("no row for request {op:?} field {key:?}"),
    }
}

fn response_field(obj: &Map, key: &str) -> Field {
    use Field::*;
    if key == "ok" {
        return Ok;
    }
    if obj.get("ok") == Some(&Value::Bool(false)) {
        return match key {
            "error" => Req("string"),
            "code" => Opt("string"),
            "detail" => OptTree,
            key => panic!("no row for error field {key:?}"),
        };
    }
    match (text(obj, "op"), key) {
        (_, "op") => Req("string"),
        ("alloc", "status") | ("poll", "state") => Req("string"),
        (_, "job" | "position" | "dropped") => Req("integer"),
        ("alloc" | "release" | "poll", "machine") => Opt("string"),
        (_, "machine" | "reason" | "scheduler" | "pool" | "policy" | "tenant" | "format") => {
            Req("string")
        }
        (_, "nodes") => Array,
        (_, "granted" | "events" | "machines" | "responses") => List,
        ("poll", "reserved_start") => Opt("numeric"),
        ("poll", "explain") => OptTree,
        ("set_tenant", "weight") => Req("numeric"),
        ("set_tenant", "quota") => Opt("numeric"),
        ("set_tenant", "max_in_flight") => Opt("integer"),
        (_, "enabled") => Req("boolean"),
        ("trace", "decisions") => Always("array", Value::Array(Vec::new())),
        (_, "tenants" | "snapshot" | "stats" | "journal" | "calibration" | "metrics") => Tree,
        (op, key) => panic!("no row for response {op:?} field {key:?}"),
    }
}

/// The fields of a running job (a `grant`'s body) or a queued request
/// (a `queue`'s body).
fn job_fact_field(key: &str) -> Option<Field> {
    use Field::*;
    Some(match key {
        "job" | "size" => Req("integer"),
        "nodes" => Array,
        "walltime" => Null("numeric"),
        "start" | "enqueued_at" => Req("numeric"),
        "pattern" | "tenant" => Opt("string"),
        _ => return None,
    })
}

/// The fields of a tenant spec (a `set_tenant`'s body, a tenant
/// image's head).
fn tenant_spec_field(key: &str) -> Option<Field> {
    use Field::*;
    Some(match key {
        "tenant" => Req("string"),
        "weight" => Req("numeric"),
        "quota" => Opt("numeric"),
        "max_in_flight" => Opt("integer"),
        _ => return None,
    })
}

/// The fields of a machine spec (a `register`'s body, a machine
/// image's head).
fn machine_spec_field(key: &str) -> Option<Field> {
    use Field::*;
    Some(match key {
        "machine" | "mesh" => Req("string"),
        "allocator" | "strategy" | "scheduler" => Null("string"),
        _ => return None,
    })
}

/// Which kind of object a field sits in.
#[derive(Debug, Clone, Copy)]
enum Object {
    Request,
    Response,
    /// One `{job, nodes}` entry of a response's `granted`.
    Grant,
    Record,
    MachineImage,
    RunningJob,
    QueuedRequest,
    PoolImage,
    TenantImage,
}

fn journal_field(object: Object, obj: &Map, key: &str) -> Field {
    use Field::*;
    let row = match object {
        Object::Record => match (text(obj, "rec"), key) {
            (_, "seq") => Some(Req("integer")),
            (_, "rec") => Some(Req("string")),
            ("register", "pool") => Some(Null("string")),
            ("register", key) => machine_spec_field(key),
            ("grant" | "queue", "machine") => Some(Req("string")),
            ("grant" | "queue", key) => job_fact_field(key),
            ("release" | "cancel" | "set_scheduler" | "set_fair_share", "machine") => {
                Some(Req("string"))
            }
            ("release" | "cancel", "job") => Some(Req("integer")),
            ("release", "held") => Some(Skip("numeric")),
            ("set_scheduler", "scheduler") => Some(Req("string")),
            ("set_router", "pool" | "policy") => Some(Req("string")),
            ("set_tenant", key) => tenant_spec_field(key),
            ("set_fair_share", "enabled") => Some(Req("boolean")),
            ("snapshot", "epoch" | "covers") => Some(Req("integer")),
            ("snapshot", "machines" | "pools") => Some(Array),
            ("snapshot", "tenants") => Some(SkipArray),
            _ => None,
        },
        Object::MachineImage => match key {
            "seq" => Some(Req("integer")),
            "clock" => Some(Null("numeric")),
            "fair_share" => Some(Skip("boolean")),
            "running" | "queue" => Some(Array),
            key => machine_spec_field(key),
        },
        Object::RunningJob | Object::QueuedRequest => job_fact_field(key),
        Object::PoolImage => match key {
            "pool" | "policy" => Some(Req("string")),
            "members" => Some(Array),
            _ => None,
        },
        Object::TenantImage => match key {
            "consumed" => Some(Req("numeric")),
            key => tenant_spec_field(key),
        },
        Object::Grant => match key {
            "job" => Some(Req("integer")),
            "nodes" => Some(Array),
            _ => None,
        },
        Object::Request | Object::Response => unreachable!("wire objects have their own rows"),
    };
    row.unwrap_or_else(|| panic!("no row for {object:?} field {key:?}"))
}

fn field_of(object: Object, obj: &Map, key: &str) -> Field {
    match object {
        Object::Request => request_field(obj, key),
        Object::Response => response_field(obj, key),
        _ => journal_field(object, obj, key),
    }
}

/// The objects nested under `key` of an `object`, when the readers
/// read them field by field (tree-valued fields are taken whole).
fn nested(object: Object, key: &str) -> Option<Object> {
    Some(match (object, key) {
        (Object::Request, "requests") => Object::Request,
        (Object::Response, "responses") => Object::Response,
        (Object::Response, "granted") => Object::Grant,
        (Object::Record, "machines") => Object::MachineImage,
        (Object::Record, "pools") => Object::PoolImage,
        (Object::Record, "tenants") => Object::TenantImage,
        (Object::MachineImage, "running") => Object::RunningJob,
        (Object::MachineImage, "queue") => Object::QueuedRequest,
        _ => return None,
    })
}

/// A value of the wrong JSON kind for whatever `value` is.
fn wrong_kind(value: &Value) -> Value {
    match value {
        Value::Str(_) | Value::Null => Value::Bool(true),
        Value::Bool(_) => Value::Int(1),
        _ => Value::Str("x".into()),
    }
}

fn on_delete(field: &Field, key: &str, obj: &Map) -> Expect {
    match field {
        Field::Req(kind) => refused(format!("missing or non-{kind} field {key:?}")),
        Field::Opt(_) | Field::Skip(_) | Field::SkipArray | Field::OptTree => Expect::Default(None),
        Field::Null(_) => Expect::Default(Some(Value::Null)),
        Field::Always(_, default) => Expect::Default(Some(default.clone())),
        Field::Array => refused(format!("missing or non-array field {key:?}")),
        Field::List => refused(format!("missing {key:?} array")),
        Field::Tree => refused(format!("missing {key:?}")),
        Field::Ok => refused("missing \"ok\" field".into()),
        Field::Target => match obj.get("job") {
            Some(Value::Str(_)) => Expect::Default(None),
            _ => refused(format!(
                "{} needs a \"machine\" or a qualified job ref",
                text(obj, "op")
            )),
        },
        Field::JobRef => refused("missing field \"job\"".into()),
    }
}

fn on_swap(field: &Field, key: &str, value: &Value) -> Expect {
    match field {
        Field::Req(kind) => refused(format!("missing or non-{kind} field {key:?}")),
        Field::Opt(kind) | Field::Null(kind) | Field::Always(kind, _) | Field::Skip(kind) => {
            refused(format!("non-{kind} field {key:?}"))
        }
        Field::Array | Field::SkipArray => refused(format!("missing or non-array field {key:?}")),
        Field::List => refused(format!("missing {key:?} array")),
        Field::Tree | Field::OptTree => Expect::Accepted,
        Field::Ok => refused("missing \"ok\" field".into()),
        Field::Target => refused(format!("non-string field {key:?}")),
        Field::JobRef => match value {
            Value::Str(_) => {
                refused("job ref must be an integer id or a \"pool/machine/id\" string".into())
            }
            _ => refused(
                "malformed job ref \"x\" (want \"id\", \"machine/id\" or \"pool/machine/id\")"
                    .into(),
            ),
        },
    }
}

/// One step down a tree: an object key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every object the readers read field by field, with its path.
fn objects(tree: &Value, object: Object, path: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, Object)>) {
    out.push((path.clone(), object));
    let Some(obj) = tree.as_object() else { return };
    for (key, value) in obj.iter() {
        let (Some(inner), Some(items)) = (nested(object, key), value.as_array()) else {
            continue;
        };
        for (i, item) in items.iter().enumerate() {
            path.push(Step::Key(key.clone()));
            path.push(Step::Index(i));
            objects(item, inner, path, out);
            path.truncate(path.len() - 2);
        }
    }
}

fn at<'a>(tree: &'a Value, path: &[Step]) -> &'a Value {
    path.iter().fold(tree, |v, step| match step {
        Step::Key(k) => v.get(k).expect("path key"),
        Step::Index(i) => &v.as_array().expect("path array")[*i],
    })
}

/// `tree` with the object at `path` rewritten by `edit`.
fn edited(tree: &Value, path: &[Step], edit: &dyn Fn(&Map) -> Map) -> Value {
    let Some((step, rest)) = path.split_first() else {
        return Value::Object(edit(tree.as_object().expect("an object")));
    };
    match (step, tree) {
        (Step::Key(k), Value::Object(m)) => {
            let mut out = Map::new();
            for (key, value) in m.iter() {
                let value = if key == k {
                    edited(value, rest, edit)
                } else {
                    value.clone()
                };
                out.insert(key.clone(), value);
            }
            Value::Object(out)
        }
        (Step::Index(i), Value::Array(items)) => Value::Array(
            items
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    if j == *i {
                        edited(v, rest, edit)
                    } else {
                        v.clone()
                    }
                })
                .collect(),
        ),
        _ => panic!("path does not fit the tree"),
    }
}

fn without(m: &Map, key: &str) -> Map {
    let mut out = Map::new();
    for (k, v) in m.iter().filter(|(k, _)| *k != key) {
        out.insert(k.clone(), v.clone());
    }
    out
}

fn replaced(m: &Map, key: &str, value: &Value) -> Map {
    let mut out = m.clone();
    out.insert(key.to_string(), value.clone());
    out
}

/// Reads one line and renders what it read as a tree, or the error.
type Reader = fn(&str) -> Result<Value, String>;

fn tree_of(line: &str) -> Value {
    serde_json::from_str(line).expect("emitted lines parse")
}

fn read_request(line: &str) -> Result<Value, String> {
    Request::from_line(line)
        .map(|r| tree_of(&r.to_line()))
        .map_err(|e| e.to_string())
}

fn read_response(line: &str) -> Result<Value, String> {
    Response::from_line(line)
        .map(|r| tree_of(&r.to_line()))
        .map_err(|e| e.to_string())
}

fn read_record(line: &str) -> Result<Value, String> {
    JournalRecord::from_line(line)
        .map(|(seq, r)| tree_of(&r.to_line(seq)))
        .map_err(|e| e.to_string())
}

fn check(
    read: Reader,
    line: &str,
    mutated: &Value,
    fault: &str,
    expect: Expect,
    expected_default: impl Fn(Option<&Value>) -> Value,
) -> Result<(), TestCaseError> {
    let text = serde_json::to_string(mutated).expect("trees render");
    let got = read(&text);
    let ok = match (&got, &expect) {
        (Err(error), Expect::Refused(want)) => error == want,
        (Ok(tree), Expect::Default(default)) => *tree == expected_default(default.as_ref()),
        (Ok(tree), Expect::Accepted) => tree == mutated,
        _ => false,
    };
    prop_assert!(
        ok,
        "{fault}: got {got:?}, expected {expect:?}\n  line: {line}\n  faulty: {text}"
    );
    Ok(())
}

/// Plants both faults in every field of every object of `line`.
fn plant_faults(line: &str, top: Object, read: Reader) -> Result<(), TestCaseError> {
    let root = tree_of(line);
    let mut found = Vec::new();
    objects(&root, top, &mut Vec::new(), &mut found);
    for (path, object) in found {
        let obj = at(&root, &path).as_object().expect("an object");
        for (key, value) in obj.iter() {
            let field = field_of(object, obj, key);
            let default_of = |default: Option<&Value>| {
                edited(&root, &path, &|m| match default {
                    None => without(m, key),
                    Some(v) => replaced(m, key, v),
                })
            };
            let deleted = edited(&root, &path, &|m| without(m, key));
            let expect = on_delete(&field, key, obj);
            check(
                read,
                line,
                &deleted,
                &format!("deleting {key:?}"),
                expect,
                default_of,
            )?;
            let swap = wrong_kind(value);
            let swapped = edited(&root, &path, &|m| replaced(m, key, &swap));
            let expect = on_swap(&field, key, value);
            check(
                read,
                line,
                &swapped,
                &format!("swapping {key:?}"),
                expect,
                default_of,
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_field_fault_reads_as_pinned(request in request_strategy()) {
        plant_faults(&request.to_line(), Object::Request, read_request)?;
    }

    #[test]
    fn every_response_field_fault_reads_as_pinned(response in response_strategy()) {
        plant_faults(&response.to_line(), Object::Response, read_response)?;
    }

    #[test]
    fn every_journal_field_fault_reads_as_pinned(
        record in journal::record_strategy(),
        seq in any::<u64>(),
    ) {
        plant_faults(&record.to_line(seq), Object::Record, read_record)?;
    }
}

/// The tree-only answers the response strategy does not generate.
#[test]
fn tree_answers_fault_as_pinned() {
    let tree = tree_of(r#"{"machine":"m0","busy":3,"free":[1,2]}"#);
    for response in [
        Response::Snapshot(tree.clone()),
        Response::Stats(tree.clone()),
        Response::JournalStats(tree),
    ] {
        plant_faults(&response.to_line(), Object::Response, read_response)
            .unwrap_or_else(|e| panic!("{e:?}"));
    }
}
