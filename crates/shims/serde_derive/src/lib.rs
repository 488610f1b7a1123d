//! Derive macros for the vendored `serde` shim.
//!
//! The offline build environment has neither `syn` nor `quote`, so the input item is parsed
//! directly from the `proc_macro` token trees.  Supported shapes cover everything this
//! workspace derives on: non-generic structs (named, tuple, unit) and non-generic enums with
//! unit, tuple, and struct variants (`Deserialize`: named structs and enums only).  Output
//! follows serde's JSON data model (externally tagged enums).  The one field attribute is
//! `#[serde(default)]`: `Deserialize` fills an absent or `null` field with `Default::default()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field-or-variant description.
enum Shape {
    /// `struct S;`
    UnitStruct,
    /// `struct S { a: T, b: U }` — fields in order.
    NamedStruct(Vec<Field>),
    /// `struct S(T, U);` — number of fields.
    TupleStruct(usize),
    /// `enum E { ... }` — variants as (name, fields).
    Enum(Vec<(String, VariantFields)>),
}

enum VariantFields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

/// One named field.
struct Field {
    name: String,
    /// Marked `#[serde(default)]`.
    default: bool,
}

/// Derives the shim's `serde::Serialize` (JSON writer) for the item.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match shape {
        Shape::UnitStruct => "out.push_str(\"null\");".to_string(),
        Shape::NamedStruct(fields) => {
            let mut code = String::from("out.push('{');\n");
            for (i, Field { name: f, .. }) in fields.iter().enumerate() {
                if i > 0 {
                    code.push_str("out.push(',');\n");
                }
                code.push_str(&format!(
                    "out.push_str(\"\\\"{f}\\\":\");\nserde::Serialize::serialize_json(&self.{f}, out);\n"
                ));
            }
            code.push_str("out.push('}');");
            code
        }
        Shape::TupleStruct(1) => "serde::Serialize::serialize_json(&self.0, out);".to_string(),
        Shape::TupleStruct(n) => {
            let mut code = String::from("out.push('[');\n");
            for i in 0..n {
                if i > 0 {
                    code.push_str("out.push(',');\n");
                }
                code.push_str(&format!("serde::Serialize::serialize_json(&self.{i}, out);\n"));
            }
            code.push_str("out.push(']');");
            code
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, fields) in &variants {
                match fields {
                    VariantFields::Unit => {
                        arms.push_str(&format!(
                            "{name}::{v} => {{ out.push_str(\"\\\"{v}\\\"\"); }}\n"
                        ));
                    }
                    VariantFields::Tuple(1) => {
                        arms.push_str(&format!(
                            "{name}::{v}(f0) => {{ out.push_str(\"{{\\\"{v}\\\":\"); \
                             serde::Serialize::serialize_json(f0, out); out.push('}}'); }}\n"
                        ));
                    }
                    VariantFields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let mut inner = format!(
                            "{name}::{v}({}) => {{ out.push_str(\"{{\\\"{v}\\\":[\");\n",
                            binds.join(", ")
                        );
                        for (i, b) in binds.iter().enumerate() {
                            if i > 0 {
                                inner.push_str("out.push(',');\n");
                            }
                            inner.push_str(&format!(
                                "serde::Serialize::serialize_json({b}, out);\n"
                            ));
                        }
                        inner.push_str("out.push_str(\"]}\"); }\n");
                        arms.push_str(&inner);
                    }
                    VariantFields::Named(fields) => {
                        let fs: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let mut inner = format!(
                            "{name}::{v} {{ {} }} => {{ out.push_str(\"{{\\\"{v}\\\":{{\");\n",
                            fs.join(", ")
                        );
                        for (i, f) in fs.iter().enumerate() {
                            if i > 0 {
                                inner.push_str("out.push(',');\n");
                            }
                            inner.push_str(&format!(
                                "out.push_str(\"\\\"{f}\\\":\");\nserde::Serialize::serialize_json({f}, out);\n"
                            ));
                        }
                        inner.push_str("out.push_str(\"}}\"); }\n");
                        arms.push_str(&inner);
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let code = format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize_json(&self, out: &mut String) {{\n{body}\n}}\n}}"
    );
    code.parse().expect("generated Serialize impl must parse")
}

/// Derives the shim's `serde::Deserialize` (decoding from a `serde::Value`) for a named
/// struct or an enum: the inverse of the `Serialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match shape {
        Shape::NamedStruct(fields) => {
            format!("let obj = serde::de::object(v)?;\nOk({name} {{ {} }})", field_inits(&fields))
        }
        Shape::Enum(variants) => {
            let payload = "serde::de::payload(tag, payload)?";
            let mut arms = String::new();
            for (v, fields) in &variants {
                let arm = match fields {
                    VariantFields::Unit => format!("Ok({name}::{v})"),
                    VariantFields::Named(fields) => format!(
                        "{{ let obj = serde::de::object({payload})?;\n\
                         Ok({name}::{v} {{ {} }}) }}",
                        field_inits(fields)
                    ),
                    VariantFields::Tuple(1) => {
                        format!("Ok({name}::{v}(serde::Deserialize::from_value({payload})?))")
                    }
                    VariantFields::Tuple(n) => {
                        let elements: Vec<String> =
                            (0..*n).map(|i| format!("serde::de::element(items, {i})?")).collect();
                        format!(
                            "{{ let items = serde::de::elements({payload}, {n})?;\n\
                             Ok({name}::{v}({})) }}",
                            elements.join(", ")
                        )
                    }
                };
                arms.push_str(&format!("\"{v}\" => {arm},\n"));
            }
            format!(
                "let (tag, payload) = serde::de::variant(v)?;\nlet _ = payload;\n\
                 match tag {{\n{arms}other => Err(serde::de::unknown_variant(other)),\n}}"
            )
        }
        Shape::UnitStruct | Shape::TupleStruct(_) => panic!(
            "serde_derive shim: Deserialize supports named structs and enums; \
             `{name}` is neither"
        ),
    };
    let code = format!(
        "impl serde::Deserialize for {name} {{\n\
         fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{\n{body}\n}}\n}}"
    );
    code.parse().expect("generated Deserialize impl must parse")
}

/// `a: serde::de::field(obj, "a")?, …` — the struct-literal fields of a decoded object.
fn field_inits(fields: &[Field]) -> String {
    let mut inits = String::new();
    for Field { name, default } in fields {
        let helper = if *default { "field_or_default" } else { "field" };
        inits.push_str(&format!("{name}: serde::de::{helper}(obj, \"{name}\")?, "));
    }
    inits
}

/// Parses a struct or enum item down to the pieces the derives need.
fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut trees = input.into_iter().peekable();
    // Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    let kind = loop {
        match trees.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                let _bracket = trees.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = trees.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        trees.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                panic!("serde_derive shim: unexpected token `{s}` before struct/enum keyword");
            }
            other => panic!("serde_derive shim: unexpected token {other:?}"),
        }
    };
    let name = match trees.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = trees.peek() {
        if p.as_char() == '<' {
            panic!(
                "serde_derive shim: generic type `{name}` is not supported; \
                 write the Serialize impl by hand"
            );
        }
    }
    if kind == "enum" {
        let body = match trees.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        };
        return (name, Shape::Enum(parse_variants(body)));
    }
    // Struct: brace body (named), paren body (tuple), or bare `;` (unit).
    match trees.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            (name, Shape::NamedStruct(parse_named_fields(g.stream())))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            (name, Shape::TupleStruct(count_tuple_fields(g.stream())))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => (name, Shape::UnitStruct),
        other => panic!("serde_derive shim: expected struct body, got {other:?}"),
    }
}

/// Extracts the fields of a named-field body, skipping visibility, types, and attributes
/// other than `#[serde(default)]`.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut trees = body.into_iter().peekable();
    loop {
        // Attributes and visibility before the field name.
        let mut default = false;
        let name = loop {
            match trees.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let attr = trees.next().map(|t| t.to_string().replace(' ', ""));
                    match attr.as_deref() {
                        Some("[serde(default)]") => default = true,
                        Some(a) if a.starts_with("[serde") => {
                            panic!("serde_derive shim: unsupported attribute `#{a}`")
                        }
                        _ => {}
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = trees.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            trees.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde_derive shim: unexpected field token {other:?}"),
            }
        };
        fields.push(Field { name, default });
        match trees.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field name, got {other:?}"),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut depth: i32 = 0;
        loop {
            match trees.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
}

/// Counts the fields of a tuple body (top-level commas at angle depth 0).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth: i32 = 0;
    let mut saw_tokens = false;
    let mut last_was_comma = false;
    for tree in body {
        saw_tokens = true;
        last_was_comma = false;
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    count += 1;
                    last_was_comma = true;
                }
                _ => {}
            }
        }
    }
    if !saw_tokens {
        0
    } else if last_was_comma {
        count
    } else {
        count + 1
    }
}

/// Parses enum variants (unit, tuple, or struct-like).
fn parse_variants(body: TokenStream) -> Vec<(String, VariantFields)> {
    let mut variants = Vec::new();
    let mut trees = body.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let variant = loop {
            match trees.next() {
                None => return variants,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let _bracket = trees.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde_derive shim: unexpected variant token {other:?}"),
            }
        };
        let fields = match trees.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                trees.next();
                VariantFields::Named(parse_named_fields(stream))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                trees.next();
                VariantFields::Tuple(count_tuple_fields(stream))
            }
            _ => VariantFields::Unit,
        };
        variants.push((variant, fields));
        // Consume the trailing comma, if any.
        if let Some(TokenTree::Punct(p)) = trees.peek() {
            if p.as_char() == ',' {
                trees.next();
            }
        }
    }
}
