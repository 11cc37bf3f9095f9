//! Derive macros for the offline `serde` shim.
//!
//! Parses the item's `TokenStream` directly (no `syn`/`quote`, since the
//! build environment cannot fetch them) and emits `impl serde::Serialize`
//! / `impl serde::Deserialize` blocks following upstream serde's default
//! representation: structs as maps keyed by field name, enums externally
//! tagged, newtype structs delegating to their inner value. A derived
//! `Serialize` has both writers: `to_content` builds the `Content` tree,
//! and `write_json` writes the same JSON text directly, field by field,
//! with the text between values precomputed here. Supported
//! attributes: `#[serde(transparent)]` on containers and
//! `#[serde(default)]` on named fields. Generic types are not supported
//! (the workspace has none).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

struct Field {
    name: String,
    has_default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Container {
    name: String,
    transparent: bool,
    kind: Kind,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let container = match parse_container(input) {
        Ok(c) => c,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = match mode {
        Mode::Serialize => gen_serialize(&container),
        Mode::Deserialize => gen_deserialize(&container),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Consume leading attributes, returning the serde flags seen
    /// (`transparent`, `default`).
    fn take_attrs(&mut self) -> (bool, bool) {
        let mut transparent = false;
        let mut default = false;
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.next();
                    if let Some(TokenTree::Group(g)) = self.next() {
                        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                        if let Some(TokenTree::Ident(name)) = inner.first() {
                            if name.to_string() == "serde" {
                                if let Some(TokenTree::Group(args)) = inner.get(1) {
                                    for t in args.stream() {
                                        if let TokenTree::Ident(flag) = t {
                                            match flag.to_string().as_str() {
                                                "transparent" => transparent = true,
                                                "default" => default = true,
                                                _ => {}
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                _ => break,
            }
        }
        (transparent, default)
    }

    /// Consume an optional visibility qualifier (`pub`, `pub(crate)`, …).
    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    /// Consume tokens of a type expression until a top-level comma
    /// (angle-bracket depth aware). Leaves the comma unconsumed.
    fn skip_type(&mut self) {
        let mut depth: i32 = 0;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return,
                _ => {}
            }
            self.next();
        }
    }
}

fn parse_container(input: TokenStream) -> Result<Container, String> {
    let mut cur = Cursor::new(input);
    let (transparent, _) = cur.take_attrs();
    cur.skip_visibility();

    let keyword = match cur.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match cur.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = cur.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generic type `{name}`"
            ));
        }
    }

    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(parse_struct_shape(&mut cur)?),
        "enum" => {
            let body = match cur.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
                other => return Err(format!("expected enum body, got {other:?}")),
            };
            Kind::Enum(parse_variants(body.stream())?)
        }
        other => return Err(format!("cannot derive for `{other}` items")),
    };

    Ok(Container {
        name,
        transparent,
        kind,
    })
}

fn parse_struct_shape(cur: &mut Cursor) -> Result<Shape, String> {
    match cur.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named(parse_named_fields(g.stream())?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(count_tuple_fields(g.stream())))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Shape::Unit),
        None => Ok(Shape::Unit),
        other => Err(format!("unexpected token in struct body: {other:?}")),
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    loop {
        if cur.at_end() {
            break;
        }
        let (_, has_default) = cur.take_attrs();
        cur.skip_visibility();
        let name = match cur.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        cur.skip_type();
        fields.push(Field { name, has_default });
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => return Err(format!("expected `,` between fields, got {other:?}")),
        }
    }
    Ok(fields)
}

/// Count the fields of a tuple struct/variant body: top-level comma
/// separators plus one, ignoring a trailing comma.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth: i32 = 0;
    let mut count = 0usize;
    let mut segment_has_tokens = false;
    for t in stream {
        match t {
            TokenTree::Punct(ref p) if p.as_char() == '<' => {
                depth += 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(ref p) if p.as_char() == '>' => {
                depth -= 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(ref p) if p.as_char() == ',' && depth == 0 => {
                if segment_has_tokens {
                    count += 1;
                }
                segment_has_tokens = false;
            }
            _ => segment_has_tokens = true,
        }
    }
    if segment_has_tokens {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    loop {
        if cur.at_end() {
            break;
        }
        let _ = cur.take_attrs();
        let name = match cur.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        let shape = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.clone();
                cur.next();
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.clone();
                cur.next();
                Shape::Named(parse_named_fields(g.stream())?)
            }
            _ => Shape::Unit,
        };
        variants.push(Variant { name, shape });
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => return Err(format!("expected `,` between variants, got {other:?}")),
        }
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(c: &Container) -> String {
    let name = &c.name;
    // A newtype, or a transparent one-field struct, delegates both the
    // tree and the JSON writers (the key writer included) to its field.
    let delegate = match &c.kind {
        Kind::Struct(Shape::Tuple(1)) => Some("0".to_string()),
        Kind::Struct(Shape::Named(fields)) if c.transparent && fields.len() == 1 => {
            Some(fields[0].name.clone())
        }
        _ => None,
    };
    let (body, write) = match (&c.kind, &delegate) {
        (_, Some(field)) => (
            // Newtype structs delegate to the inner value (upstream
            // default, and what `#[serde(transparent)]` requests).
            format!("serde::Serialize::to_content(&self.{field})"),
            format!("serde::Serialize::write_json(&self.{field}, out)"),
        ),
        (Kind::Struct(Shape::Unit), None) => (
            "serde::Content::Null".to_string(),
            "out.push_str(\"null\"); Ok(())".to_string(),
        ),
        (Kind::Struct(Shape::Tuple(n)), None) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_content(&self.{i})"))
                .collect();
            let access: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            (
                format!("serde::Content::Seq(vec![{}])", items.join(", ")),
                format!("{} Ok(())", write_items("[", &seq_items(&access), "]")),
            )
        }
        (Kind::Struct(Shape::Named(fields)), None) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(serde::Content::Str({:?}.to_string()), \
                         serde::Serialize::to_content(&self.{}))",
                        f.name, f.name
                    )
                })
                .collect();
            let access: Vec<String> = fields.iter().map(|f| format!("&self.{}", f.name)).collect();
            (
                format!("serde::Content::Map(vec![{}])", entries.join(", ")),
                format!(
                    "{} Ok(())",
                    write_items("{", &map_items(fields, &access), "}")
                ),
            )
        }
        (Kind::Enum(variants), None) => {
            let arms: Vec<String> = variants.iter().map(|v| ser_variant_arm(name, v)).collect();
            let write_arms: Vec<String> = variants
                .iter()
                .map(|v| write_variant_arm(name, v))
                .collect();
            (
                format!("match self {{ {} }}", arms.join(" ")),
                format!("match self {{ {} }} Ok(())", write_arms.join(" ")),
            )
        }
    };
    let write_key = match &delegate {
        Some(field) => format!(
            "fn write_json_key(&self, out: &mut ::std::string::String) -> \
             ::std::result::Result<(), serde::SerError> {{ \
             serde::Serialize::write_json_key(&self.{field}, out) }}\n"
        ),
        None => String::new(),
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn to_content(&self) -> serde::Content {{ {body} }}\n\
         fn write_json(&self, out: &mut ::std::string::String) -> \
         ::std::result::Result<(), serde::SerError> {{ {write} }}\n\
         {write_key}\
         }}"
    )
}

/// Statements that write `open`, then each value `expr` of `items`
/// after its separator text, then `close`. Adjacent text is joined at
/// expansion time, so the text between two values is one `push_str` of
/// a precomputed literal (`,"b":`).
fn write_items(open: &str, items: &[(String, String)], close: &str) -> String {
    let mut code = String::new();
    let mut text = open.to_string();
    for (sep, expr) in items {
        text += sep;
        code += &format!("out.push_str({text:?}); serde::Serialize::write_json({expr}, out)?; ");
        text.clear();
    }
    text += close;
    code + &format!("out.push_str({text:?});")
}

/// Array elements: the values at `access`, comma-separated.
fn seq_items(access: &[String]) -> Vec<(String, String)> {
    let sep = |i| if i == 0 { "" } else { "," };
    access
        .iter()
        .enumerate()
        .map(|(i, a)| (sep(i).to_string(), a.clone()))
        .collect()
}

/// Object members: each field's value at `access`, after `"name":`.
fn map_items(fields: &[Field], access: &[String]) -> Vec<(String, String)> {
    let sep = |i| if i == 0 { "" } else { "," };
    fields
        .iter()
        .zip(access)
        .enumerate()
        .map(|(i, (f, a))| (format!("{}\"{}\":", sep(i), f.name), a.clone()))
        .collect()
}

fn write_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.shape {
        Shape::Unit => format!(
            "{enum_name}::{vname} => out.push_str({:?}),",
            format!("\"{vname}\"")
        ),
        Shape::Tuple(1) => format!(
            "{enum_name}::{vname}(f0) => {{ {} }}",
            write_items(&format!("{{\"{vname}\":"), &seq_items(&["f0".into()]), "}")
        ),
        Shape::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            format!(
                "{enum_name}::{vname}({}) => {{ {} }}",
                binds.join(", "),
                write_items(&format!("{{\"{vname}\":["), &seq_items(&binds), "]}")
            )
        }
        Shape::Named(fields) => {
            // Bound under fresh names, so a field called `out` does not
            // shadow the output buffer.
            let binds: Vec<String> = (0..fields.len()).map(|i| format!("f{i}")).collect();
            let pattern: Vec<String> = fields
                .iter()
                .zip(&binds)
                .map(|(f, b)| format!("{}: {b}", f.name))
                .collect();
            format!(
                "{enum_name}::{vname} {{ {} }} => {{ {} }}",
                pattern.join(", "),
                write_items(
                    &format!("{{\"{vname}\":{{"),
                    &map_items(fields, &binds),
                    "}}"
                )
            )
        }
    }
}

fn ser_variant_arm(enum_name: &str, v: &Variant) -> String {
    let tag = format!("serde::Content::Str({:?}.to_string())", v.name);
    match &v.shape {
        Shape::Unit => format!("{enum_name}::{} => {tag},", v.name),
        Shape::Tuple(1) => format!(
            "{enum_name}::{}(f0) => serde::Content::Map(vec![({tag}, \
             serde::Serialize::to_content(f0))]),",
            v.name
        ),
        Shape::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_content(f{i})"))
                .collect();
            format!(
                "{enum_name}::{}({}) => serde::Content::Map(vec![({tag}, \
                 serde::Content::Seq(vec![{}]))]),",
                v.name,
                binds.join(", "),
                items.join(", ")
            )
        }
        Shape::Named(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(serde::Content::Str({:?}.to_string()), \
                         serde::Serialize::to_content({}))",
                        f.name, f.name
                    )
                })
                .collect();
            format!(
                "{enum_name}::{} {{ {} }} => serde::Content::Map(vec![({tag}, \
                 serde::Content::Map(vec![{}]))]),",
                v.name,
                binds.join(", "),
                entries.join(", ")
            )
        }
    }
}

fn gen_deserialize(c: &Container) -> String {
    let name = &c.name;
    let body = match &c.kind {
        Kind::Struct(Shape::Unit) => format!("Ok({name})"),
        Kind::Struct(Shape::Tuple(1)) => {
            format!("Ok({name}(serde::Deserialize::from_content(content)?))")
        }
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_content(&items[{i}])?"))
                .collect();
            format!(
                "match content {{\n\
                 serde::Content::Seq(items) if items.len() == {n} => \
                 Ok({name}({})),\n\
                 other => Err(serde::help::err(format!(\
                 \"expected {n}-element sequence for {name}, got {{other:?}}\"))),\n\
                 }}",
                items.join(", ")
            )
        }
        Kind::Struct(Shape::Named(fields)) => {
            if c.transparent && fields.len() == 1 {
                format!(
                    "Ok({name} {{ {}: serde::Deserialize::from_content(content)? }})",
                    fields[0].name
                )
            } else {
                let inits: Vec<String> = fields
                    .iter()
                    .map(|f| de_named_field(f, &format!("missing field `{}` in {name}", f.name)))
                    .collect();
                format!(
                    "match content {{\n\
                     serde::Content::Map(map) => Ok({name} {{ {} }}),\n\
                     other => Err(serde::help::err(format!(\
                     \"expected map for {name}, got {{other:?}}\"))),\n\
                     }}",
                    inits.join(", ")
                )
            }
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| de_variant_arm(name, v)).collect();
            format!(
                "{{\n\
                 let (tag, payload) = serde::help::as_variant(content)?;\n\
                 match tag {{\n\
                 {}\n\
                 other => Err(serde::help::err(format!(\
                 \"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn from_content(content: &serde::Content) -> \
         ::std::result::Result<Self, serde::DeError> {{ {body} }}\n\
         }}"
    )
}

fn de_named_field(f: &Field, missing_msg: &str) -> String {
    let fallback = if f.has_default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("return Err(serde::help::err({missing_msg:?}))")
    };
    format!(
        "{}: match serde::help::map_get(map, {:?}) {{\n\
         Some(v) => serde::Deserialize::from_content(v)?,\n\
         None => {fallback},\n\
         }}",
        f.name, f.name
    )
}

fn de_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.shape {
        Shape::Unit => format!("{:?} => Ok({enum_name}::{vname}),", vname),
        Shape::Tuple(1) => format!(
            "{:?} => match payload {{\n\
             Some(v) => Ok({enum_name}::{vname}(serde::Deserialize::from_content(v)?)),\n\
             None => Err(serde::help::err(\
             \"missing payload for {enum_name}::{vname}\")),\n\
             }},",
            vname
        ),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_content(&items[{i}])?"))
                .collect();
            format!(
                "{:?} => match payload {{\n\
                 Some(serde::Content::Seq(items)) if items.len() == {n} => \
                 Ok({enum_name}::{vname}({})),\n\
                 _ => Err(serde::help::err(\
                 \"expected {n}-element payload for {enum_name}::{vname}\")),\n\
                 }},",
                vname,
                items.join(", ")
            )
        }
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    de_named_field(
                        f,
                        &format!("missing field `{}` in {enum_name}::{vname}", f.name),
                    )
                })
                .collect();
            format!(
                "{:?} => match payload {{\n\
                 Some(serde::Content::Map(map)) => Ok({enum_name}::{vname} {{ {} }}),\n\
                 _ => Err(serde::help::err(\
                 \"expected map payload for {enum_name}::{vname}\")),\n\
                 }},",
                vname,
                inits.join(", ")
            )
        }
    }
}
