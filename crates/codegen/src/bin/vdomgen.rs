//! `vdomgen` — generate V-DOM interfaces from an XML Schema.
//!
//! Usage:
//! ```text
//! vdomgen <schema.xsd> [--mode idl|union-idl|rust] [--out FILE]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut mode = "rust".to_string();
    let mut out_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                i += 1;
                mode = args.get(i).cloned().unwrap_or_default();
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned();
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: vdomgen <schema.xsd> [--mode idl|union-idl|rust] [--out FILE]");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match schema::CompiledSchema::parse(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("schema error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match normalize::build_model(compiled.schema()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("model error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let output = match mode.as_str() {
        "idl" => codegen::render_idl(&model),
        "union-idl" => codegen::render_union_idl(&model),
        "rust" => codegen::render_rust(
            &model,
            &codegen::RustGenOptions {
                schema_label: path.clone(),
            },
        ),
        other => {
            eprintln!("unknown mode {other:?} (expected idl, union-idl or rust)");
            return ExitCode::FAILURE;
        }
    };
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, output) {
                eprintln!("cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{output}"),
    }
    ExitCode::SUCCESS
}
